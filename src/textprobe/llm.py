"""Completion-endpoint client with disk caching, retry, and offline replay.

The transport is pluggable: a live HTTP transport for completion-style
endpoints, a fixture transport that replays a JSON-lines file, and an
in-memory mock for tests. Responses are cached on disk, one file per
request keyed by a hash of (prompt text, max tokens, temperature) and holding
that request's samples in sample order, so a warmed cache makes reruns
deterministic and free of network traffic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import requests

from .atomic import atomic_write, read_jsonl, write_jsonl
from .errors import (
    EndpointUnreachable,
    InvalidConfig,
    MalformedResponse,
    ParseError,
    TransportError,
)

DEFAULT_SAMPLES_PER_PROMPT = 5
DEFAULT_MAX_TOKENS = 60
DEFAULT_SAMPLING_TEMPERATURE = 0.9
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_RETRIES = 3
# Longest wait a server's Retry-After header can impose between two attempts.
MAX_RETRY_AFTER_S = 60.0

AUTH_TOKEN_ENV = "TEXTPROBE_API_TOKEN"

SOURCE_LIVE = "live"
SOURCE_CACHE = "cache"
SOURCE_FIXTURE = "fixture"


@dataclass(frozen=True)
class LlmRequest:
    """One prompt to complete, plus the class it was generated for."""

    prompt_id: str
    prompt_text: str
    class_id: int
    class_name: str = ""
    samples_per_prompt: int = DEFAULT_SAMPLES_PER_PROMPT
    max_tokens: int = DEFAULT_MAX_TOKENS
    sampling_temperature: float = DEFAULT_SAMPLING_TEMPERATURE

    def __post_init__(self):
        if self.samples_per_prompt < 1:
            raise InvalidConfig("samples_per_prompt must be >= 1")
        if self.max_tokens < 1:
            raise InvalidConfig("max_tokens must be >= 1")
        if self.sampling_temperature < 0:
            raise InvalidConfig("sampling_temperature must be >= 0")


@dataclass(frozen=True)
class Description:
    """One generated class description."""

    prompt_id: str
    class_id: int
    text: str
    sample_index: int
    source: str = SOURCE_LIVE
    class_name: str = ""


@dataclass(frozen=True)
class FetchFailure:
    prompt_id: str
    kind: str  # "unreachable" or "malformed"
    message: str


def requests_from_prompt_records(
    records: list[dict],
    samples_per_prompt: int = DEFAULT_SAMPLES_PER_PROMPT,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    sampling_temperature: float = DEFAULT_SAMPLING_TEMPERATURE,
) -> list[LlmRequest]:
    """Turn prompt JSONL records into requests with shared sampling params."""
    return [
        LlmRequest(
            prompt_id=rec["prompt_id"],
            prompt_text=rec["text"],
            class_id=rec["class_id"],
            class_name=rec.get("class_name", ""),
            samples_per_prompt=samples_per_prompt,
            max_tokens=max_tokens,
            sampling_temperature=sampling_temperature,
        )
        for rec in records
    ]


# -- transports ----------------------------------------------------------------

class HttpTransport:
    """POSTs completion-style bodies {prompt, max_tokens, temperature, n}.

    Expects a JSON reply with a `choices` list of {"text": <string>} objects.
    Connection problems, timeouts, 429 and 5xx replies are transient (retried
    by the fetcher); other 4xx replies and unparseable bodies are not. A
    Retry-After header in delta-seconds on a 429 or 503 is passed on to the
    fetcher as the least time to wait before the next attempt.
    """

    source = SOURCE_LIVE

    def __init__(self, url: str, timeout: float = 30.0, token: str | None = None,
                 session: requests.Session | None = None):
        self.url = url
        self.timeout = timeout
        self.token = token if token is not None else os.environ.get(AUTH_TOKEN_ENV)
        self.session = session or requests.Session()

    def complete(self, request: LlmRequest) -> list[str]:
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = {
            "prompt": request.prompt_text,
            "max_tokens": request.max_tokens,
            "temperature": request.sampling_temperature,
            "n": request.samples_per_prompt,
        }
        try:
            resp = self.session.post(
                self.url, json=body, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}", transient=True) from exc
        busy = resp.status_code in (429, 503)
        retry_after = _retry_after(resp.headers) if busy else None
        if resp.status_code >= 500:
            raise TransportError(f"server error {resp.status_code}", transient=True,
                                 retry_after=retry_after)
        if resp.status_code == 429:
            raise TransportError("rate limited (429)", transient=True,
                                 retry_after=retry_after)
        if resp.status_code >= 400:
            raise TransportError(f"client error {resp.status_code}", transient=False)
        try:
            doc = resp.json()
            choices = doc["choices"]
            texts = [c["text"] for c in choices]
            if not all(isinstance(text, str) for text in texts):
                raise TypeError("a choice's text is not a string")
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(
                f"unparseable completion body: {exc}", prompt_id=request.prompt_id
            ) from exc
        return texts


def _retry_after(headers) -> float | None:
    """Seconds from a Retry-After header in delta-seconds form; an HTTP date
    or anything else unparseable is ignored."""
    value = (headers.get("Retry-After") or "").strip()
    return float(value) if value.isdecimal() else None


class FixtureTransport:
    """Replays completions from a JSON-lines description file.

    Records are keyed by (prompt_id, sample_index); a request for a missing
    entry fails non-transiently so the caller can report exactly which
    prompts have no fixture coverage.
    """

    source = SOURCE_FIXTURE

    def __init__(self, path):
        self.path = str(path)
        self._texts: dict[tuple[str, int], str] = {}
        for desc in load_fixture_descriptions(path):
            self._texts[(desc.prompt_id, desc.sample_index)] = desc.text
        self.calls = 0

    def complete(self, request: LlmRequest) -> list[str]:
        self.calls += 1
        texts = []
        for i in range(request.samples_per_prompt):
            key = (request.prompt_id, i)
            if key not in self._texts:
                raise TransportError(
                    f"fixture {self.path} has no entry for prompt "
                    f"{request.prompt_id!r} sample {i}",
                    transient=False,
                )
            texts.append(self._texts[key])
        return texts


class MockTransport:
    """In-memory transport for tests.

    `replies` maps prompt_text to a list of completions (cycled if shorter
    than the requested sample count) or is a callable taking the request.
    `fail_times` injects that many transient failures before succeeding.
    """

    source = SOURCE_LIVE

    def __init__(self, replies, fail_times: int = 0):
        self.replies = replies
        self.fail_times = fail_times
        self.calls = 0
        self.failures_injected = 0

    def complete(self, request: LlmRequest) -> list[str]:
        self.calls += 1
        if self.failures_injected < self.fail_times:
            self.failures_injected += 1
            raise TransportError("injected transient failure", transient=True)
        if callable(self.replies):
            texts = list(self.replies(request))
        else:
            base = list(self.replies[request.prompt_text])
            texts = [base[i % len(base)] for i in range(request.samples_per_prompt)]
        return texts


# -- disk cache ------------------------------------------------------------------

def cache_key(prompt_text: str, max_tokens: int, sampling_temperature: float) -> str:
    """Content hash identifying the cached completions of one request."""
    payload = json.dumps(
        {
            "prompt_text": prompt_text,
            "max_tokens": max_tokens,
            "sampling_temperature": sampling_temperature,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_path(cache_dir, key: str) -> Path:
    return Path(cache_dir) / f"{key}.json"


def _cache_read(cache_dir, key: str) -> list[str] | None:
    """The samples cached under `key`, in sample order; None when there is no
    entry or it is corrupt (a corrupt entry is a miss and is rewritten)."""
    try:
        with open(_cache_path(cache_dir, key), encoding="utf-8") as fh:
            samples = json.load(fh)["samples"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        return None
    if isinstance(samples, list) and all(isinstance(s, str) and s for s in samples):
        return samples
    return None


def _cache_write(cache_dir, key: str, request: LlmRequest, samples: list[str]) -> None:
    """Write `samples` as the cache entry `key`; `cache_dir` must exist."""
    doc = {
        "prompt_id": request.prompt_id,
        "prompt_text": request.prompt_text,
        "max_tokens": request.max_tokens,
        "sampling_temperature": request.sampling_temperature,
        "samples": samples,
    }
    with atomic_write(_cache_path(cache_dir, key)) as fh:
        fh.write(json.dumps(doc, sort_keys=True))


# -- fetching ----------------------------------------------------------------------

def clean_completion(text: str) -> str:
    """Strip whitespace and one layer of surrounding quote characters."""
    text = text.strip()
    while len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        text = text[1:-1].strip()
    return text


def _complete_with_retry(transport, request: LlmRequest, retries: int,
                         backoff_base: float, slot: threading.Semaphore) -> list[str]:
    """The request's completions, retrying transient failures with backoff.

    The caller holds `slot` (an in-flight slot) during each attempt; it is
    given up while waiting out a backoff, so another request can use it, and
    taken back before the next attempt.
    """
    attempt = 0
    while True:
        try:
            return transport.complete(request)
        except TransportError as exc:
            attempt += 1
            if not exc.transient or attempt >= retries:
                raise
            delay = backoff_base * (2 ** (attempt - 1))
            if exc.retry_after is not None:
                delay = max(delay, min(exc.retry_after, MAX_RETRY_AFTER_S))
            slot.release()
            try:
                time.sleep(delay)
            finally:
                slot.acquire()


def _request_key(request: LlmRequest) -> str:
    return cache_key(request.prompt_text, request.max_tokens,
                     request.sampling_temperature)


def _cached_samples(request: LlmRequest, cache_dir) -> list[str]:
    """The request's first samples as the cache holds them, at most
    `samples_per_prompt` of them; empty on a miss."""
    if cache_dir is None:
        return []
    samples = _cache_read(cache_dir, _request_key(request)) or []
    return samples[:request.samples_per_prompt]


def _round_trip(request: LlmRequest, transport, retries: int, backoff_base: float,
                slot: threading.Semaphore) -> tuple[list[str] | None, FetchFailure | None]:
    """A worker's whole job: one request's completions, or why there are none.

    Failures are returned, not raised: an exception left in a future keeps its
    traceback's frames alive in reference cycles until the next collection.
    """
    try:
        with slot:
            return _complete_with_retry(transport, request, retries, backoff_base,
                                        slot), None
    except MalformedResponse as exc:
        return None, FetchFailure(request.prompt_id, "malformed", str(exc))
    except TransportError as exc:
        return None, FetchFailure(request.prompt_id, "unreachable", str(exc))


def _settle(request: LlmRequest, cached: list[str], live_texts: list[str] | None,
            source: str, cache_dir) -> tuple[list[Description] | None, FetchFailure | None]:
    """The request's descriptions: the `cached` samples as read, the rest from
    `live_texts`, cleaned; or the failure that a short reply or an empty
    completion makes of it. The cache entry is rewritten once with every good
    sample in order, the ones before an empty completion included, whenever
    that adds to what it held."""
    n = request.samples_per_prompt
    texts, failure = list(cached), None
    if live_texts is not None:
        if len(live_texts) < n:
            return None, FetchFailure(
                request.prompt_id, "malformed",
                f"endpoint returned {len(live_texts)} completions, expected {n}")
        for raw in live_texts[len(cached):n]:
            text = clean_completion(raw)
            if not text:
                failure = FetchFailure(request.prompt_id, "malformed",
                                       "endpoint returned an empty completion")
                break
            texts.append(text)
        if cache_dir is not None and len(texts) > len(cached):
            _cache_write(cache_dir, _request_key(request), request, texts)
    if failure is not None:
        return None, failure
    return [
        Description(
            prompt_id=request.prompt_id,
            class_id=request.class_id,
            text=text,
            sample_index=i,
            source=SOURCE_CACHE if i < len(cached) else source,
            class_name=request.class_name,
        )
        for i, text in enumerate(texts)
    ], None


def fetch_descriptions_partial(
    requests_list: list[LlmRequest],
    transport,
    cache_dir=None,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    retries: int = DEFAULT_RETRIES,
    backoff_base: float = 0.5,
) -> tuple[list[Description], list[FetchFailure]]:
    """Fetch what can be fetched; report the rest.

    Returns descriptions in input-request order (samples_per_prompt per
    surviving request) plus one FetchFailure per request that failed after
    `retries` attempts, also in request order. The cache is read on the
    calling thread, and only requests missing a sample go to the worker pool.
    A worker only makes the round trip, retries and backoff included; the
    calling thread checks each reply as it arrives and writes the cache, so
    the worker is free to send the next request.

    At most `max_in_flight` requests are on the wire at once: a worker holds
    one of that many slots during each attempt and gives it up while it waits
    out a backoff. The pool has up to twice `max_in_flight` threads, so up to
    `max_in_flight` requests can wait out a backoff while as many others are
    on the wire; if more back off at once, slots sit idle until one returns.
    """
    if max_in_flight < 1:
        raise InvalidConfig(f"max_in_flight must be >= 1, got {max_in_flight}")
    if retries < 1:
        raise InvalidConfig(f"retries must be >= 1, got {retries}")
    if not (backoff_base >= 0 and math.isfinite(backoff_base)):
        raise InvalidConfig(f"backoff_base must be a finite number >= 0, got {backoff_base}")
    seen: set[str] = set()
    for req in requests_list:
        if req.prompt_id in seen:
            raise InvalidConfig(f"duplicate prompt_id {req.prompt_id!r} in requests")
        seen.add(req.prompt_id)

    hits = [_cached_samples(req, cache_dir) for req in requests_list]
    results: list = [None] * len(requests_list)
    live: list[int] = []
    for i, req in enumerate(requests_list):
        if len(hits[i]) < req.samples_per_prompt:
            live.append(i)
        else:
            results[i] = _settle(req, hits[i], None, transport.source, cache_dir)
    if live:
        if cache_dir is not None:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        slot = threading.BoundedSemaphore(max_in_flight)
        pool = ThreadPoolExecutor(max_workers=min(2 * max_in_flight, len(live)))
        try:
            pending = {
                pool.submit(_round_trip, requests_list[i], transport, retries,
                            backoff_base, slot): i
                for i in live
            }
            for future in as_completed(pending):
                i = pending.pop(future)
                texts, failure = future.result()
                results[i] = (None, failure) if failure is not None else _settle(
                    requests_list[i], hits[i], texts, transport.source, cache_dir)
        finally:
            # Leaving early (an interrupt, a failed cache write) starts no
            # more requests; those a worker has already taken finish first.
            pool.shutdown(cancel_futures=True)

    descriptions: list[Description] = []
    failures: list[FetchFailure] = []
    for descs, failure in results:
        if failure is not None:
            failures.append(failure)
        else:
            descriptions.extend(descs)
    return descriptions, failures


def fetch_descriptions(
    requests_list: list[LlmRequest],
    transport,
    cache_dir=None,
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    retries: int = DEFAULT_RETRIES,
    backoff_base: float = 0.5,
) -> list[Description]:
    """Strict variant: raises if any request could not be completed."""
    descriptions, failures = fetch_descriptions_partial(
        requests_list, transport, cache_dir,
        max_in_flight=max_in_flight, retries=retries, backoff_base=backoff_base,
    )
    if failures:
        unreachable = [f.prompt_id for f in failures if f.kind == "unreachable"]
        if unreachable:
            raise EndpointUnreachable(
                f"{len(unreachable)} prompt(s) failed after {retries} attempts: "
                + ", ".join(unreachable),
                failed_prompt_ids=[f.prompt_id for f in failures],
            )
        first = failures[0]
        raise MalformedResponse(first.message, prompt_id=first.prompt_id)
    return descriptions


# -- JSON-lines description files ----------------------------------------------------

def write_descriptions_jsonl(descriptions: list[Description], path) -> None:
    """Write records {prompt_id, class_id, class_name, sample_index, text}."""
    write_jsonl(path, ({
        "prompt_id": d.prompt_id,
        "class_id": d.class_id,
        "class_name": d.class_name,
        "sample_index": d.sample_index,
        "text": d.text,
    } for d in descriptions))


_DESCRIPTION_FIELDS = {"prompt_id": str, "class_id": int, "class_name": (str, ""),
                       "sample_index": int, "text": str}


def load_fixture_descriptions(path) -> list[Description]:
    """Load a JSON-lines description file with per-line validation.

    Every record needs prompt_id, class_id, sample_index, and nonempty text;
    (prompt_id, sample_index) pairs must be unique. All loaded records are
    tagged source="fixture".
    """
    out: list[Description] = []
    seen: set[tuple[str, int]] = set()
    for lineno, rec in read_jsonl(path, _DESCRIPTION_FIELDS):
        rec["text"] = rec["text"].strip()
        if not rec["text"]:
            raise ParseError(f"line {lineno}: empty text", lineno)
        pair = (rec["prompt_id"], rec["sample_index"])
        if pair in seen:
            raise ParseError(
                f"line {lineno}: duplicate (prompt_id, sample_index) {pair}", lineno
            )
        seen.add(pair)
        out.append(Description(**rec, source=SOURCE_FIXTURE))
    return out
