"""Completion-endpoint client with disk caching, retry, and offline replay.

The transport is pluggable: a live HTTP transport for completion-style
endpoints, a fixture transport that replays a JSON-lines file, and an
in-memory mock for tests. Responses are cached on disk, one file per
request keyed by a hash of (prompt text, max tokens, temperature) and holding
that request's samples in sample order, so a warmed cache makes reruns
deterministic and free of network traffic. The `DEFAULT_*` constants are the
one declaration of the sampling and fetch defaults.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import os
import ssl
import threading
import time
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

from .atomic import read_jsonl, write_json, write_jsonl
from .errors import (
    EndpointUnreachable,
    InvalidConfig,
    MalformedResponse,
    ParseError,
    TransportError,
    _at_least,
    _float,
    _string,
    _whole,
    config_number,
)

DEFAULT_SAMPLES_PER_PROMPT = 5
DEFAULT_MAX_TOKENS = 60
DEFAULT_SAMPLING_TEMPERATURE = 0.9
DEFAULT_MAX_IN_FLIGHT = 4
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.5
# Longest wait a server's Retry-After header can impose between two attempts.
MAX_RETRY_AFTER_S = 60.0

AUTH_TOKEN_ENV = "TEXTPROBE_API_TOKEN"

SOURCE_LIVE = "live"
SOURCE_CACHE = "cache"
SOURCE_FIXTURE = "fixture"


# A request's sampling fields, each with its check and default; also the manifest's `llm` block.
SAMPLING_FIELDS = {
    "samples_per_prompt": (_at_least(1), DEFAULT_SAMPLES_PER_PROMPT),
    "max_tokens": (_at_least(1), DEFAULT_MAX_TOKENS),
    "sampling_temperature": (_at_least(0, _float), DEFAULT_SAMPLING_TEMPERATURE),
}


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
        for key, (check, _) in SAMPLING_FIELDS.items():
            object.__setattr__(self, key, check(key, getattr(self, key)))


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


def requests_from_prompt_records(records: list[dict], **sampling) -> list[LlmRequest]:
    """Turn prompt JSONL records into requests sharing the `sampling` fields
    (keys of SAMPLING_FIELDS); a field not given takes LlmRequest's default."""
    return [
        LlmRequest(
            prompt_id=rec["prompt_id"],
            prompt_text=rec["text"],
            class_id=rec["class_id"],
            class_name=rec.get("class_name", ""),
            **sampling,
        )
        for rec in records
    ]


# -- transports ----------------------------------------------------------------

class HttpTransport:
    """POSTs completion-style JSON bodies {prompt, max_tokens, temperature, n}
    over kept-alive connections; no redirect is followed, so the token reaches
    no other host.

    Expects a JSON reply with a `choices` list of {"text": <string>} objects.
    Connection problems, timeouts, truncated bodies, 429 and 5xx replies are
    transient (retried by the fetcher); other error statuses and unparseable
    bodies are not. A Retry-After header in delta-seconds on a 429 or 503 is
    passed on to the fetcher as the least time to wait before the next attempt.

    Threads share one transport: each call takes an idle connection off a
    stack, or opens one, and puts it back once its reply is read, unless the
    reply says the server will close it. `HTTP_PROXY`, `HTTPS_PROXY` and
    `NO_PROXY` are read once, here. `close` closes the idle connections.
    """

    source = SOURCE_LIVE

    def __init__(self, url: str, timeout: float = 30.0, token: str | None = None):
        try:
            parts = urllib.parse.urlsplit(url)
            port = parts.port  # raises ValueError unless the port is a number in range
        except ValueError:
            parts = None
        if (parts is None or parts.scheme not in ("http", "https") or not parts.hostname
                or parts.username is not None):
            raise InvalidConfig(f"endpoint {url!r} is not an http:// or https:// URL "
                                "with a host and no user info")
        self.url = url
        self.timeout = timeout
        self.token = token if token is not None else os.environ.get(AUTH_TOKEN_ENV)
        self._https = parts.scheme == "https"
        self._context = ssl.create_default_context() if self._https else None
        self._origin = (parts.hostname, port or (443 if self._https else 80))
        self._target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        self._proxy, self._proxy_headers = _proxy_for(parts)
        if self._proxy and not self._https:  # plain HTTP goes to a proxy in absolute form
            self._target = urllib.parse.urlunsplit(parts._replace(fragment=""))
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        """A new connection to the endpoint, or to its proxy; it opens on first use."""
        server = self._proxy or self._origin
        if not self._https:
            return http.client.HTTPConnection(*server, timeout=self.timeout)
        conn = http.client.HTTPSConnection(*server, timeout=self.timeout,
                                           context=self._context)
        if self._proxy:
            conn.set_tunnel(*self._origin, headers=self._proxy_headers)
        return conn

    def _post(self, conn: http.client.HTTPConnection, body: bytes,
              headers: dict) -> http.client.HTTPResponse:
        conn.request("POST", self._target, body, headers)
        return conn.getresponse()

    def complete(self, request: LlmRequest) -> list[str]:
        headers = {"Content-Type": "application/json", "User-Agent": "textprobe"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        if not self._https:
            headers.update(self._proxy_headers)
        body = json.dumps({
            "prompt": request.prompt_text,
            "max_tokens": request.max_tokens,
            "temperature": request.sampling_temperature,
            "n": request.samples_per_prompt,
        }).encode("utf-8")
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        try:
            resp = None
            if conn is not None:
                try:
                    resp = self._post(conn, body, headers)
                except ConnectionError:
                    # Closed while idle, before any status line: the server
                    # never saw the request, so it goes once more, on a new
                    # connection, as the same attempt.
                    conn.close()
            if resp is None:
                conn = self._connect()
                resp = self._post(conn, body, headers)
            payload = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"request failed: {exc}", transient=True) from exc
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        status = resp.status
        if not 200 <= status < 300:
            retry_after = _retry_after(resp.headers) if status in (429, 503) else None
            if status >= 500:
                raise TransportError(f"server error {status}", transient=True,
                                     retry_after=retry_after)
            if status == 429:
                raise TransportError("rate limited (429)", transient=True,
                                     retry_after=retry_after)
            raise TransportError(f"HTTP error {status}", transient=False)
        try:
            texts = [c["text"] for c in json.loads(payload)["choices"]]
            if not all(isinstance(text, str) for text in texts):
                raise TypeError("a choice's text is not a string")
        except (ValueError, KeyError, TypeError) as exc:
            raise MalformedResponse(
                f"unparseable completion body: {exc}", prompt_id=request.prompt_id
            ) from exc
        return texts

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _proxy_for(endpoint: urllib.parse.SplitResult) -> tuple[tuple[str, int] | None, dict]:
    """The (host, port) of the proxy that `HTTP_PROXY` or `HTTPS_PROXY` names
    for `endpoint`, None when there is none or `NO_PROXY` exempts the
    endpoint; and the Proxy-Authorization header of the proxy's user info."""
    proxy = urllib.request.getproxies().get(endpoint.scheme)
    if not proxy or urllib.request.proxy_bypass(endpoint.netloc):
        return None, {}
    try:
        via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        address = (via.hostname, via.port or 80)
    except ValueError:
        via = None
    if via is None or not via.hostname:
        raise InvalidConfig(f"{endpoint.scheme} proxy {proxy!r} is not a URL with a host "
                            "and a valid port")
    if via.username is None:
        return address, {}
    user = f"{urllib.parse.unquote(via.username)}:{urllib.parse.unquote(via.password or '')}"
    return address, {"Proxy-Authorization": "Basic " + base64.b64encode(user.encode()).decode()}


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
    write_json(_cache_path(cache_dir, key), doc, sort_keys=True)


# -- fetching ----------------------------------------------------------------------

def clean_completion(text: str) -> str:
    """Strip whitespace and one layer of surrounding quote characters."""
    text = text.strip()
    while len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        text = text[1:-1].strip()
    return text


class _Slots:
    """The in-flight slots of one fetch: at most `n` requests on the wire at
    once. A request taking its slot back after a backoff goes before every
    request that has not started yet."""

    def __init__(self, n: int):
        self._free = n
        self._returning = 0  # requests back from a backoff, waiting for a slot
        self._changed = threading.Condition()

    def take(self, returning: bool = False) -> None:
        with self._changed:
            self._returning += returning
            self._changed.wait_for(lambda: self._free and (returning or not self._returning))
            self._returning -= returning
            self._free -= 1
            if returning:  # a new request may be the next to go
                self._changed.notify_all()

    def give(self) -> None:
        with self._changed:
            self._free += 1
            self._changed.notify_all()


def _complete_with_retry(transport, request: LlmRequest, retries: int,
                         backoff_base: float, slots: _Slots) -> list[str]:
    """The request's completions, retrying transient failures with backoff.

    The caller holds one of `slots` during each attempt; it is given up
    while waiting out a backoff, so another request can use it, and taken
    back, ahead of requests not yet started, before the next attempt.
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
            slots.give()
            try:
                time.sleep(delay)
            finally:
                slots.take(returning=True)


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
                slots: _Slots) -> tuple[list[str] | None, FetchFailure | None]:
    """A worker's whole job: one request's completions, or why there are none.

    Failures are returned, not raised: an exception left in a future keeps its
    traceback's frames alive in reference cycles until the next collection.
    """
    slots.take()
    try:
        return _complete_with_retry(transport, request, retries, backoff_base, slots), None
    except MalformedResponse as exc:
        return None, FetchFailure(request.prompt_id, "malformed", str(exc))
    except TransportError as exc:
        return None, FetchFailure(request.prompt_id, "unreachable", str(exc))
    finally:
        slots.give()


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
    backoff_base: float = DEFAULT_BACKOFF_S,
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
    out a backoff; a request back from its backoff takes the next free slot
    before any request that has not started. The pool has up to twice
    `max_in_flight` threads, so up to `max_in_flight` requests can wait out a
    backoff while as many others are on the wire; if more back off at once,
    slots sit idle until one returns.
    """
    max_in_flight = _at_least(1)("max_in_flight", max_in_flight)
    retries = _at_least(1)("retries", retries)
    backoff_base = _at_least(0, config_number)("backoff_base", backoff_base)
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
        slots = _Slots(max_in_flight)
        pool = ThreadPoolExecutor(max_workers=min(2 * max_in_flight, len(live)))
        try:
            pending = {
                pool.submit(_round_trip, requests_list[i], transport, retries,
                            backoff_base, slots): i
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
    retries: int = DEFAULT_RETRIES,
    **options,
) -> list[Description]:
    """`fetch_descriptions_partial`, but raising if any request could not be completed."""
    descriptions, failures = fetch_descriptions_partial(
        requests_list, transport, cache_dir, retries=retries, **options)
    if failures:
        unreachable = [f.prompt_id for f in failures if f.kind == "unreachable"]
        if unreachable:
            raise EndpointUnreachable(
                f"{len(unreachable)} prompt(s) failed after {retries} attempts: "
                + ", ".join(unreachable),
                failed_prompt_ids=[f.prompt_id for f in failures],
            )
        first = failures[0]
        raise MalformedResponse(
            f"{len(failures)} prompt(s) got no usable reply; first {first.prompt_id}: "
            f"{first.message}",
            prompt_id=first.prompt_id,
            failed_prompt_ids=[f.prompt_id for f in failures],
        )
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


_DESCRIPTION_FIELDS = {"prompt_id": (_string, ...), "class_id": (_whole, ...),
                       "class_name": (_string, ""), "sample_index": (_whole, ...),
                       "text": (_string, ...)}


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
            raise ParseError(f"{path}: line {lineno}: empty text", lineno)
        pair = (rec["prompt_id"], rec["sample_index"])
        if pair in seen:
            raise ParseError(
                f"{path}: line {lineno}: duplicate (prompt_id, sample_index) {pair}", lineno
            )
        seen.add(pair)
        out.append(Description(**rec, source=SOURCE_FIXTURE))
    return out
