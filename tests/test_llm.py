import contextlib
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
import requests

from textprobe import llm
from textprobe.cli import main
from textprobe.errors import (
    EndpointUnreachable,
    InvalidConfig,
    MalformedResponse,
    ParseError,
    TransportError,
)
from textprobe.llm import (
    Description,
    FixtureTransport,
    HttpTransport,
    LlmRequest,
    MAX_RETRY_AFTER_S,
    MockTransport,
    cache_key,
    fetch_descriptions,
    fetch_descriptions_partial,
    load_fixture_descriptions,
    write_descriptions_jsonl,
)


def make_requests(n_prompts=3, samples=2):
    return [
        LlmRequest(
            prompt_id=f"t/{i}/0/-",
            prompt_text=f"Describe thing {i}.",
            class_id=i,
            class_name=f"thing{i}",
            samples_per_prompt=samples,
        )
        for i in range(n_prompts)
    ]


def echo_replies(request):
    return [
        f"{request.prompt_text} answer {j}"
        for j in range(request.samples_per_prompt)
    ]


class TestFetch:
    def test_returns_samples_per_prompt_in_order(self):
        reqs = make_requests(4, samples=3)
        out = fetch_descriptions(reqs, MockTransport(echo_replies), cache_dir=None)
        assert len(out) == 12
        assert [d.prompt_id for d in out[:3]] == [reqs[0].prompt_id] * 3
        assert [d.sample_index for d in out[:3]] == [0, 1, 2]
        assert all(d.source == "live" for d in out)
        assert all(d.class_name for d in out)

    def test_no_duplicate_prompt_sample_pairs(self):
        out = fetch_descriptions(
            make_requests(5, samples=4), MockTransport(echo_replies), cache_dir=None
        )
        pairs = [(d.prompt_id, d.sample_index) for d in out]
        assert len(set(pairs)) == len(pairs)

    def test_duplicate_prompt_ids_rejected(self):
        req = make_requests(1)[0]
        with pytest.raises(InvalidConfig):
            fetch_descriptions([req, req], MockTransport(echo_replies))

    def test_whitespace_and_quotes_stripped(self):
        transport = MockTransport(lambda r: ['  "a quoted answer"  '])
        reqs = make_requests(1, samples=1)
        out = fetch_descriptions(reqs, transport)
        assert out[0].text == "a quoted answer"

    def test_empty_completion_is_malformed(self):
        transport = MockTransport(lambda r: ["   "])
        with pytest.raises(MalformedResponse):
            fetch_descriptions(make_requests(1, samples=1), transport)

    def test_short_reply_is_malformed(self):
        transport = MockTransport(lambda r: ["only one"])
        with pytest.raises(MalformedResponse):
            fetch_descriptions(make_requests(1, samples=3), transport)


class TestCache:
    def test_warm_cache_bypasses_transport(self, tmp_path):
        cache = tmp_path / "cache"
        reqs = make_requests(3, samples=2)
        first = fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        assert all(d.source == "live" for d in first)

        counter = MockTransport(echo_replies)
        second = fetch_descriptions(reqs, counter, cache)
        assert counter.calls == 0
        assert all(d.source == "cache" for d in second)
        # Replay determinism: identical texts in identical order.
        assert [(d.prompt_id, d.sample_index, d.text) for d in first] == [
            (d.prompt_id, d.sample_index, d.text) for d in second
        ]

    def test_cache_key_sensitive_to_sampling_params(self):
        base = cache_key("p", 60, 0.9)
        assert cache_key("p", 60, 0.9) == base
        assert cache_key("p", 60, 0.5) != base
        assert cache_key("p", 99, 0.9) != base
        assert cache_key("q", 60, 0.9) != base

    def test_changed_params_refetch(self, tmp_path):
        cache = tmp_path / "cache"
        reqs = make_requests(2, samples=1)
        fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        hot = [
            LlmRequest(
                prompt_id=r.prompt_id,
                prompt_text=r.prompt_text,
                class_id=r.class_id,
                samples_per_prompt=1,
                sampling_temperature=0.1,
            )
            for r in reqs
        ]
        counter = MockTransport(echo_replies)
        out = fetch_descriptions(hot, counter, cache)
        assert counter.calls == 2
        assert all(d.source == "live" for d in out)

    def test_cache_files_human_readable(self, tmp_path):
        cache = tmp_path / "cache"
        [req] = make_requests(1, samples=2)
        fetch_descriptions([req], MockTransport(echo_replies), cache)
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["prompt_text"] == req.prompt_text
        assert doc["samples"] == echo_replies(req)


class TestRetry:
    def test_transient_failures_retried(self):
        transport = MockTransport(echo_replies, fail_times=2)
        out = fetch_descriptions(
            make_requests(1, samples=1), transport, retries=3, backoff_base=0.0
        )
        assert len(out) == 1
        assert transport.calls == 3

    def test_exhausted_retries_raise_with_prompt_ids(self):
        transport = MockTransport(echo_replies, fail_times=1000)
        reqs = make_requests(2, samples=1)
        with pytest.raises(EndpointUnreachable) as excinfo:
            fetch_descriptions(reqs, transport, retries=3, backoff_base=0.0)
        assert set(excinfo.value.failed_prompt_ids) == {r.prompt_id for r in reqs}

    def test_non_transient_not_retried(self):
        class Refuser:
            source = "live"
            calls = 0

            def complete(self, request):
                self.calls += 1
                raise TransportError("401", transient=False)

        transport = Refuser()
        with pytest.raises(EndpointUnreachable):
            fetch_descriptions(
                make_requests(1, samples=1), transport, retries=3, backoff_base=0.0
            )
        assert transport.calls == 1

    def test_partial_mode_returns_failures(self):
        good = make_requests(3, samples=1)

        class Flaky:
            source = "live"

            def complete(self, request):
                if request.prompt_id.endswith("/1/0/-"):
                    raise TransportError("boom", transient=False)
                return echo_replies(request)

        descs, failures = fetch_descriptions_partial(
            good, Flaky(), retries=2, backoff_base=0.0
        )
        assert len(descs) == 2
        assert [f.prompt_id for f in failures] == ["t/1/0/-"]
        assert failures[0].kind == "unreachable"


class TestFixtures:
    def write_fixture(self, path, records):
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def test_load_two_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        self.write_fixture(
            path,
            [
                {"prompt_id": "a", "class_id": 0, "sample_index": 0, "text": "first"},
                {"prompt_id": "a", "class_id": 0, "sample_index": 1, "text": "second"},
            ],
        )
        descs = load_fixture_descriptions(path)
        assert len(descs) == 2
        assert all(d.source == "fixture" for d in descs)

    def test_missing_class_id_is_parse_error(self, tmp_path):
        path = tmp_path / "f.jsonl"
        self.write_fixture(
            path,
            [
                {"prompt_id": "a", "class_id": 0, "sample_index": 0, "text": "ok"},
                {"prompt_id": "b", "sample_index": 0, "text": "missing"},
            ],
        )
        with pytest.raises(ParseError, match="line 2") as excinfo:
            load_fixture_descriptions(path)
        assert excinfo.value.lineno == 2

    def test_empty_file_empty_list(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        assert load_fixture_descriptions(path) == []

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        self.write_fixture(
            path,
            [
                {"prompt_id": "a", "class_id": 0, "sample_index": 0, "text": "x"},
                {"prompt_id": "a", "class_id": 0, "sample_index": 0, "text": "y"},
            ],
        )
        with pytest.raises(ParseError, match="duplicate"):
            load_fixture_descriptions(path)

    def test_blank_text_rejected(self, tmp_path):
        path = tmp_path / "f.jsonl"
        self.write_fixture(
            path, [{"prompt_id": "a", "class_id": 0, "sample_index": 0, "text": "  "}]
        )
        with pytest.raises(ParseError, match="empty text"):
            load_fixture_descriptions(path)

    def test_fixture_transport_serves_descriptions(self, tmp_path):
        reqs = make_requests(2, samples=2)
        descs = [
            Description(
                prompt_id=r.prompt_id,
                class_id=r.class_id,
                text=f"fixture text {r.class_id}/{j}",
                sample_index=j,
            )
            for r in reqs
            for j in range(2)
        ]
        path = tmp_path / "f.jsonl"
        write_descriptions_jsonl(descs, path)
        out = fetch_descriptions(reqs, FixtureTransport(path))
        assert [d.text for d in out] == [d.text for d in descs]
        assert all(d.source == "fixture" for d in out)

    def test_fixture_transport_missing_entry_fails(self, tmp_path):
        reqs = make_requests(2, samples=2)
        path = tmp_path / "f.jsonl"
        self.write_fixture(
            path,
            [
                {"prompt_id": reqs[0].prompt_id, "class_id": 0, "sample_index": 0, "text": "x"},
                {"prompt_id": reqs[0].prompt_id, "class_id": 0, "sample_index": 1, "text": "y"},
            ],
        )
        with pytest.raises(EndpointUnreachable) as excinfo:
            fetch_descriptions(reqs, FixtureTransport(path), backoff_base=0.0)
        assert excinfo.value.failed_prompt_ids == [reqs[1].prompt_id]

    def test_round_trip_through_writer(self, tmp_path):
        reqs = make_requests(2, samples=2)
        out = fetch_descriptions(reqs, MockTransport(echo_replies))
        path = tmp_path / "d.jsonl"
        write_descriptions_jsonl(out, path)
        loaded = load_fixture_descriptions(path)
        assert [(d.prompt_id, d.sample_index, d.text, d.class_id) for d in loaded] == [
            (d.prompt_id, d.sample_index, d.text, d.class_id) for d in out
        ]


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = dict(headers or {})

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class FakeSession:
    """requests.Session stand-in recording the outgoing POST."""

    def __init__(self, response):
        self.response = response  # one reply for every POST, or a list in turn
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        response = self.response
        if isinstance(response, list):
            response = response[len(self.posts) - 1]
        if isinstance(response, Exception):
            raise response
        return response


class TestHttpTransport:
    def request(self, n=2):
        return LlmRequest(
            prompt_id="p/0/0/-", prompt_text="Describe a thing.", class_id=0,
            samples_per_prompt=n, max_tokens=48, sampling_temperature=0.7,
        )

    def test_completion_body_and_auth(self, monkeypatch):
        monkeypatch.setenv("TEXTPROBE_API_TOKEN", "sekrit")
        session = FakeSession(
            FakeResponse(payload={"choices": [{"text": "one"}, {"text": "two"}]})
        )
        transport = HttpTransport("http://api.example/complete", session=session)
        texts = transport.complete(self.request())
        assert texts == ["one", "two"]
        sent = session.posts[0]
        assert sent["json"] == {
            "prompt": "Describe a thing.",
            "max_tokens": 48,
            "temperature": 0.7,
            "n": 2,
        }
        assert sent["headers"]["Authorization"] == "Bearer sekrit"

    def test_server_error_is_transient(self):
        transport = HttpTransport(
            "http://api.example", session=FakeSession(FakeResponse(status_code=503))
        )
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert excinfo.value.transient

    def test_client_error_is_not_transient(self):
        transport = HttpTransport(
            "http://api.example", session=FakeSession(FakeResponse(status_code=401))
        )
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert not excinfo.value.transient

    def test_connection_error_is_transient(self):
        transport = HttpTransport(
            "http://api.example",
            session=FakeSession(requests.ConnectionError("refused")),
        )
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert excinfo.value.transient

    def test_garbage_body_is_malformed(self):
        transport = HttpTransport(
            "http://api.example",
            session=FakeSession(FakeResponse(payload={"unexpected": 1})),
        )
        with pytest.raises(MalformedResponse):
            transport.complete(self.request())


class TestRequestValidation:
    def test_bad_samples(self):
        with pytest.raises(InvalidConfig):
            LlmRequest(prompt_id="a", prompt_text="p", class_id=0, samples_per_prompt=0)

    def test_bad_temperature(self):
        with pytest.raises(InvalidConfig):
            LlmRequest(prompt_id="a", prompt_text="p", class_id=0, sampling_temperature=-0.1)


OK_REPLY = {"choices": [{"text": "one"}, {"text": "two"}]}


class TestRetryAfter:
    def request(self):
        return LlmRequest(prompt_id="p/0/0/-", prompt_text="Describe a thing.",
                          class_id=0, samples_per_prompt=2)

    def fetch(self, monkeypatch, replies, retries=3, backoff=0.5):
        sleeps = []
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        session = FakeSession(replies)
        transport = HttpTransport("http://api.example", session=session)
        out = fetch_descriptions([self.request()], transport, retries=retries,
                                 backoff_base=backoff)
        return out, sleeps, session

    @pytest.mark.parametrize("status", [429, 503])
    def test_busy_reply_is_transient_and_carries_retry_after(self, status):
        transport = HttpTransport("http://api.example", session=FakeSession(
            FakeResponse(status_code=status, headers={"Retry-After": "7"})))
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert excinfo.value.transient
        assert excinfo.value.retry_after == 7.0

    @pytest.mark.parametrize("value", [None, "Wed, 21 Oct 2026 07:28:00 GMT", "-3", "1.5"])
    def test_retry_after_other_than_delta_seconds_is_ignored(self, value):
        headers = {} if value is None else {"Retry-After": value}
        transport = HttpTransport("http://api.example", session=FakeSession(
            FakeResponse(status_code=429, headers=headers)))
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert excinfo.value.transient
        assert excinfo.value.retry_after is None

    def test_retry_after_on_other_errors_is_ignored(self):
        transport = HttpTransport("http://api.example", session=FakeSession(
            FakeResponse(status_code=500, headers={"Retry-After": "9"})))
        with pytest.raises(TransportError) as excinfo:
            transport.complete(self.request())
        assert excinfo.value.retry_after is None

    def test_waits_the_longer_of_backoff_and_retry_after(self, monkeypatch):
        busy = FakeResponse(status_code=429, headers={"Retry-After": "2"})
        out, sleeps, session = self.fetch(
            monkeypatch, [busy, busy, FakeResponse(payload=OK_REPLY)], backoff=1.5)
        assert [d.text for d in out] == ["one", "two"]
        assert sleeps == [2.0, 3.0]  # max(1.5, 2), then max(3.0, 2)
        assert len(session.posts) == 3

    def test_retry_after_is_capped(self, monkeypatch):
        busy = FakeResponse(status_code=503, headers={"Retry-After": "86400"})
        _, sleeps, _ = self.fetch(monkeypatch, [busy, FakeResponse(payload=OK_REPLY)])
        assert sleeps == [MAX_RETRY_AFTER_S]

    def test_without_the_header_backoff_is_unchanged(self, monkeypatch):
        replies = [FakeResponse(status_code=429), FakeResponse(status_code=503),
                   FakeResponse(payload=OK_REPLY)]
        _, sleeps, _ = self.fetch(monkeypatch, replies, retries=3, backoff=0.25)
        assert sleeps == [0.25, 0.5]

    def test_rate_limited_until_retries_run_out_is_unreachable(self, monkeypatch):
        busy = FakeResponse(status_code=429, headers={"Retry-After": "1"})
        with pytest.raises(EndpointUnreachable):
            self.fetch(monkeypatch, [busy, busy], retries=2, backoff=0.1)


def cache_entry(cache, request):
    key = cache_key(request.prompt_text, request.max_tokens, request.sampling_temperature)
    return cache / f"{key}.json"


def write_cache_entry(cache, request, samples):
    """Write the request's cache entry with `samples` as its samples, or with
    `samples` as the file's whole text if it is a string."""
    path = cache_entry(cache, request)
    path.write_text(samples if isinstance(samples, str) else json.dumps({"samples": samples}))
    return path


class NoPool:
    """Stands in for the worker pool where none may be started."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was started")


class TestCacheHitsOnCallingThread:
    def warm(self, tmp_path, reqs):
        cache = tmp_path / "cache"
        fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        return cache

    def test_all_hit_fetch_starts_no_thread(self, tmp_path, monkeypatch):
        reqs = make_requests(6, samples=3)
        cache = self.warm(tmp_path, reqs)
        monkeypatch.setattr(llm, "ThreadPoolExecutor", NoPool)
        before = threading.active_count()
        counter = MockTransport(echo_replies)
        descs, failures = fetch_descriptions_partial(reqs, counter, cache, max_in_flight=4)
        assert counter.calls == 0 and failures == []
        assert threading.active_count() == before
        assert len(descs) == 18 and all(d.source == "cache" for d in descs)

    def test_cache_is_read_once_per_request(self, tmp_path, monkeypatch):
        reqs = make_requests(4, samples=2)
        cache = self.warm(tmp_path, reqs[:2])  # two full hits, two misses
        reads = []
        original = llm._cache_read
        monkeypatch.setattr(llm, "_cache_read",
                            lambda d, key: reads.append(key) or original(d, key))
        fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        assert len(reads) == len(set(reads)) == 4

    def test_mixed_cache_matches_a_serial_reference(self, tmp_path):
        reqs = make_requests(6, samples=3)
        cache = tmp_path / "cache"
        cache.mkdir()
        cached = {
            0: ["c0", "c1", "c2"],        # full hit
            1: ["p0"],                    # partial hit
            2: [],                        # miss
            3: ["d0", "d1", "d2", "d3"],  # full hit, one sample to spare
            4: ["e0", None, "e2"],        # corrupt: a sample that is not a string
            5: "{not json",               # corrupt: not JSON
        }
        paths = {r: write_cache_entry(cache, reqs[r], entry)
                 for r, entry in cached.items() if entry}
        before = {r: paths[r].read_bytes() for r in (0, 3)}
        cached[4] = cached[5] = []

        calls = []
        transport = MockTransport(lambda r: calls.append(r.prompt_id) or echo_replies(r))
        descs, failures = fetch_descriptions_partial(reqs, transport, cache, max_in_flight=3)

        expected = []
        for r, req in enumerate(reqs):
            live = echo_replies(req)
            for i in range(3):
                if i < len(cached[r]):
                    expected.append((req.prompt_id, i, cached[r][i], "cache"))
                else:
                    expected.append((req.prompt_id, i, live[i], "live"))
        assert failures == []
        assert [(d.prompt_id, d.sample_index, d.text, d.source) for d in descs] == expected
        # One live request per prompt with a missing sample, none for full hits.
        assert sorted(calls) == sorted(reqs[r].prompt_id for r in (1, 2, 4, 5))
        # Partial, missing and corrupt entries now hold what was served; full
        # hits are left as they were.
        for r in (1, 2, 4, 5):
            entry = json.loads(cache_entry(cache, reqs[r]).read_text())
            assert entry["samples"] == [text for pid, _, text, _ in expected
                                        if pid == reqs[r].prompt_id]
        assert {r: paths[r].read_bytes() for r in (0, 3)} == before
        assert len(list(cache.iterdir())) == 6

    def test_failures_keep_request_order(self, tmp_path):
        reqs = make_requests(6, samples=2)
        cache = self.warm(tmp_path, [reqs[0], reqs[3]])

        def replies(request):
            if request.prompt_id in (reqs[4].prompt_id, reqs[1].prompt_id):
                raise TransportError("down", transient=False)
            if request.prompt_id == reqs[2].prompt_id:
                return ["   ", "ok"]
            return echo_replies(request)

        descs, failures = fetch_descriptions_partial(reqs, MockTransport(replies), cache,
                                                     max_in_flight=4)
        assert [(f.prompt_id, f.kind) for f in failures] == [
            (reqs[1].prompt_id, "unreachable"),
            (reqs[2].prompt_id, "malformed"),
            (reqs[4].prompt_id, "unreachable"),
        ]
        assert [d.prompt_id for d in descs] == [
            reqs[r].prompt_id for r in (0, 0, 3, 3, 5, 5)
        ]


class TestCallerWritesTheCache:
    """Workers only make the round trip; the calling thread checks each reply
    and writes the cache, so a slot is free again as soon as its reply lands."""

    def test_slot_is_free_while_the_caller_writes(self, tmp_path, monkeypatch):
        reqs = make_requests(2, samples=1)
        second_started = threading.Event()
        waited = []

        def replies(request):
            if request.prompt_id == reqs[1].prompt_id:
                second_started.set()
            return echo_replies(request)

        original = llm._cache_write

        def write(cache_dir, key, request, samples):
            if request.prompt_id == reqs[0].prompt_id:
                waited.append(second_started.wait(5))
            original(cache_dir, key, request, samples)

        monkeypatch.setattr(llm, "_cache_write", write)
        descs, failures = fetch_descriptions_partial(
            reqs, MockTransport(replies), tmp_path / "cache", max_in_flight=1)
        assert waited == [True]
        assert failures == [] and [d.prompt_id for d in descs] == [r.prompt_id for r in reqs]

    def test_every_cache_write_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        reqs = make_requests(8, samples=3)
        threads = []
        original = llm._cache_write

        def write(*args):
            threads.append(threading.get_ident())
            original(*args)

        monkeypatch.setattr(llm, "_cache_write", write)
        fetch_descriptions(reqs, MockTransport(echo_replies), tmp_path / "cache",
                           max_in_flight=4)
        assert threads == [threading.get_ident()] * 8

    def test_failed_cache_write_propagates_and_cancels_the_rest(self, tmp_path,
                                                                  monkeypatch):
        reqs = make_requests(40, samples=1)
        write_tried = threading.Event()
        calls = []

        def replies(request):
            calls.append(request.prompt_id)
            if request.prompt_id != reqs[0].prompt_id:
                write_tried.wait(5)  # hold both slots until the write fails
            return echo_replies(request)

        def write(*args):
            write_tried.set()
            raise OSError("disk full")

        monkeypatch.setattr(llm, "_cache_write", write)
        with pytest.raises(OSError, match="disk full"):
            fetch_descriptions_partial(reqs, MockTransport(replies), tmp_path / "cache",
                                       max_in_flight=2)
        assert len(calls) < 40


class TestBackoffGivesUpItsSlot:
    """A request waiting out a backoff holds no in-flight slot, so another
    request can go on the wire meanwhile; `max_in_flight` still bounds the
    requests on the wire."""

    def test_another_request_is_sent_during_a_backoff(self, monkeypatch):
        first, second = make_requests(2, samples=1)
        second_sent = threading.Event()
        failed, waited = [], []

        def replies(request):
            if request.prompt_id == first.prompt_id and not failed:
                failed.append(request.prompt_id)
                raise TransportError("busy", transient=True)
            if request.prompt_id == second.prompt_id:
                second_sent.set()
            return echo_replies(request)

        monkeypatch.setattr(llm.time, "sleep", lambda s: waited.append(second_sent.wait(5)))
        descs, failures = fetch_descriptions_partial(
            [first, second], MockTransport(replies), max_in_flight=1)
        assert failed == [first.prompt_id] and waited == [True]
        assert failures == [] and [d.prompt_id for d in descs] == [
            first.prompt_id, second.prompt_id]

    @pytest.mark.parametrize("max_in_flight", [1, 2, 3])
    def test_requests_on_the_wire_peak_at_max_in_flight(self, max_in_flight):
        lock = threading.Lock()
        every_slot_filled = threading.Event()
        on_wire, peak, attempts = [0], [0], {}

        def replies(request):
            with lock:
                on_wire[0] += 1
                peak[0] = max(peak[0], on_wire[0])
                if on_wire[0] == max_in_flight:
                    every_slot_filled.set()
                attempt = attempts[request.prompt_id] = attempts.get(request.prompt_id, 0) + 1
            try:
                every_slot_filled.wait(5)
                threading.Event().wait(0.005)  # keep the attempts overlapping
                if attempt == 1 and request.class_id % 2 == 0:
                    raise TransportError("busy", transient=True)
                return echo_replies(request)
            finally:
                with lock:
                    on_wire[0] -= 1

        reqs = make_requests(12, samples=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose an unguarded slot
        try:
            descs, failures = fetch_descriptions_partial(
                reqs, MockTransport(replies), max_in_flight=max_in_flight, retries=2,
                backoff_base=0.005)
        finally:
            sys.setswitchinterval(interval)
        assert failures == [] and len(descs) == 12
        assert sum(attempts.values()) == 18
        assert peak[0] == max_in_flight

    @pytest.mark.parametrize("max_in_flight, n_live", [(1, 5), (2, 3), (3, 12)])
    @pytest.mark.parametrize("write_fails", [False, True])
    def test_pool_is_bounded_and_no_worker_outlives_the_fetch(
            self, tmp_path, monkeypatch, max_in_flight, n_live, write_fails):
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        def write(*args):
            raise OSError("disk full")

        monkeypatch.setattr(llm, "ThreadPoolExecutor", Pool)
        if write_fails:
            monkeypatch.setattr(llm, "_cache_write", write)
        before = set(threading.enumerate())
        transport = MockTransport(echo_replies, fail_times=2)
        with pytest.raises(OSError) if write_fails else contextlib.nullcontext():
            fetch_descriptions_partial(make_requests(n_live, samples=1), transport,
                                       tmp_path / "cache", max_in_flight=max_in_flight,
                                       backoff_base=0.001)
        assert len(sizes) == 1 and sizes[0] <= min(2 * max_in_flight, n_live)
        assert set(threading.enumerate()) <= before


class TestFetchOptions:
    @pytest.mark.parametrize("option, value", [
        ("max_in_flight", 0), ("max_in_flight", -5),
        ("retries", 0), ("retries", -2),
        ("backoff_base", -1.0), ("backoff_base", float("nan")),
    ])
    def test_invalid_option_is_invalid_config(self, option, value):
        transport = MockTransport(echo_replies)
        with pytest.raises(InvalidConfig, match=option):
            fetch_descriptions_partial(make_requests(1), transport, **{option: value})
        assert transport.calls == 0


class TestOneCacheFilePerRequest:
    """Each request's samples live in one cache file, in sample order."""

    def test_cold_fetch_creates_one_file_per_request(self, tmp_path):
        cache = tmp_path / "cache"
        reqs = make_requests(5, samples=4)
        fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        assert sorted(cache.iterdir()) == sorted(cache_entry(cache, r) for r in reqs)
        for req in reqs:
            assert json.loads(cache_entry(cache, req).read_text())["samples"] == (
                echo_replies(req))

    def test_more_samples_reuse_the_cached_ones(self, tmp_path):
        cache = tmp_path / "cache"
        narrow = make_requests(3, samples=2)
        fetch_descriptions(narrow, MockTransport(echo_replies), cache)
        reqs = make_requests(3, samples=4)
        transport = MockTransport(lambda r: [f"second {j}" for j in range(4)])
        descs = fetch_descriptions(reqs, transport, cache)
        assert transport.calls == 3
        for r, req in enumerate(reqs):
            old = echo_replies(narrow[r])
            served = descs[4 * r:4 * r + 4]
            assert [(d.text, d.source) for d in served] == [
                (old[0], "cache"), (old[1], "cache"),
                ("second 2", "live"), ("second 3", "live")]
            assert json.loads(cache_entry(cache, req).read_text())["samples"] == [
                d.text for d in served]

    def test_fewer_samples_are_served_from_the_cache_alone(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        wide = make_requests(3, samples=4)
        fetch_descriptions(wide, MockTransport(echo_replies), cache)

        def write(*args):
            raise AssertionError("the cache was written")

        monkeypatch.setattr(llm, "_cache_write", write)
        transport = MockTransport(echo_replies)
        descs = fetch_descriptions(make_requests(3, samples=2), transport, cache)
        assert transport.calls == 0
        assert [(d.text, d.source) for d in descs] == [
            (text, "cache") for req in wide for text in echo_replies(req)[:2]]

    @pytest.mark.parametrize("content", [
        "{not json", '["a", "b"]', '{"text": "a"}', '{"samples": "ab"}',
        '{"samples": ["a", ""]}', '{"samples": ["a", 5]}', '{"samples": [null]}',
    ])
    def test_corrupt_entry_is_a_miss_and_is_rewritten(self, tmp_path, content):
        cache = tmp_path / "cache"
        cache.mkdir()
        [req] = make_requests(1, samples=2)
        path = write_cache_entry(cache, req, content)
        transport = MockTransport(echo_replies)
        descs = fetch_descriptions([req], transport, cache)
        assert transport.calls == 1
        assert [(d.text, d.source) for d in descs] == [
            (text, "live") for text in echo_replies(req)]
        assert json.loads(path.read_text())["samples"] == echo_replies(req)

    @pytest.mark.parametrize("cached, empty_at, kept, writes", [
        ([], 0, None, 0),
        ([], 2, ["l0", "l1"], 1),
        (["c0"], 3, ["c0", "l1", "l2"], 1),
        (["c0", "c1"], 2, ["c0", "c1"], 0),
    ])
    def test_empty_completion_keeps_the_samples_before_it(self, tmp_path, monkeypatch,
                                                          cached, empty_at, kept, writes):
        cache = tmp_path / "cache"
        cache.mkdir()
        [req] = make_requests(1, samples=4)
        if cached:
            write_cache_entry(cache, req, cached)
        written = []
        original = llm._cache_write
        monkeypatch.setattr(llm, "_cache_write",
                            lambda *args: written.append(args) or original(*args))
        texts = [f"l{j}" for j in range(4)]
        texts[empty_at] = "  "
        descs, failures = fetch_descriptions_partial([req], MockTransport(lambda r: texts),
                                                     cache)
        assert descs == [] and [(f.prompt_id, f.kind) for f in failures] == [
            (req.prompt_id, "malformed")]
        assert len(written) == writes
        if kept is None:
            assert not cache_entry(cache, req).exists()
        else:
            assert json.loads(cache_entry(cache, req).read_text())["samples"] == kept


class TestChoiceTextMustBeAString:
    BODY = {"choices": [{"text": None}, {"text": 5}]}

    def request(self):
        return LlmRequest(prompt_id="a", prompt_text="Describe a.", class_id=0,
                          samples_per_prompt=2)

    def test_transport_raises_malformed(self):
        transport = HttpTransport("http://api.example",
                                  session=FakeSession(FakeResponse(payload=self.BODY)))
        with pytest.raises(MalformedResponse, match="not a string"):
            transport.complete(self.request())

    def test_partial_fetch_lists_the_prompt_as_malformed_and_caches_nothing(self,
                                                                           tmp_path):
        cache = tmp_path / "cache"
        transport = HttpTransport("http://api.example",
                                  session=FakeSession(FakeResponse(payload=self.BODY)))
        descs, failures = fetch_descriptions_partial([self.request()], transport, cache)
        assert descs == [] and [(f.prompt_id, f.kind) for f in failures] == [
            ("a", "malformed")]
        assert list(cache.glob("*.json")) == []

    @pytest.mark.parametrize("allow_partial, code", [(False, 3), (True, 0)])
    def test_fetch_command(self, tmp_path, monkeypatch, capsys, allow_partial, code):
        prompts, out, cache = tmp_path / "p.jsonl", tmp_path / "d.jsonl", tmp_path / "cache"
        prompts.write_text(json.dumps({"prompt_id": "a", "class_id": 0,
                                       "text": "Describe a."}) + "\n")
        monkeypatch.setattr(llm.requests, "Session",
                            lambda: FakeSession(FakeResponse(payload=self.BODY)))
        argv = ["fetch", "--prompts", str(prompts), "--endpoint", "http://api.example",
                "--cache", str(cache), "--samples", "2", "--out", str(out)]
        assert main(argv + ["--allow-partial"] * allow_partial) == code
        err = capsys.readouterr().err
        assert "not a string" in err and ("failed a:" in err) == allow_partial
        assert out.exists() == allow_partial
        assert list(cache.glob("*.json")) == []
