import json
import threading

import pytest
import requests

from textprobe import llm
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
        base = cache_key("p", 0, 60, 0.9)
        assert cache_key("p", 0, 60, 0.5) != base
        assert cache_key("p", 0, 99, 0.9) != base
        assert cache_key("p", 1, 60, 0.9) != base
        assert cache_key("q", 0, 60, 0.9) != base

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
        fetch_descriptions(make_requests(1, samples=1), MockTransport(echo_replies), cache)
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert "prompt_text" in doc and "text" in doc


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


def write_cache_entry(cache, request, index, text):
    key = cache_key(request.prompt_text, index, request.max_tokens,
                    request.sampling_temperature)
    (cache / f"{key}.json").write_text(json.dumps({"text": text}))
    return cache / f"{key}.json"


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

    def test_cache_is_read_once_per_sample(self, tmp_path, monkeypatch):
        reqs = make_requests(4, samples=2)
        cache = self.warm(tmp_path, reqs[:2])  # two full hits, two misses
        reads = []
        original = llm._cache_read
        monkeypatch.setattr(llm, "_cache_read",
                            lambda d, key: reads.append(key) or original(d, key))
        fetch_descriptions(reqs, MockTransport(echo_replies), cache)
        assert len(reads) == len(set(reads)) == 8

    def test_mixed_cache_matches_a_serial_reference(self, tmp_path):
        reqs = make_requests(6, samples=3)
        cache = tmp_path / "cache"
        cache.mkdir()
        cached = {
            0: {0: "c0", 1: "c1", 2: "c2"},  # full hit
            1: {1: "p1"},                    # partial hit
            2: {},                           # miss
            3: {0: "d0", 1: "d1", 2: "d2"},  # full hit
            4: {0: "e0", 2: "e2"},           # partial hit, sample 1 corrupt below
            5: {0: "f0", 1: "f1", 2: "f2"},  # full hit but for sample 2, corrupt below
        }
        for r, samples in cached.items():
            for i, text in samples.items():
                write_cache_entry(cache, reqs[r], i, text)
        corrupt = [write_cache_entry(cache, reqs[4], 1, "x"),
                   write_cache_entry(cache, reqs[5], 2, "x")]
        for path in corrupt:
            path.write_text("{not json")
        del cached[5][2]

        calls = []
        transport = MockTransport(lambda r: calls.append(r.prompt_id) or echo_replies(r))
        descs, failures = fetch_descriptions_partial(reqs, transport, cache, max_in_flight=3)

        expected = []
        for r, req in enumerate(reqs):
            live = echo_replies(req)
            for i in range(3):
                if i in cached[r]:
                    expected.append((req.prompt_id, i, cached[r][i], "cache"))
                else:
                    expected.append((req.prompt_id, i, live[i], "live"))
        assert failures == []
        assert [(d.prompt_id, d.sample_index, d.text, d.source) for d in descs] == expected
        # One live request per prompt with a missing sample, none for full hits.
        assert sorted(calls) == sorted(reqs[r].prompt_id for r in (1, 2, 4, 5))
        for path, req, i in zip(corrupt, (reqs[4], reqs[5]), (1, 2)):
            assert json.loads(path.read_text())["text"] == echo_replies(req)[i]

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

        def write(cache_dir, key, request, i, text):
            if request.prompt_id == reqs[0].prompt_id:
                waited.append(second_started.wait(5))
            original(cache_dir, key, request, i, text)

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
        assert threads == [threading.get_ident()] * 24

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
