"""Spans around calls into textprobe's layers, recorded from outside the package.

`Tracer.install()` replaces each wrapped function on the object its caller
looks it up on (for example `textprobe.cli.read_bundle`, the name `cmd_run_all`
calls, rather than `textprobe.data.read_bundle`), and `uninstall()` puts the
originals back, so an untraced pass runs the unmodified package. Spans are kept
in memory with a name, start, end, parent and pass id; `write_jsonl` writes
them out at the end of the run. Spans opened on a fetch worker thread take the
span that submitted the work as their parent.

`layer_metrics` turns the spans of one pass into the per-layer figures. A
span's self time is its duration minus the part of it covered by its children;
children on worker threads can overlap, so the covered part is the union of
their intervals. Spans on worker threads also count time spent waiting for the
interpreter lock, so per-thread sums (llm.cache_read_s, llm.transport_s) can
exceed the wall time of the fetch that contains them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("prompts", "llm", "data", "core", "train", "evaluate", "cli")
# Layers whose spans sit directly under the pass span; core is only ever
# called from inside train and evaluate.
TOP_LAYERS = ("prompts", "llm", "data", "train", "evaluate")

# Unit of every figure `layer_metrics` returns, plus the tracing overhead.
UNITS = {
    "trace.pass_s": "s", "trace.spans": "count", "trace.overhead_pct": "%",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"share.{layer}_pct": "%" for layer in (*TOP_LAYERS, "cli")},
    "prompts.render_s": "s", "prompts.count": "count",
    "llm.fetch_s": "s", "llm.fetch_pct": "%", "llm.requests": "count",
    "llm.transport_s": "s", "llm.transport_calls": "count", "llm.retries": "count",
    "llm.backoff_s": "s", "llm.failed": "count", "llm.cache_hits": "count",
    "llm.cache_misses": "count", "llm.cache_hit_ratio": "ratio",
    "llm.cache_read_s": "s", "llm.cache_writes": "count", "llm.cache_write_s": "s",
    "llm.in_flight_mean": "count", "llm.load_s": "s", "llm.write_s": "s",
    "data.encode_s": "s", "data.encode_rows": "rows", "data.bundle_write_s": "s",
    "data.bundle_write_bytes": "bytes", "data.bundle_read_s": "s",
    "data.bundle_read_bytes": "bytes", "data.dataset_s": "s",
    "core.normalize_rows_s": "s", "core.normalize_rows_calls": "count",
    "core.softmax_s": "s",
    "train.fit_s": "s", "train.fit_pct": "%", "train.fits": "count",
    "train.steps": "count", "train.step_ms": "ms", "train.loss_grads_s": "s",
    "train.loss_grads_calls": "count", "train.other_s": "s",
    "train.gflop": "GFLOP-computed", "train.save_s": "s", "train.load_s": "s",
    "train.clf_bytes": "bytes",
    "evaluate.classifier_s": "s", "evaluate.zero_shot_s": "s",
    "evaluate.ensemble_s": "s", "evaluate.tot_s": "s", "evaluate.images": "count",
    "evaluate.report_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def current(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, on_result=None):
        """Run fn(*args, **kwargs) inside a span; on_result(args, result) -> attrs."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else getattr(self._local, "adopted", None),
            "pass": self.pass_id,
            "thread": threading.get_ident(),
        }
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if on_result is not None:
            span.update(on_result(args, result))
        return result

    def run_adopted(self, parent: int | None, fn, *args, **kwargs):
        """Run fn on a worker thread with `parent` as the parent of its spans."""
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = None

    def pass_spans(self, pass_id: int) -> list[dict]:
        return [s for s in self.spans if s["pass"] == pass_id]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- attribute wrapping ----------------------------------------------------

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Wrap a module function or an instance method found on `owner`."""
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_result)

        self.replace(owner, attr, wrapper)

    def wrap_classmethod(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = owner.__dict__[attr].__func__
        tracer = self

        @functools.wraps(fn)
        def wrapper(cls, *args, **kwargs):
            return tracer.call(name, fn, (cls, *args), kwargs, on_result)

        self.replace(owner, attr, classmethod(wrapper))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        _instrument(self)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _instrument(tracer: Tracer) -> None:
    """The span table: which function, looked up where, counts as which span."""
    from textprobe import cli, evaluate, llm, train

    def count_result(key):
        return lambda args, result: {key: len(result)}

    # prompts
    for owner in (cli, evaluate):
        tracer.wrap(owner, "render_generic_prompts", "prompts.render",
                    count_result("count"))
    tracer.wrap(cli, "render_prompts", "prompts.render", count_result("count"))
    tracer.wrap(cli, "write_prompts_jsonl", "prompts.write")
    tracer.wrap(cli, "read_prompts_jsonl", "prompts.read")

    # llm
    tracer.wrap(cli, "requests_from_prompt_records", "llm.requests")
    tracer.wrap(cli, "fetch_descriptions", "llm.fetch",
                lambda args, result: {"requests": len(args[0]), "failed": 0})
    tracer.wrap(cli, "fetch_descriptions_partial", "llm.fetch",
                lambda args, result: {"requests": len(args[0]),
                                      "failed": len(result[1])})
    tracer.wrap(llm, "_complete_with_retry", "llm.complete")
    for transport in (llm.HttpTransport, llm.FixtureTransport):
        tracer.wrap(transport, "complete", "llm.transport")
    tracer.wrap(llm, "_cache_read", "llm.cache_read",
                lambda args, result: {"hit": result is not None})
    tracer.wrap(llm, "_cache_write", "llm.cache_write")
    for owner in (cli, llm):
        tracer.wrap(owner, "load_fixture_descriptions", "llm.load")
    tracer.wrap(cli, "write_descriptions_jsonl", "llm.write")

    class TracedPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.run_adopted, tracer.current(), fn,
                                  *args, **kwargs)

    tracer.replace(llm, "ThreadPoolExecutor", TracedPool)

    # data
    for attr in ("synthetic_encode", "synthetic_bundle"):
        tracer.wrap(cli, attr, "data.encode",
                    lambda args, result: {"rows": result.count})
    tracer.wrap(cli, "write_bundle", "data.bundle_write",
                lambda args, result: {"bytes": os.path.getsize(args[1])})
    tracer.wrap(cli, "read_bundle", "data.bundle_read",
                lambda args, result: {"bytes": os.path.getsize(args[0])})
    tracer.wrap(cli, "build_text_dataset", "data.dataset")

    # core
    for owner in (train, evaluate):
        tracer.wrap(owner, "normalize_rows", "core.normalize_rows")
    tracer.wrap(evaluate, "stable_softmax", "core.softmax")

    # train
    def fit_attrs(head):
        return lambda args, result: {
            "head": head,
            "steps": result.train_meta["config"]["steps"],
            "rows": result.train_meta["num_items"],
        }

    tracer.wrap(cli, "train_text_classifier", "train.fit", fit_attrs("tap"))
    tracer.wrap(evaluate, "train_text_classifier", "train.fit", fit_attrs("tot"))
    tracer.wrap(train, "training_loss_and_grads", "train.loss_grads",
                lambda args, result: {
                    # forward X W^T plus backward g^T X, 2*N*d*K flops each
                    "gflop": 4.0 * args[2].shape[0] * args[2].shape[1]
                    * args[0].shape[0] / 1e9,
                })
    tracer.wrap(train.LinearClassifier, "save", "train.save",
                lambda args, result: {"bytes": os.path.getsize(args[1])})
    tracer.wrap_classmethod(train.LinearClassifier, "load", "train.load",
                            lambda args, result: {"bytes": os.path.getsize(args[1])})

    # evaluate
    images = lambda args, result: {"images": result.sample_count}  # noqa: E731
    tracer.wrap(cli, "evaluate_classifier", "evaluate.classifier", images)
    tracer.wrap(cli, "evaluate_zero_shot", "evaluate.zero_shot", images)
    tracer.wrap(cli, "class_text_embeddings_from_bundle", "evaluate.ensemble")
    for attr in ("train_tot_cls", "train_tot_dst"):
        tracer.wrap(cli, attr, "evaluate.tot")
    tracer.wrap(cli, "render_report", "evaluate.report")
    tracer.wrap(evaluate.EvalReport, "save", "evaluate.report")


# -- per-pass metrics -------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] in by_id:
            p = by_id[s["parent"]]
            lo, hi = max(s["start"], p["start"]), min(s["end"], p["end"])
            if hi > lo:
                children.setdefault(s["parent"], []).append((lo, hi))
    return {
        s["id"]: s["end"] - s["start"] - _covered(children.get(s["id"], []))
        for s in spans
    }


def layer_metrics(spans: list[dict], root_name: str) -> dict[str, float]:
    """Per-layer figures for one pass; `root_name` is the span around the pass."""
    (root,) = [s for s in spans if s["name"] == root_name]
    own = self_times(spans)
    pass_s = root["end"] - root["start"]

    def named(name, head=None):
        return [s for s in spans if s["name"] == name
                and (head is None or s.get("head") == head)]

    def dur(name, head=None):
        return sum(s["end"] - s["start"] for s in named(name, head))

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    m: dict[str, float] = {"trace.pass_s": pass_s, "trace.spans": len(spans)}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            own[s["id"]] for s in spans if s["name"].split(".")[0] == layer
        )
    for layer in TOP_LAYERS:
        top = [s for s in spans if s["parent"] == root["id"]
               and s["name"].split(".")[0] == layer]
        m[f"share.{layer}_pct"] = 100.0 * sum(s["end"] - s["start"] for s in top) / pass_s
    m["cli.self_s"] = own[root["id"]]
    m["share.cli_pct"] = 100.0 * own[root["id"]] / pass_s

    m["prompts.render_s"] = dur("prompts.render")
    m["prompts.count"] = total("prompts.render", "count")

    reads = named("llm.cache_read")
    hits = sum(1 for s in reads if s.get("hit"))
    m["llm.fetch_s"] = dur("llm.fetch")
    m["llm.fetch_pct"] = 100.0 * m["llm.fetch_s"] / pass_s
    m["llm.requests"] = total("llm.fetch", "requests")
    m["llm.transport_s"] = dur("llm.transport")
    m["llm.transport_calls"] = len(named("llm.transport"))
    m["llm.retries"] = m["llm.transport_calls"] - len(named("llm.complete"))
    m["llm.backoff_s"] = sum(own[s["id"]] for s in named("llm.complete"))
    m["llm.failed"] = total("llm.fetch", "failed")
    m["llm.cache_hits"] = hits
    m["llm.cache_misses"] = len(reads) - hits
    m["llm.cache_hit_ratio"] = hits / len(reads) if reads else 0.0
    m["llm.cache_read_s"] = dur("llm.cache_read")
    m["llm.cache_writes"] = len(named("llm.cache_write"))
    m["llm.cache_write_s"] = dur("llm.cache_write")
    m["llm.in_flight_mean"] = m["llm.transport_s"] / m["llm.fetch_s"] if m["llm.fetch_s"] else 0.0
    m["llm.load_s"] = dur("llm.load")
    m["llm.write_s"] = dur("llm.write")

    m["data.encode_s"] = dur("data.encode")
    m["data.encode_rows"] = total("data.encode", "rows")
    m["data.bundle_write_s"] = dur("data.bundle_write")
    m["data.bundle_write_bytes"] = total("data.bundle_write", "bytes")
    m["data.bundle_read_s"] = dur("data.bundle_read")
    m["data.bundle_read_bytes"] = total("data.bundle_read", "bytes")
    m["data.dataset_s"] = dur("data.dataset")

    m["core.normalize_rows_s"] = dur("core.normalize_rows")
    m["core.normalize_rows_calls"] = len(named("core.normalize_rows"))
    m["core.softmax_s"] = dur("core.softmax")

    tap = named("train.fit", "tap")
    tap_steps = sum(s["steps"] for s in tap)
    m["train.fit_s"] = dur("train.fit")
    m["train.fit_pct"] = 100.0 * m["train.fit_s"] / pass_s
    m["train.fits"] = len(named("train.fit"))
    m["train.steps"] = total("train.fit", "steps")
    m["train.step_ms"] = 1000.0 * dur("train.fit", "tap") / tap_steps if tap_steps else 0.0
    m["train.loss_grads_s"] = dur("train.loss_grads")
    m["train.loss_grads_calls"] = len(named("train.loss_grads"))
    m["train.other_s"] = m["train.fit_s"] - m["train.loss_grads_s"]
    m["train.gflop"] = total("train.loss_grads", "gflop")
    m["train.save_s"] = dur("train.save")
    m["train.load_s"] = dur("train.load")
    m["train.clf_bytes"] = total("train.save", "bytes")

    m["evaluate.classifier_s"] = dur("evaluate.classifier")
    m["evaluate.zero_shot_s"] = dur("evaluate.zero_shot")
    m["evaluate.ensemble_s"] = dur("evaluate.ensemble")
    m["evaluate.tot_s"] = dur("evaluate.tot")
    m["evaluate.images"] = total("evaluate.classifier", "images") + total(
        "evaluate.zero_shot", "images")
    m["evaluate.report_s"] = dur("evaluate.report")
    return m
