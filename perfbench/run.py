"""Benchmark for textprobe: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-mid --seed 1 --seconds 8 --trace 0

Runs from the root of a source checkout against `src/textprobe` as it stands.
The seed makes every input (class names, descriptions, embedding space, fault
plan); the package sees only those generated files. Set-up (workspace, cache
warm-up, completion server and the first unforced pass) is repeated
SETUP_REPS times and reported as a median (once in a traced run); then passes
are timed until `--seconds` have passed. Every pass is checked against the first
one and the expected counts; set-up outputs are also checked against
accuracies recomputed here from the bundles.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced and
traced passes on the same workspace and reports the per-layer metrics from
spans recorded around calls into each module (see tracing.py), plus the
tracing overhead. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
provenance record. Work files go to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPS = 3
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
    "tap_acc_pct": "%", "tap_gain_pp": "pp", "ok_ratio": "ratio",
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-mid", "ingest-large", "fetch-partial"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the self-test")
    return parser.parse_args(argv)


def pin_blas_threads() -> int:
    """Run BLAS single-threaded; must happen before numpy is imported.

    On the 2-CPU machine this benchmark was tuned on, two OpenBLAS threads
    made the same training loop vary by about 8% from run to run (they spin
    on, and wait for, the second CPU), one thread by about 2.5%.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (ROOT / ".git" / name).is_file():
        return (ROOT / ".git" / name).read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(nproc: int, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
    }


class SetupFailed(Exception):
    pass


def _median(values):
    return statistics.median(values) if values else None


def run(args, nproc: int) -> tuple[dict, dict]:
    import tracing
    import workloads

    wl = workloads.get_workload(args.workload, args.scale)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer()
    errors: list[str] = []
    attempted = failed = 0
    setup_s: list[float] = []
    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    prompts_ok = prompts_all = 0
    headline = (None, None)
    sizes: dict = {}
    state = None

    def record(what: str, errs: list[str]) -> None:
        nonlocal failed
        if errs:
            failed += 1
            errors.extend(f"{what}: {e}" for e in errs)

    try:
        # Set-up, repeated for its median; each repetition builds a fresh
        # workspace from the seed and must reproduce the first one's outputs.
        # A traced run does not report setup_s, so it sets up once.
        first = None
        for rep in range(1 if args.trace else SETUP_REPS):
            if state is not None:
                state.close()
                shutil.rmtree(state.ws)
            t0 = time.perf_counter()
            state = workloads.setup(wl, work / f"ws{rep}", args.seed, nproc)
            setup_s.append(time.perf_counter() - t0)
            attempted += 1
            ref = state.reference
            errs = workloads.check(ref, workloads.expected(state))
            if not errs and wl.kind == "run-all":
                errs = workloads.verify_report(state, ref)
            first = first or ref
            if not errs and ref != first:
                errs = ["set-up outputs differ from the first set-up of this seed"]
            record(f"set-up {rep}", errs)
            if errs:
                raise SetupFailed
        expected = workloads.expected(state)

        deadline = time.perf_counter() + args.seconds
        i = 0
        while time.perf_counter() < deadline or i < MIN_PASSES:
            workloads.prepare(state)
            traced = bool(args.trace) and i % 2 == 1
            if traced:
                tracer.pass_id = i
                tracer.install()
            try:
                t0 = time.perf_counter()
                if traced:
                    result = tracer.call("cli.pass", workloads.run_pass, (state,), {})
                else:
                    result = workloads.run_pass(state)
                elapsed = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            attempted += 1
            obs = workloads.observe(state, result)
            errs = workloads.check(obs, expected)
            record(f"pass {i}", errs)
            if not errs:
                (traced_s if traced else untraced_s).append(elapsed)
                prompts_all += obs["prompts"]
                prompts_ok += obs["prompts"] - len(obs["failed_prompts"])
                if traced:
                    layers.append(tracing.layer_metrics(tracer.pass_spans(i), "cli.pass"))
            i += 1

        if wl.kind == "run-all":
            headline = workloads.headline(state.reference)
        else:
            attempted += 1
            obs, errs = workloads.downstream(state)
            record("training on the fetched descriptions", errs)
            if not errs:
                headline = workloads.headline(obs)
        sizes = workloads.sizes(state)
    except SetupFailed:
        pass
    except Exception as exc:  # a crash in the program under test fails the run
        traceback.print_exc()
        record("run", [f"{type(exc).__name__}: {exc}"])
    finally:
        tracer.uninstall()
        if state is not None:
            state.close()
            shutil.rmtree(state.ws, ignore_errors=True)

    if args.trace:
        metrics = {
            key: {"value": _median([m[key] for m in layers]), "unit": unit}
            for key, unit in tracing.UNITS.items() if key != "trace.overhead_pct"
        }
        overhead = None
        if traced_s and untraced_s:
            overhead = 100.0 * (_median(traced_s) / _median(untraced_s) - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        tracer.write_jsonl(work / "spans.jsonl")
    else:
        values = {
            "setup_s": _median(setup_s),
            "pass_s": _median(untraced_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tap_acc_pct": headline[0],
            "tap_gain_pp": headline[1],
            "ok_ratio": prompts_ok / prompts_all if prompts_all else None,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    result = {"correct": failed == 0 and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    provenance = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "sizes": sizes,
        "samples": {"setup_s": len(setup_s), "pass_s": len(untraced_s),
                    "traced_passes": len(traced_s)},
        "times_s": {"setup": setup_s, "untraced": untraced_s, "traced": traced_s},
        "ok_ratio_base": {"prompts_ok": prompts_ok, "prompts_attempted": prompts_all},
        "errors": errors[:20],
    }
    (work / "result.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=2) + "\n")
    return result, provenance


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "textprobe" / "cli.py").is_file():
        print(f"error: no textprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads()
    # The completion server is on loopback: never route it through a proxy,
    # and keep requests from reading a ~/.netrc outside the checkout.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    os.environ["NETRC"] = str(WORK / "no-netrc")
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    import textprobe

    if not Path(textprobe.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported textprobe from {textprobe.__file__}", file=sys.stderr)
        return 2
    result, provenance = run(args, nproc)
    provenance.update(environment(nproc, blas_threads))
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
