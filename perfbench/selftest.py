"""Self-test of the benchmark at smoke size; a few seconds per workload.

    python3 perfbench/selftest.py

Runs every workload end to end (completion server, traced run, output
checks) through run.py, checks the result line against BENCHMARK.json, feeds
the checks deliberately wrong expectations, and runs the benchmark where the
package sources are missing. Named so that a plain `pytest` run of the
repository does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TMP = HERE / ".work" / "selftest"


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class EndToEnd(unittest.TestCase):
    def run_smoke(self, workload: str, trace: int) -> dict:
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                     "--trace", str(trace), "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        self.assertIn("provenance", json.loads(lines[-2]))
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        setups = 1 if trace else run.SETUP_REPS
        self.assertGreaterEqual(result["attempted"], setups + run.MIN_PASSES)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_workloads(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.run_smoke(name, 0)["metrics"]
                for key in ("setup_s", "pass_s", "peak_rss_mb", "tap_acc_pct", "ok_ratio"):
                    self.assertGreater(metrics[key]["value"], 0, key)

    def test_traced_runs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self.run_smoke(name, 1)["metrics"]
                self.assertGreater(metrics["trace.spans"]["value"], 0)
        m = self.run_smoke("fetch-partial", 1)["metrics"]
        self.assertGreater(m["llm.retries"]["value"], 0)
        self.assertGreater(m["llm.failed"]["value"], 0)
        self.assertGreater(m["llm.cache_writes"]["value"], 0)
        with open(HERE / ".work" / "fetch-partial-seed5-trace1" / "spans.jsonl") as fh:
            spans = [json.loads(line) for line in fh]
        by_id = {s["id"]: s for s in spans}
        worker = [s for s in spans if s["name"] in ("llm.transport", "llm.cache_read")]
        self.assertTrue(worker)
        for span in worker:
            parent = span
            while parent["name"] != "llm.fetch":
                self.assertIn(parent["parent"], by_id, span)
                parent = by_id[parent["parent"]]

    def test_benchmark_json_matches_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, tracing.UNITS)
        self.assertEqual(SPEC["workloads"], [{"name": w.name, "why": w.why}
                                             for w in workloads.WORKLOADS.values()])

    def test_fails_without_sources(self):
        bare = TMP / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work"))
        proc = bench("--workload", "train-mid", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)
        shutil.rmtree(bare)


class Checks(unittest.TestCase):
    """The checks reject outputs that differ from what was expected."""

    def setup_smoke(self, name: str) -> workloads.State:
        ws = TMP / name
        shutil.rmtree(ws, ignore_errors=True)
        state = workloads.setup(workloads.get_workload(name, "smoke"), ws, 9, 2)
        self.addCleanup(shutil.rmtree, ws, True)
        self.addCleanup(state.close)
        return state

    def one_pass(self, state) -> tuple[dict, dict]:
        workloads.prepare(state)
        obs = workloads.observe(state, workloads.run_pass(state))
        exp = workloads.expected(state)
        self.assertEqual(workloads.check(obs, exp), [])
        return obs, exp

    def test_wrong_expectations_rejected(self):
        state = self.setup_smoke("train-mid")
        self.assertEqual(workloads.verify_report(state, state.reference), [])
        obs, exp = self.one_pass(state)
        wrong_accuracy = dict(exp, accuracy={**exp["accuracy"], "tap": 1.0})
        self.assertTrue(workloads.check(obs, wrong_accuracy))
        self.assertTrue(workloads.check(obs, dict(exp, descriptions=exp["descriptions"] + 1)))
        self.assertTrue(workloads.check(obs, dict(exp, digests={})))
        self.assertTrue(workloads.verify_report(
            state, dict(obs, accuracy={**obs["accuracy"], "tap": 100.0})))

    def test_wrong_fetch_expectations_rejected(self):
        state = self.setup_smoke("fetch-partial")
        obs, exp = self.one_pass(state)
        self.assertTrue(exp["failed_prompts"])
        self.assertTrue(workloads.check(obs, dict(exp, failed_prompts=[])))
        self.assertTrue(workloads.check(
            obs, dict(exp, descriptions=state.wl.prompts * state.wl.samples)))


class SelfTimes(unittest.TestCase):
    def test_overlapping_children(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
            {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # other thread
            {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
        ]
        self.assertEqual(tracing.self_times(spans), {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5})


if __name__ == "__main__":
    unittest.main()
