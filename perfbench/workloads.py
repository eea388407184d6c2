"""The benchmark's workloads: inputs made from a seed, one timed pass, and checks.

Every workload drives the unmodified package through `textprobe.cli.main`, in
this process. `setup` builds a workspace from the seed and runs the first,
unforced pass, whose outputs are checked independently and become the
reference that every later pass of the same seed must reproduce byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import struct
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from textprobe import cli
from textprobe.evaluate import ALL_METHODS, METHOD_CLIP_DST, METHOD_CLIP_SINGLE, METHOD_TAP
from textprobe.llm import MockTransport, fetch_descriptions, requests_from_prompt_records
from textprobe.prompts import ClassVocabulary, TaskProfile, render_prompts

from server import completion_text

SERVER = Path(__file__).resolve().parent / "server.py"
DOMAINS = ("from a satellite", "as an origami", "in a sketch", "in a painting",
           "as a toy")
ADJECTIVES = ("small", "striped", "glossy", "rough", "pale", "bright", "curved",
              "spotted", "narrow", "heavy")
DST_TEMPLATES = ["a photo of a {class}.", "a close-up photo of a {class}."]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                 # "run-all": run-all --force; "fetch": gen-prompts + fetch
    classes: int
    dim: int
    domains: int              # 0: fine_grained profile, else cross_domain descriptors
    samples: int              # completions per prompt
    images_per_class: int
    steps: int
    learning_rate: float
    sigma_intra: float
    gap: float = 0.5
    noise_sigma: float = 0.1
    # fetch only: share of prompts warm in the cache before each pass, and
    # shares of all prompts that fail once (transient) or always (permanent).
    warm_share: float = 0.0
    transient_share: float = 0.0
    permanent_share: float = 0.0
    latency_s: float = 0.0
    backoff_s: float = 0.05

    @property
    def prompts(self) -> int:
        # Both profile kinds use their two default question templates.
        return self.classes * 2 * max(1, self.domains)

    @property
    def text_rows(self) -> int:
        return self.prompts * self.samples


WORKLOADS = {
    wl.name: wl for wl in (
        Workload(
            name="train-mid",
            why="run-all --force, K=100, d=512, 1800 text rows, 50 steps: training "
                "is most of the pass, and accuracy separates the methods",
            kind="run-all", classes=100, dim=512, domains=3, samples=3,
            images_per_class=50, steps=50, learning_rate=0.02, sigma_intra=0.2,
        ),
        Workload(
            name="ingest-large",
            why="run-all --force, K=200, d=768, 12000 images, 2 steps: synthetic "
                "encode, bundle I/O, five-method eval and classifier JSON dominate",
            kind="run-all", classes=200, dim=768, domains=0, samples=5,
            images_per_class=60, steps=2, learning_rate=0.05, sigma_intra=0.15,
            noise_sigma=0.01,
        ),
        Workload(
            name="fetch-partial",
            why="gen-prompts + fetch against a loopback server with seeded 503s "
                "and a half-warm cache: HTTP, retry and cache writes only; accuracy "
                "from one untimed run-all on the result",
            kind="fetch", classes=100, dim=256, domains=0, samples=5,
            images_per_class=50, steps=30, learning_rate=0.05, sigma_intra=0.2,
            warm_share=0.5, transient_share=0.02, permanent_share=0.01,
            latency_s=0.02,
        ),
    )
}

# Smoke sizes for the self-test: every code path, a fraction of a second each.
SMOKE = {
    "train-mid": dict(classes=8, dim=32, domains=2, samples=2,
                      images_per_class=10, steps=5, learning_rate=0.05),
    "ingest-large": dict(classes=20, dim=48, samples=2, images_per_class=5),
    "fetch-partial": dict(classes=50, dim=16, samples=2, images_per_class=5,
                          steps=5, latency_s=0.002, backoff_s=0.01),
}


def get_workload(name: str, scale: str = "full") -> Workload:
    wl = WORKLOADS[name]
    return replace(wl, **SMOKE[name]) if scale == "smoke" else wl


# -- helpers ------------------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one textprobe subcommand in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _read_matrix(path: Path) -> np.ndarray:
    """A bundle's matrix, read from the documented layout without textprobe."""
    raw = path.read_bytes()
    magic, _, dim, count = struct.unpack_from("<4sIIQ", raw)
    if magic != b"TAPE":
        raise ValueError(f"{path}: not a bundle")
    return np.frombuffer(raw, dtype="<f4", offset=20).reshape(count, dim).astype(np.float64)


def _labels(path: Path) -> np.ndarray:
    doc = json.loads(Path(str(path) + ".manifest.json").read_text(encoding="utf-8"))
    return np.asarray(doc["labels"], dtype=np.int64)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -- workspaces -----------------------------------------------------------------------

@dataclass
class State:
    """A set-up workspace plus what every pass on it must reproduce."""

    wl: Workload
    ws: Path
    seed: int
    nproc: int
    reference: dict
    server: "Server | None" = None
    passes: int = 0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def _scaffold(wl: Workload, ws: Path, seed: int) -> tuple[ClassVocabulary, TaskProfile]:
    ws.mkdir(parents=True)
    rng = random.Random(seed)
    names = [f"{rng.choice(ADJECTIVES)}_{i:04d}" for i in range(wl.classes)]
    vocab = ClassVocabulary(tuple(names))
    if wl.domains:
        profile = TaskProfile(task_name=wl.name, shift_kind="cross_domain",
                              domain_descriptors=DOMAINS[:wl.domains])
    else:
        profile = TaskProfile(task_name=wl.name, shift_kind="fine_grained",
                              superclass_token="object")
    _write_json(ws / "classes.json", names)
    _write_json(ws / "profile.json", profile.to_dict())
    _write_json(ws / "manifest.json", {
        "dataset_name": wl.name,
        "seed": seed,
        "task_profile": "profile.json",
        "classes": "classes.json",
        "prompts": "prompts.jsonl",
        "descriptions": "descriptions.jsonl",
        "cache": "cache",
        "llm": {"samples_per_prompt": wl.samples},
        "synthetic_space": {"dimension": wl.dim, "classes": wl.classes,
                            "sigma_intra": wl.sigma_intra, "gap": wl.gap,
                            "seed": seed},
        "image_samples_per_class": wl.images_per_class,
        "text_bundle": "text.tape",
        "image_bundle": "images.tape",
        "class_name_bundle": "classnames.tape",
        "dst_bundle": "dst.tape",
        "dst_templates": DST_TEMPLATES,
        "train": {"steps": wl.steps, "learning_rate": wl.learning_rate,
                  "noise_sigma": wl.noise_sigma, "label_smoothing": 0.1},
        "methods": list(ALL_METHODS),
        "classifier": "classifier.json",
        "report": "report.json",
        **({"fixture": "fixture.jsonl"} if wl.kind == "run-all" else {}),
    })
    return vocab, profile


def setup(wl: Workload, ws: Path, seed: int, nproc: int) -> State:
    """Build the workspace, start what the workload needs, run the first pass."""
    state = State(wl=wl, ws=ws, seed=seed, nproc=nproc, reference={})
    try:
        if wl.kind == "run-all":
            _setup_run_all(state)
        else:
            _setup_fetch(state)
    except BaseException:
        state.close()  # the caller never sees this state, so stop its server here
        raise
    return state


def run_pass(state: State):
    """One timed pass; `observe` turns its result into what the checks need."""
    state.passes += 1
    if state.wl.kind == "run-all":
        return _pass_run_all(state)
    return _pass_fetch(state)


def prepare(state: State) -> None:
    """Untimed work before each pass."""
    if state.wl.kind == "fetch":
        cache = state.ws / "cache"
        shutil.rmtree(cache)
        shutil.copytree(state.ws / "cache.warm", cache)


# -- run-all workloads ------------------------------------------------------------------

def _setup_run_all(state: State) -> None:
    wl, ws, seed = state.wl, state.ws, state.seed
    vocab, profile = _scaffold(wl, ws, seed)
    rng = random.Random(seed + 1)
    with open(ws / "fixture.jsonl", "w", encoding="utf-8") as fh:
        for p in render_prompts(profile, vocab):
            for i in range(wl.samples):
                fh.write(json.dumps({
                    "prompt_id": p.prompt_id, "class_id": p.class_id,
                    "class_name": p.class_name, "sample_index": i,
                    "text": f"a {rng.choice(ADJECTIVES)} {p.class_name}, "
                            f"answer {i} to: {p.rendered_text}",
                }, sort_keys=True) + "\n")
    # The unforced first pass fetches through the fixture and so warms the cache.
    state.reference = _observe_run_all(state, *run_cli(["run-all", "--manifest",
                                                        str(ws / "manifest.json")]))


def _pass_run_all(state: State) -> tuple:
    return run_cli(["run-all", "--manifest", str(state.ws / "manifest.json"), "--force"])


def _observe_run_all(state: State, code: int, stderr: str) -> dict:
    ws = state.ws
    if code != 0:
        return {"exit": code, "stderr": stderr[-2000:]}
    report = json.loads((ws / "report.json").read_text(encoding="utf-8"))
    return {
        "exit": code,
        "accuracy": {r["method"]: r["accuracy"] for r in report["rows"]},
        "sample_count": {r["method"]: r["sample_count"] for r in report["rows"]},
        "descriptions": count_lines(ws / "descriptions.jsonl"),
        "prompts": count_lines(ws / "prompts.jsonl"),
        "failed_prompts": [],
        "digests": {name: digest(ws / name) for name in
                    ("text.tape", "images.tape", "descriptions.jsonl", "classifier.json")},
    }


def verify_report(state: State, obs: dict) -> list[str]:
    """Check a run-all report against accuracies recomputed here from its files."""
    wl, ws = state.wl, state.ws
    errors = []
    if sorted(obs["accuracy"]) != sorted(ALL_METHODS):
        return [f"report methods {sorted(obs['accuracy'])} != {sorted(ALL_METHODS)}"]
    images = _unit_rows(_read_matrix(ws / "images.tape"))
    labels = _labels(ws / "images.tape")
    if images.shape != (wl.classes * wl.images_per_class, wl.dim):
        errors.append(f"image bundle shape {images.shape}")
    text_rows = count_lines(ws / "descriptions.jsonl")
    if _read_matrix(ws / "text.tape").shape != (text_rows, wl.dim):
        errors.append("text bundle rows do not match the descriptions")

    clf = json.loads((ws / "classifier.json").read_text(encoding="utf-8"))
    w = np.asarray(clf["weights"], dtype=np.float64).reshape(wl.classes, wl.dim)
    tap = 100.0 * np.mean(np.argmax(images @ w.T + np.asarray(clf["bias"]), axis=1) == labels)
    dst_rows = _unit_rows(_read_matrix(ws / "dst.tape"))
    dst_labels = _labels(ws / "dst.tape")
    means = _unit_rows(np.stack([dst_rows[dst_labels == c].mean(axis=0)
                                 for c in range(wl.classes)]))
    dst = 100.0 * np.mean(np.argmax(images @ means.T, axis=1) == labels)
    for method, expected in ((METHOD_TAP, tap), (METHOD_CLIP_DST, dst)):
        # Equal up to a few rows whose two best scores tie within rounding.
        if abs(obs["accuracy"][method] - expected) > 300.0 / len(labels):
            errors.append(f"{method} accuracy {obs['accuracy'][method]} != "
                          f"{expected} recomputed from the bundles")
    for method, count in obs["sample_count"].items():
        if count != len(labels):
            errors.append(f"{method} scored {count} images, bundle has {len(labels)}")
    chance = 100.0 / wl.classes
    if not chance < obs["accuracy"][METHOD_TAP] < 100.0:
        errors.append(f"tap accuracy {obs['accuracy'][METHOD_TAP]} is not strictly "
                      f"between chance ({chance:.2f}) and 100")
    return errors


def headline(obs: dict) -> tuple[float, float]:
    """(tap accuracy, tap minus the best similarity baseline), in percent."""
    acc = obs["accuracy"]
    return acc[METHOD_TAP], acc[METHOD_TAP] - max(acc[METHOD_CLIP_SINGLE],
                                                  acc[METHOD_CLIP_DST])


# -- fetch workload -----------------------------------------------------------------------

class Server:
    """The loopback completion server process; always stopped by `stop`."""

    def __init__(self, plan_path: Path, latency: float, slots: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER), "--plan", str(plan_path),
             "--latency", str(latency), "--slots", str(slots)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("port "):
                raise RuntimeError(f"completion server did not start: {line!r}")
            self.port = int(line.split()[1])
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def fault_plan(wl: Workload, prompts: list, seed: int) -> dict:
    """Seeded split of the prompts into warm, permanently and transiently failing.

    Faults fall on cold prompts only (warm ones never reach the server), and at
    most one permanent failure per class, so every class keeps descriptions.
    """
    rng = random.Random(seed)
    order = list(range(len(prompts)))
    rng.shuffle(order)
    n_warm = round(wl.warm_share * len(prompts))
    warm, cold = order[:n_warm], order[n_warm:]
    permanent: dict[int, int] = {}  # class id -> prompt index
    for i in cold:
        if len(permanent) == round(wl.permanent_share * len(prompts)):
            break
        permanent.setdefault(prompts[i].class_id, i)
    failing = set(permanent.values())
    transient = [i for i in cold if i not in failing][:round(wl.transient_share * len(prompts))]
    return {
        "warm": sorted(warm),
        "permanent": sorted(prompts[i].rendered_text for i in failing),
        "transient": sorted(prompts[i].rendered_text for i in transient),
        "permanent_ids": sorted(prompts[i].prompt_id for i in failing),
    }


def _setup_fetch(state: State) -> None:
    wl, ws, seed = state.wl, state.ws, state.seed
    vocab, profile = _scaffold(wl, ws, seed)
    prompts = render_prompts(profile, vocab)
    plan = fault_plan(wl, prompts, seed)
    _write_json(ws / "plan.json", plan)
    records = [{"prompt_id": p.prompt_id, "class_id": p.class_id,
                "class_name": p.class_name, "text": p.rendered_text}
               for p in (prompts[i] for i in plan["warm"])]
    reqs = requests_from_prompt_records(records, samples_per_prompt=wl.samples)
    replies = MockTransport(lambda r: [completion_text(r.prompt_text, i)
                                       for i in range(r.samples_per_prompt)])
    fetch_descriptions(reqs, replies, ws / "cache.warm")
    shutil.copytree(ws / "cache.warm", ws / "cache")
    state.reference["plan"] = plan
    state.server = Server(ws / "plan.json", wl.latency_s, state.nproc)
    state.reference.update(_observe_fetch(state, _pass_fetch(state)))


def _pass_fetch(state: State) -> list[tuple[int, str]]:
    ws, wl = state.ws, state.wl
    url = f"http://127.0.0.1:{state.server.port}/complete/{state.passes}"
    return [
        run_cli(["gen-prompts", "--profile", str(ws / "profile.json"),
                 "--classes", str(ws / "classes.json"),
                 "--out", str(ws / "prompts.jsonl")]),
        run_cli(["fetch", "--prompts", str(ws / "prompts.jsonl"), "--endpoint", url,
                 "--cache", str(ws / "cache"), "--samples", str(wl.samples),
                 "--max-in-flight", str(state.nproc), "--backoff", str(wl.backoff_s),
                 "--allow-partial", "--out", str(ws / "descriptions.jsonl")]),
    ]


def _observe_fetch(state: State, results: list[tuple[int, str]]) -> dict:
    ws = state.ws
    codes = [code for code, _ in results]
    if any(codes):
        return {"exit": max(codes), "stderr": results[-1][1][-2000:]}
    failed = sorted(line.split()[1].rstrip(":") for line in results[-1][1].splitlines()
                    if line.startswith("failed "))
    return {
        "exit": 0,
        "descriptions": count_lines(ws / "descriptions.jsonl"),
        "prompts": count_lines(ws / "prompts.jsonl"),
        "failed_prompts": failed,
        "digests": {name: digest(ws / name)
                    for name in ("prompts.jsonl", "descriptions.jsonl")},
    }


def downstream(state: State) -> tuple[dict, list[str]]:
    """Train and evaluate on what the fetch produced (run-all, stages 3-5 only)."""
    obs = _observe_run_all(state, *run_cli(["run-all", "--manifest",
                                            str(state.ws / "manifest.json")]))
    if obs["exit"] != 0:
        return obs, [f"run-all on the fetched descriptions exited {obs['exit']}"]
    return obs, verify_report(state, obs)


# -- checks ---------------------------------------------------------------------------------

def expected(state: State) -> dict:
    """What every pass must produce, from the sizes, the seed and the reference."""
    wl, ref = state.wl, state.reference
    failed = ref["plan"]["permanent_ids"] if wl.kind == "fetch" else []
    return {
        "exit": 0,
        "prompts": wl.prompts,
        "descriptions": (wl.prompts - len(failed)) * wl.samples,
        "failed_prompts": failed,
        "accuracy": ref.get("accuracy"),
        "digests": ref.get("digests"),
    }


def check(obs: dict, exp: dict) -> list[str]:
    """Differences between one pass's outputs and what was expected."""
    if obs["exit"] != exp["exit"]:
        return [f"exit code {obs['exit']}: {obs.get('stderr', '')}"]
    errors = []
    for key in ("prompts", "descriptions", "failed_prompts", "accuracy", "digests"):
        if key in obs and obs[key] != exp[key]:
            errors.append(f"{key}: got {obs[key]!r}, expected {exp[key]!r}")
    return errors


def observe(state: State, result) -> dict:
    if state.wl.kind == "run-all":
        return _observe_run_all(state, *result)
    return _observe_fetch(state, result)


def sizes(state: State) -> dict:
    wl, ws = state.wl, state.ws
    doc = {"K": wl.classes, "d": wl.dim, "prompts": wl.prompts, "samples": wl.samples,
           "text_rows": wl.text_rows, "image_rows": wl.classes * wl.images_per_class,
           "steps": wl.steps}
    for name in ("text.tape", "images.tape", "classifier.json"):
        if (ws / name).is_file():
            doc[f"{name}_bytes"] = (ws / name).stat().st_size
    if wl.kind == "fetch":
        plan = state.reference["plan"]
        doc.update(warm_prompts=len(plan["warm"]), permanent_prompts=len(plan["permanent"]),
                   transient_prompts=len(plan["transient"]), latency_s=wl.latency_s)
    return doc
