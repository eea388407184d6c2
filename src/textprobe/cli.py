"""Command-line pipeline: prompts -> descriptions -> training -> evaluation.

Each stage reads and writes files, so externally produced embedding bundles
can be spliced in at any point. `main` returns 0 on success and otherwise
the `exit_code` of the error class raised (see errors.py).
Status goes to stderr; stdout carries data (tables, CSV, JSON) only.

Every stage is one `_*_stage` function from resolved inputs to one written
file that returns its status line. Its subcommand maps flags onto those
inputs, and `run-all` maps manifest keys onto them and runs the stages in
one loop, so both run the same code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

from .atomic import atomic_write, read_json, write_jsonl
from .data import (
    SyntheticSpaceConfig,
    build_text_dataset,
    class_name_items,
    description_items,
    read_bundle,
    read_text_dataset_jsonl,
    synthetic_bundle,
    synthetic_encode,
    write_bundle,
    write_text_dataset_jsonl,
    TextDataset,
)
from .errors import (
    EmptyDataset,
    InvalidConfig,
    MissingInput,
    ShapeMismatch,
    TextProbeError,
    _at_least,
    _checked,
    _flag,
    _float,
    _integer,
    _object,
    _string,
    _strings,
)
from .evaluate import (
    ALL_METHODS,
    EvalReport,
    METHOD_CLIP_DST,
    METHOD_CLIP_SINGLE,
    METHOD_TAP,
    METHOD_TOT_CLS,
    METHOD_TOT_DST,
    PseudoLabelConfig,
    class_text_embeddings_from_bundle,
    evaluate_classifier,
    evaluate_zero_shot,
    pseudo_label_refine,
    render_report,
    template_items,
    train_tot_cls,
    train_tot_dst,
)
from .llm import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_SAMPLES_PER_PROMPT,
    DEFAULT_SAMPLING_TEMPERATURE,
    FixtureTransport,
    HttpTransport,
    fetch_descriptions,
    fetch_descriptions_partial,
    load_fixture_descriptions,
    requests_from_prompt_records,
    write_descriptions_jsonl,
)
from .prompts import (
    ClassVocabulary,
    DEFAULT_GENERIC_TEMPLATES,
    TaskProfile,
    read_prompts_jsonl,
    render_generic_prompts,
    render_prompts,
    write_prompts_jsonl,
)
from .train import LinearClassifier, TrainConfig, train_text_classifier


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _require_file(path, flag: str) -> Path:
    if not path:
        raise MissingInput(f"{flag} is required for this invocation")
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"{flag}: no such file: {p}")
    return p


def _read_images(path, flag: str):
    """The image bundle to score; one with no rows exits 2 before any scoring."""
    images = read_bundle(_require_file(path, flag))
    if images.count == 0:
        raise EmptyDataset(f"{path}: image bundle has no rows to evaluate")
    return images


def _write_json(path, doc, **options) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, indent=2, **options) + "\n")


def stage_seed(master: int, stage: str) -> int:
    """Fan a master seed out to per-stage sub-seeds by stage-name hashing."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


# -- stages ------------------------------------------------------------------------
#
# An input file that may be missing is passed as a (path, name) pair, so the
# error names the flag or the manifest key it came from.

def _prompts_stage(vocab, profile, out, generic=False,
                   templates=DEFAULT_GENERIC_TEMPLATES, task_name="generic") -> str:
    if generic:
        prompts = render_generic_prompts(vocab, templates, task_name=task_name)
    else:
        prompts = render_prompts(TaskProfile.from_file(_require_file(*profile)), vocab)
    write_prompts_jsonl(prompts, out)
    return f"wrote {len(prompts)} prompts over {len(vocab)} classes to {out}"


def _transport(fixture, endpoint):
    if fixture[0]:
        return FixtureTransport(_require_file(*fixture))
    if endpoint[0]:
        return HttpTransport(endpoint[0])
    raise MissingInput(f"the fetch stage needs {endpoint[1]} or {fixture[1]}")


def _fetch_stage(prompts, fixture, endpoint, cache, out, llm: dict,
                 allow_partial=False, **options) -> str:
    """Descriptions for every prompt; `llm` holds the sampling parameters and
    `options` the fetch options. With `allow_partial`, failed prompts are
    listed and skipped instead of failing the stage."""
    reqs = requests_from_prompt_records(read_prompts_jsonl(_require_file(*prompts)), **llm)
    transport = _transport(fixture, endpoint)
    if allow_partial:
        descs, failures = fetch_descriptions_partial(reqs, transport, cache, **options)
    else:
        descs, failures = fetch_descriptions(reqs, transport, cache, **options), []
    write_descriptions_jsonl(descs, out)
    for failure in failures:
        _status(f"failed {failure.prompt_id}: {failure.message}")
    by_source = sorted(Counter(d.source for d in descs).items())
    parts = " ".join(f"{k}={v}" for k, v in by_source) or "none"
    note = f" ({len(failures)} prompt(s) skipped)" if failures else ""
    return f"wrote {len(descs)} descriptions to {out} [{parts}]{note}"


def _bundle_stage(space, modality, out, items=None, per_class=None) -> str:
    """Encode (text, class id) `items` in the synthetic space, or draw
    `per_class` samples of every class when there are none."""
    if space is None:
        raise MissingInput(f"{out} is missing and there is no synthetic_space to make it")
    if items is None:
        bundle = synthetic_bundle(space, per_class, modality=modality)
    else:
        bundle = synthetic_encode(items, space, modality=modality)
    write_bundle(bundle, out)
    return f"wrote {bundle.count} x {bundle.dimension} {modality} bundle to {out}"


def _read_text_bundle(path, name: str, dataset: TextDataset):
    """Read the text bundle a head trains on; labelled rows must follow the
    dataset's item order, so row i embeds item i."""
    bundle = read_bundle(_require_file(path, name))
    if bundle.labels is not None and list(bundle.labels) != [c for _, c in dataset.items]:
        raise ShapeMismatch(
            f"{name}: text bundle labels do not align with the dataset item order"
        )
    return bundle


def _train_stage(dataset, bundle, cfg: TrainConfig, out) -> str:
    clf = train_text_classifier(dataset, bundle, cfg)
    clf.save(out)
    return (f"trained {clf.num_classes}-class head on {len(dataset)} texts "
            f"({cfg.steps} steps), final loss {clf.train_meta['final_loss']:.6f}")


# The input file each evaluation method reads: the trained head, the class-name
# bundle or the template bundle.
_METHOD_INPUT = {
    METHOD_TAP: "classifier",
    METHOD_CLIP_SINGLE: "class_embeddings",
    METHOD_CLIP_DST: "dst_embeddings",
    METHOD_TOT_CLS: "class_embeddings",
    METHOD_TOT_DST: "dst_embeddings",
}


def _check_methods(methods) -> list[str]:
    if not methods or any(m not in ALL_METHODS for m in methods):
        raise InvalidConfig(
            f"methods must name one or more of {', '.join(ALL_METHODS)}, got {methods!r}"
        )
    return list(methods)


def _eval_stage(methods, images, inputs: dict, vocab, train_cfg, dst_templates,
                dataset_name, config: dict, out=None, fmt="table") -> str:
    """Score each method on the image bundle, in order; save the report to
    `out` when given and print it to stdout.

    `inputs` maps each `_METHOD_INPUT` key to a (path, name) pair. The tot
    methods train a baseline head over `vocab` with `train_cfg`. `config` is
    added to the report's config block.
    """
    images = _read_images(*images)
    rows = []
    for method in methods:
        path, name = inputs[_METHOD_INPUT[method]]
        path = _require_file(path, f"{name} (method {method})")
        if method in (METHOD_CLIP_SINGLE, METHOD_CLIP_DST):
            embs = class_text_embeddings_from_bundle(read_bundle(path))
            rows.append(evaluate_zero_shot(embs, images, method, dataset_name))
            continue
        if method == METHOD_TAP:
            clf = LinearClassifier.load(path)
        elif method == METHOD_TOT_CLS:
            clf = train_tot_cls(vocab, read_bundle(path), train_cfg)
        else:
            clf = train_tot_dst(vocab, read_bundle(path), train_cfg, dst_templates)
        rows.append(evaluate_classifier(clf, images, method, dataset_name))
    report = EvalReport(rows=rows, config={"methods": list(methods),
                                           "dataset": dataset_name, **config})
    if out:
        report.save(out)
    print(render_report(report, fmt), end="")
    saved = f", wrote report to {out}" if out else ""
    return f"scored {len(rows)} method(s) on {images.count} images{saved}"


# -- subcommands -------------------------------------------------------------------

def cmd_gen_prompts(args) -> None:
    vocab = ClassVocabulary.from_file(_require_file(args.classes, "--classes"))
    _status(_prompts_stage(vocab, (args.profile, "--profile (or --generic)"), args.out,
                           args.generic, args.template or DEFAULT_GENERIC_TEMPLATES,
                           args.task_name))


def cmd_fetch(args) -> None:
    llm = dict(samples_per_prompt=args.samples, max_tokens=args.max_tokens,
               sampling_temperature=args.temperature)
    _status(_fetch_stage(
        (args.prompts, "--prompts"), (args.fixture, "--fixture"),
        (args.endpoint, "--endpoint"), args.cache, args.out, llm, args.allow_partial,
        max_in_flight=args.max_in_flight, retries=args.retries, backoff_base=args.backoff,
    ))


def _train_config_from_args(args) -> TrainConfig:
    base: dict = {}
    if getattr(args, "train_config", None):
        base = read_json(_require_file(args.train_config, "--config"),
                         functools.partial(_object, "--config"))
    overrides = {
        "learning_rate": args.lr,
        "steps": args.steps,
        "label_smoothing": args.smoothing,
        "noise_sigma": args.sigma,
        "weight_decay": args.weight_decay,
        "seed": args.seed,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    return TrainConfig.from_dict(base)


def cmd_train(args) -> None:
    cfg = _train_config_from_args(args)
    if args.synthetic:
        space = SyntheticSpaceConfig(
            dimension=args.synth_dim,
            classes=args.synth_classes,
            sigma_intra=args.synth_sigma,
            gap=args.synth_gap,
            seed=cfg.seed,
        )
        vocab = ClassVocabulary(tuple(f"class_{i:02d}" for i in range(space.classes)))
        items = [
            (f"synthetic description {j} of {vocab.name_of(c)}", c)
            for c in range(space.classes)
            for j in range(args.synth_samples)
        ]
        dataset = TextDataset(items=items, vocab=vocab)
        bundle = synthetic_encode(items, space, modality="text")
        # The space and the weight init would otherwise share one stream, and
        # the initial weights would be the class means scaled by 1/sqrt(d).
        cfg = replace(cfg, seed=stage_seed(cfg.seed, "train"))
    else:
        vocab = ClassVocabulary.from_file(_require_file(args.classes, "--classes"))
        if args.text_dataset:
            dataset = read_text_dataset_jsonl(
                _require_file(args.text_dataset, "--text-dataset"), vocab
            )
        elif args.descriptions:
            descs = load_fixture_descriptions(
                _require_file(args.descriptions, "--descriptions")
            )
            dataset = build_text_dataset(
                descs, vocab, allow_missing_classes=args.allow_missing_classes
            )
        else:
            raise MissingInput("provide --descriptions, --text-dataset, or --synthetic")
        bundle = _read_text_bundle(args.text_bundle, "--text-bundle", dataset)
    if args.dataset_out:
        write_text_dataset_jsonl(dataset, args.dataset_out)
    _status(_train_stage(dataset, bundle, cfg, args.out))


def cmd_eval(args) -> None:
    methods = _check_methods([m.strip() for m in args.methods.split(",") if m.strip()])
    vocab = cfg = None
    tot = [m for m in methods if m in (METHOD_TOT_CLS, METHOD_TOT_DST)]
    if tot:
        vocab = ClassVocabulary.from_file(
            _require_file(args.classes, f"--classes (method {tot[0]})")
        )
        cfg = _train_config_from_args(args)
    inputs = {
        "classifier": (args.classifier, "--classifier"),
        "class_embeddings": (args.class_embeddings, "--class-embeddings"),
        "dst_embeddings": (args.dst_embeddings, "--dst-embeddings"),
    }
    _status(_eval_stage(methods, (args.images, "--images"), inputs, vocab, cfg,
                        args.dst_template, args.dataset_name, {"images": str(args.images)},
                        args.out, args.format))


def cmd_refine(args) -> None:
    clf = LinearClassifier.load(_require_file(args.classifier, "--classifier"))
    unlabeled = read_bundle(_require_file(args.unlabeled, "--unlabeled"))
    # Read before refining, so a bad --eval-images writes no --out.
    images = _read_images(args.eval_images, "--eval-images") if args.eval_images else None
    plcfg = PseudoLabelConfig(
        confidence_threshold=args.threshold,
        refine_steps=args.steps,
        refine_lr=args.lr,
    )
    refined = pseudo_label_refine(clf, unlabeled, plcfg)
    refined.save(args.out)
    kept = refined.train_meta.get("refine", {}).get("kept", 0)
    delta_doc = {"kept": kept, "threshold": args.threshold}
    if images is not None:
        initial = evaluate_classifier(clf, images, "initial", args.dataset_name)
        after = evaluate_classifier(refined, images, "refined", args.dataset_name)
        delta_doc.update(
            initial_accuracy=initial.accuracy,
            refined_accuracy=after.accuracy,
            delta=after.accuracy - initial.accuracy,
        )
        _status(
            f"accuracy {initial.accuracy:.2f} -> {after.accuracy:.2f} "
            f"(delta {after.accuracy - initial.accuracy:+.2f}, kept {kept})"
        )
    else:
        _status(f"refined on {kept} pseudo-labeled images")
    print(json.dumps(delta_doc, sort_keys=True))


def _space_from_args(args) -> SyntheticSpaceConfig:
    if getattr(args, "space", None):
        return read_json(_require_file(args.space, "--space"), SyntheticSpaceConfig.from_dict)
    return SyntheticSpaceConfig(**{f.name: getattr(args, f.name)
                                   for f in fields(SyntheticSpaceConfig)})


def cmd_synth_space(args) -> None:
    space = _space_from_args(args)
    items = None
    if args.from_descriptions:
        items = description_items(load_fixture_descriptions(
            _require_file(args.from_descriptions, "--from-descriptions")
        ))
    elif args.from_classes:
        vocab = ClassVocabulary.from_file(_require_file(args.from_classes, "--from-classes"))
        if len(vocab) != space.classes:
            raise ShapeMismatch(
                f"vocabulary has {len(vocab)} classes, space declares {space.classes}"
            )
        items = class_name_items(vocab)
    elif args.per_class is None:
        raise MissingInput("provide --per-class, --from-descriptions, or --from-classes")
    _status(_bundle_stage(space, args.modality, args.out, items, args.per_class))


# -- run-all -----------------------------------------------------------------------

def _path(key, value) -> Path:
    return Path(_string(key, value))


# The manifest's `llm` block: `requests_from_prompt_records` keywords.
_LLM_KEYS = {
    "samples_per_prompt": (_at_least(1), DEFAULT_SAMPLES_PER_PROMPT),
    "max_tokens": (_at_least(1), DEFAULT_MAX_TOKENS),
    "sampling_temperature": (_at_least(0, _float), DEFAULT_SAMPLING_TEMPERATURE),
}

# Every manifest key: the check that turns its JSON value into the one run-all
# uses, and its default. Paths resolve against `workspace`, whose default is
# the manifest's directory.
_MANIFEST = {
    "workspace": (_string, None),
    "dataset_name": (_string, "dataset"),
    "seed": (_integer, 0),
    "task_profile": (_path, None),
    "classes": (_path, "classes.json"),
    "prompts": (_path, "prompts.jsonl"),
    "descriptions": (_path, "descriptions.jsonl"),
    "fixture": (_path, None),
    "endpoint": (_string, None),
    "cache": (_path, None),
    "llm": (lambda key, value: _checked(value, _LLM_KEYS, key + "."), {}),
    "synthetic_space": (lambda key, value: SyntheticSpaceConfig.from_dict(value, key + "."),
                        None),
    "image_samples_per_class": (_at_least(1), 50),
    "text_bundle": (_path, "text.tape"),
    "image_bundle": (_path, "images.tape"),
    "class_name_bundle": (_path, None),
    "dst_bundle": (_path, None),
    "dst_templates": (_strings, []),
    "train": (_object, {}),
    "methods": (lambda key, value: _check_methods(_strings(key, value)), [METHOD_TAP]),
    "classifier": (_path, "classifier.json"),
    "report": (_path, "report.json"),
    "markers": (_path, ".stage_markers.json"),
    "generic": (_flag, False),
}


def _load_manifest(path: Path) -> SimpleNamespace:
    """The manifest's checked values, one attribute per `_MANIFEST` key."""
    values = read_json(path, lambda doc: _checked(doc, _MANIFEST))
    ws = path.parent / (values["workspace"] or "")
    for key, (check, _) in _MANIFEST.items():
        if check is _path and values[key] is not None:
            values[key] = ws / values[key]
    return SimpleNamespace(**values)


def _read_markers(path: Path) -> dict:
    """run-all's record of finished stages; one it cannot read starts afresh."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return doc if isinstance(doc, dict) else {}


def cmd_run_all(args) -> None:
    m = _load_manifest(_require_file(args.manifest, "--manifest"))
    vocab = ClassVocabulary.from_file(_require_file(m.classes, "classes"))
    train_cfg = TrainConfig.from_dict({"seed": stage_seed(m.seed, "train"), **m.train}, "train.")
    dst_templates = m.dst_templates or list(DEFAULT_GENERIC_TEMPLATES)
    # Built at most once: the text bundle and the head share it, so their rows align.
    dataset = functools.cache(lambda: build_text_dataset(
        load_fixture_descriptions(_require_file(m.descriptions, "descriptions")), vocab))
    # (stage, output, run); an existing output is up to date unless --force.
    # Bundles are synthesized when a synthetic space is configured and must
    # exist otherwise; the class-name and template bundles only when a listed
    # method reads them. Eval has no output to check: it always runs.
    stages = [
        ("gen-prompts", m.prompts, lambda: _prompts_stage(
            vocab, (m.task_profile, "task_profile"), m.prompts, m.generic)),
        ("fetch", m.descriptions, lambda: _fetch_stage(
            (m.prompts, "prompts"), (m.fixture, "fixture"), (m.endpoint, "endpoint"),
            m.cache, m.descriptions, m.llm)),
        ("bundles", m.text_bundle, lambda: _bundle_stage(
            m.synthetic_space, "text", m.text_bundle, dataset().items)),
        ("bundles", m.image_bundle, lambda: _bundle_stage(
            m.synthetic_space, "image", m.image_bundle,
            per_class=m.image_samples_per_class)),
    ]
    read = {_METHOD_INPUT[method] for method in m.methods}
    if m.class_name_bundle and "class_embeddings" in read:
        stages.append(("bundles", m.class_name_bundle, lambda: _bundle_stage(
            m.synthetic_space, "text", m.class_name_bundle, class_name_items(vocab))))
    if m.dst_bundle and "dst_embeddings" in read:
        stages.append(("bundles", m.dst_bundle, lambda: _bundle_stage(
            m.synthetic_space, "text", m.dst_bundle, template_items(vocab, dst_templates))))
    stages += [
        ("train", m.classifier, lambda: _train_stage(
            dataset(), _read_text_bundle(m.text_bundle, "text_bundle", dataset()),
            train_cfg, m.classifier)),
        ("eval", None, lambda: _eval_stage(m.methods, (m.image_bundle, "image_bundle"), {
            "classifier": (m.classifier, "classifier"),
            "class_embeddings": (m.class_name_bundle, "class_name_bundle"),
            "dst_embeddings": (m.dst_bundle, "dst_bundle"),
        }, vocab, train_cfg, dst_templates, m.dataset_name,
            {"seed": m.seed, "train": train_cfg.to_dict()}, m.report)),
    ]
    markers = _read_markers(m.markers)
    for i, (stage, out, run) in enumerate(stages):
        if args.force or out is None or not out.is_file():
            _status(f"[{stage}] {run()}")
        else:
            _status(f"[{stage}] {out} is up to date")
        if i + 1 == len(stages) or stages[i + 1][0] != stage:  # the stage's last step
            markers[stage] = True
            _write_json(m.markers, markers, sort_keys=True)


# -- demo ---------------------------------------------------------------------------

def cmd_demo(args) -> None:
    """Scaffold a self-contained synthetic workspace for run-all."""
    space = _space_from_args(args)
    manifest = {
        "dataset_name": "synthetic-demo",
        "seed": space.seed,
        "task_profile": "profile.json",
        "classes": "classes.json",
        "prompts": "prompts.jsonl",
        "descriptions": "descriptions.jsonl",
        "fixture": "fixture.jsonl",
        "cache": "cache",
        "llm": {"samples_per_prompt": args.samples},
        "synthetic_space": space.to_dict(),
        "image_samples_per_class": args.image_samples,
        "text_bundle": "text.tape",
        "image_bundle": "images.tape",
        "class_name_bundle": "classnames.tape",
        "dst_bundle": "dst.tape",
        "dst_templates": ["a photo of a {class}.", "a close-up photo of a {class}."],
        "train": {"steps": args.steps, "noise_sigma": 0.1, "label_smoothing": 0.1},
        "methods": list(ALL_METHODS),
        "classifier": "classifier.json",
        "report": "report.json",
    }
    _checked(manifest, _MANIFEST)  # a flag run-all would reject creates nothing
    ws = Path(args.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    names = [f"class_{i:02d}" for i in range(space.classes)]
    _write_json(ws / "classes.json", names)
    profile = TaskProfile(
        task_name="synthetic-demo",
        shift_kind="fine_grained",
        superclass_token="object",
    )
    _write_json(ws / "profile.json", profile.to_dict())
    write_jsonl(ws / "fixture.jsonl", ({
        "prompt_id": p.prompt_id,
        "class_id": p.class_id,
        "class_name": p.class_name,
        "sample_index": i,
        "text": f"a {p.class_name} object, deterministic variant {i} "
                f"for template {p.template_index}",
    } for p in render_prompts(profile, ClassVocabulary(tuple(names)))
        for i in range(args.samples)))
    _write_json(ws / "manifest.json", manifest)
    _status(f"demo workspace ready: {ws}")
    _status(f"next: textprobe run-all --manifest {ws / 'manifest.json'}")


# -- parser ------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", dest="train_config", help="TrainConfig JSON file")
    p.add_argument("--lr", type=float, default=None, help="learning rate")
    p.add_argument("--steps", type=int, default=None, help="optimization steps")
    p.add_argument("--smoothing", type=float, default=None, help="label smoothing in [0,1)")
    p.add_argument("--sigma", type=float, default=None, help="training noise sigma")
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)


def _add_space_flags(p: argparse.ArgumentParser) -> None:
    """The synthetic space of synth-space and demo; each dest is a field name."""
    p.add_argument("--dim", dest="dimension", type=int, default=128)
    p.add_argument("--classes-count", dest="classes", type=int, default=10)
    p.add_argument("--sigma-intra", type=float, default=0.1)
    p.add_argument("--gap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textprobe",
        description="Text-only training of zero-shot visual classifiers.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-prompts", help="expand a task profile into prompts")
    p.add_argument("--profile", help="TaskProfile JSON file")
    p.add_argument("--classes", required=True, help="class names JSON file")
    p.add_argument("--out", required=True, help="output prompts JSONL")
    p.add_argument("--generic", action="store_true",
                   help="task-agnostic templates, no targeting")
    p.add_argument("--template", action="append",
                   help="generic template override (repeatable)")
    p.add_argument("--task-name", default="generic")
    p.set_defaults(func=cmd_gen_prompts)

    p = sub.add_parser("fetch", help="fetch descriptions for rendered prompts")
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--endpoint", help="completion endpoint URL")
    p.add_argument("--fixture", help="JSONL fixture replay file")
    p.add_argument("--cache", help="cache directory")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES_PER_PROMPT)
    p.add_argument("--max-tokens", type=int, default=DEFAULT_MAX_TOKENS)
    p.add_argument("--temperature", type=float, default=DEFAULT_SAMPLING_TEMPERATURE)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--backoff", type=float, default=0.5)
    p.add_argument("--max-in-flight", type=int, default=4)
    p.add_argument("--allow-partial", action="store_true",
                   help="write what succeeded, log the rest, exit 0")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("train", help="train the text classifier head")
    p.add_argument("--descriptions", help="descriptions JSONL")
    p.add_argument("--text-dataset", help="pre-built dataset JSONL (text, class_id)")
    p.add_argument("--text-bundle", help="text embedding bundle")
    p.add_argument("--classes", help="class names JSON file")
    p.add_argument("--out", required=True, help="classifier JSON output")
    p.add_argument("--dataset-out", help="also write the assembled dataset JSONL")
    p.add_argument("--allow-missing-classes", action="store_true")
    p.add_argument("--synthetic", action="store_true",
                   help="train on a self-generated synthetic task")
    p.add_argument("--synth-classes", type=int, default=10)
    p.add_argument("--synth-dim", type=int, default=128)
    p.add_argument("--synth-sigma", type=float, default=0.1)
    p.add_argument("--synth-gap", type=float, default=0.0)
    p.add_argument("--synth-samples", type=int, default=50)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate methods on a labeled image bundle")
    p.add_argument("--images", required=True, help="labeled image bundle")
    p.add_argument("--methods", default=METHOD_TAP,
                   help=f"comma-separated subset of {{{','.join(ALL_METHODS)}}}")
    p.add_argument("--classifier", help="trained classifier JSON (tap)")
    p.add_argument("--class-embeddings", help="class-name bundle (clip-single, tot-cls)")
    p.add_argument("--dst-embeddings", help="template bundle (clip-dst, tot-dst)")
    p.add_argument("--classes", help="class names JSON (tot methods)")
    p.add_argument("--dst-template", action="append",
                   help="template text for tot-dst dataset rendering (repeatable)")
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    _add_train_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("refine", help="pseudo-label refinement of a trained head")
    p.add_argument("--classifier", required=True)
    p.add_argument("--unlabeled", required=True, help="unlabeled image bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--eval-images", help="labeled bundle for the before/after delta")
    p.add_argument("--dataset-name", default="dataset")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("synth-space", help="emit synthetic embedding bundles")
    p.add_argument("--out", required=True)
    p.add_argument("--modality", choices=("text", "image"), default="image")
    p.add_argument("--space", help="SyntheticSpaceConfig JSON file")
    _add_space_flags(p)
    p.add_argument("--per-class", type=int, help="emit N samples per class")
    p.add_argument("--from-descriptions", help="encode a descriptions JSONL")
    p.add_argument("--from-classes", help="encode one sample per class name")
    p.set_defaults(func=cmd_synth_space)

    p = sub.add_parser("run-all", help="run every stage from a pipeline manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--force", action="store_true", help="rerun completed stages")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("demo", help="scaffold a synthetic demo workspace")
    p.add_argument("--workspace", required=True)
    _add_space_flags(p)
    p.add_argument("--samples", type=int, default=5)
    p.add_argument("--image-samples", type=int, default=100)
    p.add_argument("--steps", type=int, default=300)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return InvalidConfig.exit_code
    try:
        args.func(args)
    except FileNotFoundError as exc:
        _status(f"error: missing file: {exc.filename or exc}")
        return MissingInput.exit_code
    except TextProbeError as exc:
        _status(f"error: {exc}")
        ids = getattr(exc, "failed_prompt_ids", None)
        if ids:
            _status("failed prompt ids: " + ", ".join(ids))
        return exc.exit_code
    return 0

if __name__ == "__main__":
    sys.exit(main())
