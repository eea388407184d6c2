"""Command-line pipeline: prompts -> descriptions -> training -> evaluation.

Each stage reads and writes files, so externally produced embedding bundles
can be spliced in at any point. Exit codes: 0 success, 2 configuration
problem, 3 network failure, 4 numeric/shape failure, 5 missing input; each
error class in errors.py carries its own as `exit_code`.
Status goes to stderr; stdout carries data (tables, CSV, JSON) only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .atomic import atomic_write
from .data import (
    SyntheticSpaceConfig,
    build_text_dataset,
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
    InvalidConfig,
    MissingInput,
    ParseError,
    ShapeMismatch,
    TextProbeError,
    config_number,
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

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 5


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _require_file(path, flag: str) -> Path:
    if not path:
        raise MissingInput(f"{flag} is required for this invocation")
    p = Path(path)
    if not p.is_file():
        raise MissingInput(f"{flag}: no such file: {p}")
    return p


def _read_json(path):
    """Parse a JSON config file; invalid JSON is a ParseError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def stage_seed(master: int, stage: str) -> int:
    """Fan a master seed out to per-stage sub-seeds by stage-name hashing."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


# -- gen-prompts ---------------------------------------------------------------

def cmd_gen_prompts(args) -> int:
    vocab = ClassVocabulary.from_file(_require_file(args.classes, "--classes"))
    if args.generic:
        templates = args.template or list(DEFAULT_GENERIC_TEMPLATES)
        prompts = render_generic_prompts(vocab, templates, task_name=args.task_name)
    else:
        profile = TaskProfile.from_file(_require_file(args.profile, "--profile (or --generic)"))
        prompts = render_prompts(profile, vocab)
    write_prompts_jsonl(prompts, args.out)
    _status(f"wrote {len(prompts)} prompts over {len(vocab)} classes to {args.out}")
    return EXIT_OK


# -- fetch -----------------------------------------------------------------------

def _transport(fixture, fixture_name: str, endpoint, endpoint_name: str):
    if fixture:
        return FixtureTransport(_require_file(fixture, fixture_name))
    if endpoint:
        return HttpTransport(endpoint)
    raise MissingInput(f"the fetch stage needs {endpoint_name} or {fixture_name}")


def cmd_fetch(args) -> int:
    records = read_prompts_jsonl(_require_file(args.prompts, "--prompts"))
    reqs = requests_from_prompt_records(
        records,
        samples_per_prompt=args.samples,
        max_tokens=args.max_tokens,
        sampling_temperature=args.temperature,
    )
    transport = _transport(args.fixture, "--fixture", args.endpoint, "--endpoint")
    options = dict(max_in_flight=args.max_in_flight, retries=args.retries,
                   backoff_base=args.backoff)
    if args.allow_partial:
        descs, failures = fetch_descriptions_partial(reqs, transport, args.cache, **options)
    else:
        descs, failures = fetch_descriptions(reqs, transport, args.cache, **options), []
    write_descriptions_jsonl(descs, args.out)
    for failure in failures:
        _status(f"failed {failure.prompt_id}: {failure.message}")
    _status(_fetch_summary(descs, args.out, skipped=len(failures)))
    return EXIT_OK


def _fetch_summary(descs, out, skipped: int = 0) -> str:
    by_source: dict[str, int] = {}
    for d in descs:
        by_source[d.source] = by_source.get(d.source, 0) + 1
    parts = " ".join(f"{k}={v}" for k, v in sorted(by_source.items()))
    note = f" ({skipped} prompt(s) skipped)" if skipped else ""
    return f"wrote {len(descs)} descriptions to {out} [{parts or 'none'}]{note}"


# -- train -----------------------------------------------------------------------

def _train_config_from_args(args) -> TrainConfig:
    base: dict = {}
    if getattr(args, "train_config", None):
        base = _read_json(_require_file(args.train_config, "--config"))
        if not isinstance(base, dict):
            raise InvalidConfig("--config must hold a JSON object")
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


def _read_text_bundle(path, name: str, dataset: TextDataset):
    """Read the text bundle a head trains on; labelled rows must follow the
    dataset's item order, so row i embeds item i."""
    bundle = read_bundle(_require_file(path, name))
    if bundle.labels is not None and list(bundle.labels) != [c for _, c in dataset.items]:
        raise ShapeMismatch(
            f"{name}: text bundle labels do not align with the dataset item order"
        )
    return bundle


def cmd_train(args) -> int:
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
    clf = train_text_classifier(dataset, bundle, cfg)
    clf.save(args.out)
    _status(
        f"trained {clf.num_classes}-class head on {len(dataset)} texts "
        f"({cfg.steps} steps), final loss {clf.train_meta['final_loss']:.6f}"
    )
    return EXIT_OK


# -- eval ------------------------------------------------------------------------

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


def _evaluate_methods(methods, images, dataset_name, inputs, vocab, train_cfg,
                      dst_templates) -> list:
    """One report row per method, in order: the dispatch behind eval and run-all.

    `inputs` maps each `_METHOD_INPUT` key to (path, name); a missing file is
    reported by that name (a flag for eval, a manifest key for run-all). The
    tot methods train a baseline head over `vocab` with `train_cfg`.
    """
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
    return rows


def cmd_eval(args) -> int:
    methods = _check_methods([m.strip() for m in args.methods.split(",") if m.strip()])
    vocab = cfg = None
    tot = [m for m in methods if m in (METHOD_TOT_CLS, METHOD_TOT_DST)]
    if tot:
        vocab = ClassVocabulary.from_file(
            _require_file(args.classes, f"--classes (method {tot[0]})")
        )
        cfg = _train_config_from_args(args)
    images = read_bundle(_require_file(args.images, "--images"))
    rows = _evaluate_methods(methods, images, args.dataset_name, {
        "classifier": (args.classifier, "--classifier"),
        "class_embeddings": (args.class_embeddings, "--class-embeddings"),
        "dst_embeddings": (args.dst_embeddings, "--dst-embeddings"),
    }, vocab, cfg, args.dst_template)
    report = EvalReport(
        rows=rows,
        config={
            "methods": methods,
            "dataset": args.dataset_name,
            "images": str(args.images),
        },
    )
    if args.out:
        report.save(args.out)
        _status(f"wrote report to {args.out}")
    print(render_report(report, args.format), end="")
    return EXIT_OK


# -- refine ----------------------------------------------------------------------

def cmd_refine(args) -> int:
    clf = LinearClassifier.load(_require_file(args.classifier, "--classifier"))
    unlabeled = read_bundle(_require_file(args.unlabeled, "--unlabeled"))
    plcfg = PseudoLabelConfig(
        confidence_threshold=args.threshold,
        refine_steps=args.steps,
        refine_lr=args.lr,
    )
    refined = pseudo_label_refine(clf, unlabeled, plcfg)
    refined.save(args.out)
    kept = refined.train_meta.get("refine", {}).get("kept", 0)
    delta_doc = {"kept": kept, "threshold": args.threshold}
    if args.eval_images:
        images = read_bundle(_require_file(args.eval_images, "--eval-images"))
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
    return EXIT_OK


# -- synth-space -------------------------------------------------------------------

def _space_from_args(args) -> SyntheticSpaceConfig:
    if getattr(args, "space", None):
        return SyntheticSpaceConfig.from_dict(_read_json(_require_file(args.space, "--space")))
    return SyntheticSpaceConfig(
        dimension=args.dim,
        classes=args.classes_count,
        sigma_intra=args.sigma_intra,
        gap=args.gap,
        seed=args.seed,
    )


def cmd_synth_space(args) -> int:
    space = _space_from_args(args)
    if args.from_descriptions:
        descs = load_fixture_descriptions(
            _require_file(args.from_descriptions, "--from-descriptions")
        )
        bundle = synthetic_encode(description_items(descs), space, modality=args.modality)
    elif args.from_classes:
        vocab = ClassVocabulary.from_file(_require_file(args.from_classes, "--from-classes"))
        if len(vocab) != space.classes:
            raise ShapeMismatch(
                f"vocabulary has {len(vocab)} classes, space declares {space.classes}"
            )
        items = [(name, cid) for cid, name in vocab.classes]
        bundle = synthetic_encode(items, space, modality=args.modality)
    elif args.per_class:
        bundle = synthetic_bundle(space, args.per_class, modality=args.modality)
    else:
        raise MissingInput("provide --per-class, --from-descriptions, or --from-classes")
    write_bundle(bundle, args.out)
    _status(
        f"wrote {bundle.count} x {bundle.dimension} {args.modality} bundle to {args.out}"
    )
    return EXIT_OK


# -- run-all -------------------------------------------------------------------------

@dataclass
class PipelineManifest:
    """File-based pipeline description; all paths resolve against workspace.
    Keys are the field names; bad keys, numbers and methods fail on load."""

    workspace: Path
    dataset_name: str
    seed: int
    task_profile: Path | None
    classes: Path
    prompts: Path
    descriptions: Path
    fixture: Path | None
    endpoint: str | None
    cache: Path | None
    llm: dict
    synthetic_space: SyntheticSpaceConfig | None
    image_samples_per_class: int
    text_bundle: Path
    image_bundle: Path
    class_name_bundle: Path | None
    dst_bundle: Path | None
    dst_templates: list[str]
    train: dict
    methods: list[str]
    classifier: Path
    report: Path
    markers: Path
    generic: bool

    @classmethod
    def from_file(cls, path) -> "PipelineManifest":
        path = Path(path)
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise InvalidConfig(f"{path}: a manifest must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidConfig(
                f"{path}: unknown manifest key(s): " + ", ".join(map(repr, unknown))
            )
        for key, kind in (("llm", dict), ("train", dict), ("methods", list)):
            if not isinstance(doc.get(key, kind()), kind):
                what = "an object" if kind is dict else "a list"
                raise InvalidConfig(f"{path}: {key!r} must be {what}")
        raw_ws = doc.get("workspace")
        if raw_ws is None:
            ws = path.parent
        else:
            ws = Path(raw_ws)
            if not ws.is_absolute():
                ws = path.parent / ws

        def rel(key, default=None):
            value = doc.get(key, default)
            return None if value is None else ws / value

        def integer(key, default):
            return config_number(key, doc.get(key, default), integral=True)

        space = doc.get("synthetic_space")
        return cls(
            workspace=ws,
            dataset_name=str(doc.get("dataset_name", "dataset")),
            seed=integer("seed", 0),
            task_profile=rel("task_profile"),
            classes=rel("classes", "classes.json"),
            prompts=rel("prompts", "prompts.jsonl"),
            descriptions=rel("descriptions", "descriptions.jsonl"),
            fixture=rel("fixture"),
            endpoint=doc.get("endpoint"),
            cache=rel("cache"),
            llm=_llm_options(path, doc.get("llm", {})),
            synthetic_space=SyntheticSpaceConfig.from_dict(space) if space else None,
            image_samples_per_class=integer("image_samples_per_class", 50),
            text_bundle=rel("text_bundle", "text.tape"),
            image_bundle=rel("image_bundle", "images.tape"),
            class_name_bundle=rel("class_name_bundle"),
            dst_bundle=rel("dst_bundle"),
            dst_templates=list(doc.get("dst_templates", [])),
            train=dict(doc.get("train", {})),
            methods=_check_methods(doc.get("methods", [METHOD_TAP])),
            classifier=rel("classifier", "classifier.json"),
            report=rel("report", "report.json"),
            markers=rel("markers", ".stage_markers.json"),
            generic=bool(doc.get("generic", False)),
        )


# The manifest's `llm` keys: default and whether the value must be whole.
_LLM_KEYS = {
    "samples_per_prompt": (DEFAULT_SAMPLES_PER_PROMPT, True),
    "max_tokens": (DEFAULT_MAX_TOKENS, True),
    "sampling_temperature": (DEFAULT_SAMPLING_TEMPERATURE, False),
}


def _llm_options(path, doc: dict) -> dict:
    """The manifest's `llm` block as `requests_from_prompt_records` keywords."""
    unknown = sorted(set(doc) - set(_LLM_KEYS))
    if unknown:
        raise InvalidConfig(f"{path}: unknown llm key(s): " + ", ".join(map(repr, unknown)))
    options = {key: config_number(f"llm.{key}", doc.get(key, default), integral)
               for key, (default, integral) in _LLM_KEYS.items()}
    options["sampling_temperature"] = float(options["sampling_temperature"])
    return options


def _mark_stage(manifest: PipelineManifest, stage: str) -> None:
    doc = {}
    if manifest.markers.is_file():
        try:
            doc = json.loads(manifest.markers.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            doc = {}
    doc[stage] = True
    with atomic_write(manifest.markers) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _space_for(manifest: PipelineManifest) -> SyntheticSpaceConfig:
    if not manifest.synthetic_space:
        raise MissingInput(
            "manifest has no synthetic_space and a required bundle is missing"
        )
    return manifest.synthetic_space


def cmd_run_all(args) -> int:
    manifest = PipelineManifest.from_file(_require_file(args.manifest, "--manifest"))
    force = args.force
    vocab = ClassVocabulary.from_file(_require_file(manifest.classes, "classes"))
    train_cfg = TrainConfig.from_dict(
        {"seed": stage_seed(manifest.seed, "train"), **manifest.train}
    )

    # Stage 1: prompts.
    if force or not manifest.prompts.is_file():
        if manifest.generic:
            prompts = render_generic_prompts(vocab)
        else:
            profile = TaskProfile.from_file(
                _require_file(manifest.task_profile, "task_profile")
            )
            prompts = render_prompts(profile, vocab)
        write_prompts_jsonl(prompts, manifest.prompts)
        _status(f"[gen-prompts] wrote {len(prompts)} prompts")
    else:
        _status("[gen-prompts] up to date")
    _mark_stage(manifest, "gen-prompts")

    # Stage 2: descriptions.
    if force or not manifest.descriptions.is_file():
        reqs = requests_from_prompt_records(read_prompts_jsonl(manifest.prompts),
                                            **manifest.llm)
        transport = _transport(manifest.fixture, "fixture", manifest.endpoint, "endpoint")
        descs = fetch_descriptions(
            reqs, transport, str(manifest.cache) if manifest.cache else None
        )
        write_descriptions_jsonl(descs, manifest.descriptions)
        _status(f"[fetch] wrote {len(descs)} descriptions")
    else:
        _status("[fetch] up to date")
    _mark_stage(manifest, "fetch")

    # Stage 3: embedding bundles (synthesized on demand when a synthetic
    # space is configured; otherwise they must already exist). The text
    # bundle and the head share one dataset, so their rows align.
    write_text = force or not manifest.text_bundle.is_file()
    train_head = force or not manifest.classifier.is_file()
    if write_text or train_head:
        dataset = build_text_dataset(load_fixture_descriptions(manifest.descriptions), vocab)
    if write_text:
        write_bundle(synthetic_encode(dataset.items, _space_for(manifest), modality="text"),
                     manifest.text_bundle)
        _status(f"[bundles] wrote text bundle ({len(dataset)} rows)")
    if force or not manifest.image_bundle.is_file():
        space = _space_for(manifest)
        bundle = synthetic_bundle(space, manifest.image_samples_per_class, modality="image")
        write_bundle(bundle, manifest.image_bundle)
        _status(f"[bundles] wrote image bundle ({bundle.count} rows)")
        del bundle  # release the image rows rather than hold them through eval

    def wanted(path, key):  # a listed method reads it, and it is missing or forced
        return path and (force or not path.is_file()) and any(
            _METHOD_INPUT[m] == key for m in manifest.methods)

    if wanted(manifest.class_name_bundle, "class_embeddings"):
        items = [(name, cid) for cid, name in vocab.classes]
        write_bundle(synthetic_encode(items, _space_for(manifest), modality="text"),
                     manifest.class_name_bundle)
        _status("[bundles] wrote class-name bundle")
    dst_templates = manifest.dst_templates or list(DEFAULT_GENERIC_TEMPLATES)
    if wanted(manifest.dst_bundle, "dst_embeddings"):
        rendered = render_generic_prompts(vocab, dst_templates, task_name="dst")
        items = [(p.rendered_text, p.class_id) for p in rendered]
        write_bundle(synthetic_encode(items, _space_for(manifest), modality="text"),
                     manifest.dst_bundle)
        _status("[bundles] wrote template bundle")
    _mark_stage(manifest, "bundles")

    # Stage 4: train the main head.
    if train_head:
        text_bundle = _read_text_bundle(manifest.text_bundle, "text_bundle", dataset)
        clf = train_text_classifier(dataset, text_bundle, train_cfg)
        clf.save(manifest.classifier)
        _status(f"[train] final loss {clf.train_meta['final_loss']:.6f}")
    else:
        _status("[train] up to date")
    _mark_stage(manifest, "train")

    # Stage 5: evaluate and report.
    images = read_bundle(manifest.image_bundle)
    rows = _evaluate_methods(manifest.methods, images, manifest.dataset_name, {
        "classifier": (manifest.classifier, "classifier"),
        "class_embeddings": (manifest.class_name_bundle, "class_name_bundle"),
        "dst_embeddings": (manifest.dst_bundle, "dst_bundle"),
    }, vocab, train_cfg, dst_templates)
    report = EvalReport(
        rows=rows,
        config={
            "dataset": manifest.dataset_name,
            "methods": list(manifest.methods),
            "seed": manifest.seed,
            "train": train_cfg.to_dict(),
        },
    )
    report.save(manifest.report)
    _mark_stage(manifest, "eval")
    _status(f"[eval] wrote report to {manifest.report}")
    print(render_report(report, "table"), end="")
    return EXIT_OK


# -- demo -------------------------------------------------------------------------

def cmd_demo(args) -> int:
    """Scaffold a self-contained synthetic workspace for run-all."""
    ws = Path(args.workspace)
    ws.mkdir(parents=True, exist_ok=True)
    k = args.classes_count
    names = [f"class_{i:02d}" for i in range(k)]
    (ws / "classes.json").write_text(json.dumps(names, indent=2) + "\n")

    profile = TaskProfile(
        task_name="synthetic-demo",
        shift_kind="fine_grained",
        superclass_token="object",
    )
    (ws / "profile.json").write_text(json.dumps(profile.to_dict(), indent=2) + "\n")

    vocab = ClassVocabulary(tuple(names))
    prompts = render_prompts(profile, vocab)
    samples = args.samples
    with open(ws / "fixture.jsonl", "w", encoding="utf-8") as fh:
        for p in prompts:
            for i in range(samples):
                rec = {
                    "prompt_id": p.prompt_id,
                    "class_id": p.class_id,
                    "class_name": p.class_name,
                    "sample_index": i,
                    "text": f"a {p.class_name} object, deterministic variant {i} "
                            f"for template {p.template_index}",
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    manifest = {
        "dataset_name": "synthetic-demo",
        "seed": args.seed,
        "task_profile": "profile.json",
        "classes": "classes.json",
        "prompts": "prompts.jsonl",
        "descriptions": "descriptions.jsonl",
        "fixture": "fixture.jsonl",
        "cache": "cache",
        "llm": {"samples_per_prompt": samples},
        "synthetic_space": {
            "dimension": args.dim,
            "classes": k,
            "sigma_intra": args.sigma_intra,
            "gap": args.gap,
            "seed": args.seed,
        },
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
    (ws / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    _status(f"demo workspace ready: {ws}")
    _status(f"next: textprobe run-all --manifest {ws / 'manifest.json'}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", dest="train_config", help="TrainConfig JSON file")
    p.add_argument("--lr", type=float, default=None, help="learning rate")
    p.add_argument("--steps", type=int, default=None, help="optimization steps")
    p.add_argument("--smoothing", type=float, default=None, help="label smoothing in [0,1)")
    p.add_argument("--sigma", type=float, default=None, help="training noise sigma")
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)


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
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--classes-count", type=int, default=10)
    p.add_argument("--sigma-intra", type=float, default=0.1)
    p.add_argument("--gap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--classes-count", type=int, default=10)
    p.add_argument("--dim", type=int, default=128)
    p.add_argument("--sigma-intra", type=float, default=0.1)
    p.add_argument("--gap", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
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
        return EXIT_CONFIG
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        _status(f"error: missing file: {exc.filename or exc}")
        return EXIT_MISSING
    except TextProbeError as exc:
        _status(f"error: {exc}")
        ids = getattr(exc, "failed_prompt_ids", None)
        if ids:
            _status("failed prompt ids: " + ", ".join(ids))
        return exc.exit_code

if __name__ == "__main__":
    sys.exit(main())
