"""Command-line pipeline: prompts -> descriptions -> training -> evaluation.

Each stage reads and writes files, so externally produced embedding bundles
can be spliced in at any point. `main` returns 0 on success and otherwise
the `exit_code` of the error class raised (see errors.py), 5 for a missing
file and 2 for any other path the system refuses (a directory, say).
Status goes to stderr; stdout carries data (tables, CSV, JSON) only.

Every stage is one `_*_stage` function from resolved inputs to one written
file that returns its status line. Its subcommand maps flags onto those
inputs, and `run-all` maps manifest keys onto them in one table, whose
entries name the keys each stage reads: it makes the head, the report and
every output they read. An existing output is used as it is unless `--force`
is given, and an output the manifest gives no way to make is an input: it
must exist, and `--force` leaves it alone.

Each setting is declared once. A flag that sets a config field has the
field's name as its dest and no default of its own: `_config` lays each flag
given over the config's file, or over the class default when there is none.
A library parameter's flag takes its default from the `llm` constant, and
`_MANIFEST` holds every manifest rule, which `demo` applies before it writes.
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

from .atomic import read_json, write_json
from .data import (
    SyntheticSpaceConfig,
    _covered,
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
    NonFiniteValue,
    ShapeMismatch,
    TextProbeError,
    _at_least,
    _checked,
    _flag,
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
    _check_scorable,
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
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_RETRIES,
    Description,
    FixtureTransport,
    HttpTransport,
    LlmRequest,
    SAMPLING_FIELDS,
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
    _validate_templates,
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


def _read_classes(path, flag: str, space=None) -> ClassVocabulary:
    """The class file; a synthetic space it is encoded in must have as many classes."""
    vocab = ClassVocabulary.from_file(_require_file(path, flag))
    if space is not None and len(vocab) != space.classes:
        raise ShapeMismatch(
            f"vocabulary has {len(vocab)} classes, space declares {space.classes}"
        )
    return vocab


def _read_rows(path, flag: str, kind: str = "image"):
    """A bundle to score (images) or to ensemble (text); one with no rows exits
    2 before any scoring."""
    bundle = read_bundle(_require_file(path, flag))
    if bundle.count == 0:
        raise EmptyDataset(f"{path}: {kind} bundle has no rows to evaluate")
    return bundle


def _given(args, names, prefix: str = "") -> dict:
    """The given (not None) flag values of `names`, whose dests are `prefix` + name."""
    return {name: value for name in names
            if (value := getattr(args, prefix + name, None)) is not None}


def _config(args, cls, file=(None, None), prefix: str = ""):
    """The (path, flag) file's `cls` if a path is given, else `cls()`, with each
    field flag given laid over it; `replace` checks the fields again."""
    path, flag = file
    config = read_json(_require_file(path, flag), cls.from_dict) if path else cls()
    return replace(config, **_given(args, [f.name for f in fields(cls)], prefix))


def stage_seed(master: int, stage: str) -> int:
    """Fan a master seed out to per-stage sub-seeds by stage-name hashing."""
    digest = hashlib.sha256(f"{master}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


# -- stages ------------------------------------------------------------------------
#
# An input file that may be missing is passed as a (path, name) pair, so the
# error names the flag or the manifest key it came from.

def _prompts_stage(vocab, profile, out, generic=False, **options) -> str:
    """The profile's prompts, rendered as its file is read, so that its errors
    name the file; with `generic`, `render_generic_prompts(vocab, **options)`."""
    if generic:
        prompts = render_generic_prompts(vocab, **options)
    else:
        prompts = read_json(_require_file(*profile),
                            lambda doc: render_prompts(TaskProfile.from_dict(doc), vocab))
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
    try:
        if allow_partial:
            descs, failures = fetch_descriptions_partial(reqs, transport, cache, **options)
        else:
            descs, failures = fetch_descriptions(reqs, transport, cache, **options), []
    finally:
        if isinstance(transport, HttpTransport):
            transport.close()
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


# The manifest key of the input file each evaluation method reads: the trained
# head, the class-name bundle or the template bundle.
_METHOD_INPUT = {
    METHOD_TAP: "classifier",
    METHOD_CLIP_SINGLE: "class_name_bundle",
    METHOD_CLIP_DST: "dst_bundle",
    METHOD_TOT_CLS: "class_name_bundle",
    METHOD_TOT_DST: "dst_bundle",
}


def _check_methods(methods) -> list[str]:
    if not methods or any(m not in ALL_METHODS for m in methods):
        raise InvalidConfig(
            f"methods must name one or more of {', '.join(ALL_METHODS)}, got {methods!r}"
        )
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise InvalidConfig(f"method {repeated[0]!r} is listed more than once in {methods!r}")
    return list(methods)


def _scored(clf, images, method, dataset_name, source):
    """`evaluate_classifier`'s row; a head too large to score is named by `source`, its file."""
    try:
        return evaluate_classifier(clf, images, method, dataset_name)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{source}: {exc}") from None


def _eval_stage(methods, images, inputs: dict, vocab, train_cfg, dataset_name, config: dict,
                out=None, fmt="table") -> str:
    """Score each method on the image bundle, in order; save the report to
    `out` when given and print it to stdout.

    `inputs` maps each `_METHOD_INPUT` key to a (path, name) pair. The tot
    methods train a baseline head over `vocab` with `train_cfg`. `config` is
    added to the report's config block.
    """
    images = _read_rows(*images)

    def input_of(method):  # the (path, flag) of the method's input file
        path, name = inputs[_METHOD_INPUT[method]]
        return path, f"{name} (method {method})"

    tot_methods = [m for m in methods if m in (METHOD_TOT_CLS, METHOD_TOT_DST)]
    rows, tot = [], None
    for method in methods:
        if method in tot_methods and tot is None:
            # Every tot input is read and checked before the first tot head trains, and no
            # earlier: scoring the other methods with these bundles held raised peak RSS.
            tot = {m: read_bundle(_require_file(*input_of(m))) for m in tot_methods}
            for bundle in tot.values():
                _check_scorable(images, bundle.dimension, len(vocab), "classifier")
        if method in (METHOD_CLIP_SINGLE, METHOD_CLIP_DST):
            embs = class_text_embeddings_from_bundle(_read_rows(*input_of(method), "text"))
            rows.append(evaluate_zero_shot(embs, images, method, dataset_name))
            continue
        if method == METHOD_TAP:
            clf = LinearClassifier.load(_require_file(*input_of(method)))
        elif method == METHOD_TOT_CLS:
            clf = train_tot_cls(vocab, tot[method], train_cfg)
        else:
            clf = train_tot_dst(vocab, tot[method], train_cfg)
        rows.append(_scored(clf, images, method, dataset_name, input_of(method)[0]))
    report = EvalReport(rows=rows, config={"methods": list(methods),
                                           "dataset": dataset_name, **config})
    if out:
        report.save(out)
    print(render_report(report, fmt), end="")
    saved = f", wrote report to {out}" if out else ""
    return f"scored {len(rows)} method(s) on {images.count} images{saved}"


# -- subcommands -------------------------------------------------------------------

def cmd_gen_prompts(args) -> None:
    options = _given(args, ("templates", "task_name"))
    if options and not args.generic:
        raise InvalidConfig("--template and --task-name apply only with --generic")
    vocab = _read_classes(args.classes, "--classes")
    _status(_prompts_stage(vocab, (args.profile, "--profile (or --generic)"), args.out,
                           args.generic, **options))


def cmd_fetch(args) -> None:
    _status(_fetch_stage(
        (args.prompts, "--prompts"), (args.fixture, "--fixture"),
        (args.endpoint, "--endpoint"), args.cache, args.out,
        _given(args, SAMPLING_FIELDS), args.allow_partial,
        max_in_flight=args.max_in_flight, retries=args.retries, backoff_base=args.backoff_base,
    ))


def cmd_train(args) -> None:
    cfg = _config(args, TrainConfig, (args.train_config, "--config"))
    # A flag that only the other kind of source reads is refused, not dropped.
    other = ({"--classes": args.classes, "--text-bundle": args.text_bundle,
              "--allow-missing-classes": args.allow_missing_classes or None} if args.synthetic
             else {flag: getattr(args, "synth_" + name)
                   for name, flag in {**_SYNTH_FLAGS, "samples": "--synth-samples"}.items()})
    unused = [flag for flag, value in other.items() if value is not None]
    if unused:
        raise InvalidConfig(f"{', '.join(unused)} cannot be used "
                            f"{'with' if args.synthetic else 'without'} --synthetic")
    if args.synthetic:
        per_class = _at_least(1)("--synth-samples", DEFAULT_SYNTH_SAMPLES
                                 if args.synth_samples is None else args.synth_samples)
        space = replace(_config(args, SyntheticSpaceConfig, prefix="synth_"), seed=cfg.seed)
        vocab = ClassVocabulary(tuple(f"class_{i:02d}" for i in range(space.classes)))
        items = [
            (f"synthetic description {j} of {vocab.name_of(c)}", c)
            for c in range(space.classes)
            for j in range(per_class)
        ]
        dataset = TextDataset(items=items, vocab=vocab)
        # The space and the weight init would otherwise share one stream, and
        # the initial weights would be the class means scaled by 1/sqrt(d).
        cfg = replace(cfg, seed=stage_seed(cfg.seed, "train"))
    else:
        vocab = _read_classes(args.classes, "--classes")
        if args.text_dataset:
            dataset = _covered(read_text_dataset_jsonl(
                _require_file(args.text_dataset, "--text-dataset"), vocab
            ), args.allow_missing_classes)
        elif args.descriptions:
            descs = load_fixture_descriptions(
                _require_file(args.descriptions, "--descriptions")
            )
            dataset = build_text_dataset(
                descs, vocab, allow_missing_classes=args.allow_missing_classes
            )
        else:
            raise MissingInput("provide --descriptions, --text-dataset, or --synthetic")
    if args.dataset_out:  # first: an external encoder needs this row order to make the bundle
        write_text_dataset_jsonl(dataset, args.dataset_out)
    bundle = (synthetic_encode(items, space, modality="text") if args.synthetic
              else _read_text_bundle(args.text_bundle, "--text-bundle", dataset))
    _status(_train_stage(dataset, bundle, cfg, args.out))


def cmd_eval(args) -> None:
    methods = _check_methods([m.strip() for m in args.methods.split(",") if m.strip()])
    tot = [m for m in methods if m in (METHOD_TOT_CLS, METHOD_TOT_DST)]
    vocab = _read_classes(args.classes, f"--classes (method {tot[0]})") if tot else None
    cfg = _config(args, TrainConfig, (args.train_config, "--config"))
    inputs = {
        "classifier": (args.classifier, "--classifier"),
        "class_name_bundle": (args.class_embeddings, "--class-embeddings"),
        "dst_bundle": (args.dst_embeddings, "--dst-embeddings"),
    }
    _status(_eval_stage(methods, (args.images, "--images"), inputs, vocab, cfg,
                        args.dataset_name, {"images": str(args.images)}, args.out, args.format))


def cmd_refine(args) -> None:
    clf = LinearClassifier.load(_require_file(args.classifier, "--classifier"))
    unlabeled = read_bundle(_require_file(args.unlabeled, "--unlabeled"))
    images = initial = None
    if args.eval_images:  # scored before refining, so a bad --eval-images writes no --out
        images = _read_rows(args.eval_images, "--eval-images")
        initial = _scored(clf, images, "initial", args.dataset_name, args.classifier)
    plcfg = _config(args, PseudoLabelConfig)
    refined = pseudo_label_refine(clf, unlabeled, plcfg)
    refined.save(args.out)
    kept = refined.train_meta["refine"]["kept"]
    delta_doc = {"kept": kept, "threshold": plcfg.confidence_threshold}
    if images is not None:
        after = evaluate_classifier(refined, images, "refined", args.dataset_name)
        delta = after.accuracy - initial.accuracy
        delta_doc.update(initial_accuracy=initial.accuracy, refined_accuracy=after.accuracy,
                         delta=delta)
        _status(f"accuracy {initial.accuracy:.2f} -> {after.accuracy:.2f} "
                f"(delta {delta:+.2f}, kept {kept})")
    else:
        _status(f"refined on {kept} pseudo-labeled images")
    print(json.dumps(delta_doc, sort_keys=True))


def cmd_synth_space(args) -> None:
    space = _config(args, SyntheticSpaceConfig, (args.space, "--space"))
    items = None
    if args.from_descriptions:
        items = description_items(load_fixture_descriptions(
            _require_file(args.from_descriptions, "--from-descriptions")
        ))
    elif args.from_classes:
        items = class_name_items(_read_classes(args.from_classes, "--from-classes", space))
    elif args.per_class is None:
        raise MissingInput("provide --per-class, --from-descriptions, or --from-classes")
    _status(_bundle_stage(space, args.modality, args.out, items, args.per_class))


# -- run-all -----------------------------------------------------------------------

def _path(key, value) -> Path:
    return Path(_string(key, value))


def _train_block(key, value) -> dict:
    TrainConfig.from_dict(value, key + ".")
    return value  # as written: run-all adds the stage seed unless it sets one


# Every manifest key: the check that turns its JSON value into the one run-all
# uses, and its default. Paths resolve against `workspace`, whose default is
# the manifest's directory.
_MANIFEST = {
    "workspace": (_string, None),
    "dataset_name": (_string, "dataset"),
    "seed": (_at_least(0), 0),
    "task_profile": (_path, None),
    "classes": (_path, "classes.json"),
    "prompts": (_path, "prompts.jsonl"),
    "descriptions": (_path, "descriptions.jsonl"),
    "fixture": (_path, None),
    "endpoint": (_string, None),
    "cache": (_path, None),
    "llm": (lambda key, value: _checked(value, SAMPLING_FIELDS, key + "."), {}),
    "synthetic_space": (lambda key, value: SyntheticSpaceConfig.from_dict(value, key + "."),
                        None),
    "image_samples_per_class": (_at_least(1), 50),
    "text_bundle": (_path, "text.tape"),
    "image_bundle": (_path, "images.tape"),
    "class_name_bundle": (_path, None),
    "dst_bundle": (_path, None),
    "dst_templates": (lambda key, value: _validate_templates(_strings(key, value), {"class"}),
                      []),
    "train": (_train_block, {}),
    "methods": (lambda key, value: _check_methods(_strings(key, value)), [METHOD_TAP]),
    "classifier": (_path, "classifier.json"),
    "report": (_path, "report.json"),
    "generic": (_flag, False),
}


def _load_manifest(path: Path) -> SimpleNamespace:
    """The manifest's checked values, one attribute per `_MANIFEST` key."""
    values = read_json(path, lambda doc: _checked(doc, _MANIFEST))
    if values["fixture"] is not None and values["endpoint"] is not None:
        raise InvalidConfig(f"{path}: set 'fixture' or 'endpoint', not both")
    if values["task_profile"] is not None and values["generic"]:
        raise InvalidConfig(f"{path}: set 'task_profile' or 'generic', not both")
    ws = path.parent / (values["workspace"] or "")
    for key, (check, _) in _MANIFEST.items():
        if check is _path and values[key] is not None:
            values[key] = ws / values[key]
    return SimpleNamespace(**values)


def cmd_run_all(args) -> None:
    m = _load_manifest(_require_file(args.manifest, "--manifest"))
    space = m.synthetic_space
    vocab = _read_classes(m.classes, "classes", space)
    train_cfg = TrainConfig.from_dict({"seed": stage_seed(m.seed, "train"), **m.train}, "train.")
    # Built at most once: the text bundle and the head share it, so their rows align.
    dataset = functools.cache(lambda: build_text_dataset(
        load_fixture_descriptions(_require_file(m.descriptions, "descriptions")), vocab))
    # (stage, manifest key of its output, the manifest keys it reads, the manifest
    # value that names a way to make it, maker), in the order they run. Eval's
    # output key is None: it always runs.
    stages = [
        ("gen-prompts", "prompts", ("task_profile", "generic", "classes"),
         m.task_profile or m.generic, lambda: _prompts_stage(
             vocab, (m.task_profile, "task_profile"), m.prompts, m.generic)),
        ("fetch", "descriptions", ("prompts", "fixture", "endpoint", "cache", "llm"),
         m.fixture or m.endpoint, lambda: _fetch_stage(
             (m.prompts, "prompts"), (m.fixture, "fixture"), (m.endpoint, "endpoint"),
             m.cache, m.descriptions, m.llm)),
        ("bundles", "text_bundle", ("synthetic_space", "descriptions", "classes"), space, lambda:
         _bundle_stage(space, "text", m.text_bundle, dataset().items)),
        ("bundles", "image_bundle", ("synthetic_space", "image_samples_per_class"), space, lambda:
         _bundle_stage(space, "image", m.image_bundle, per_class=m.image_samples_per_class)),
        ("bundles", "class_name_bundle", ("synthetic_space", "classes"), space, lambda:
         _bundle_stage(space, "text", m.class_name_bundle, class_name_items(vocab))),
        ("bundles", "dst_bundle", ("synthetic_space", "classes", "dst_templates"), space, lambda:
         _bundle_stage(space, "text", m.dst_bundle,
                       template_items(vocab, m.dst_templates or DEFAULT_GENERIC_TEMPLATES))),
        ("train", "classifier", ("descriptions", "classes", "text_bundle", "train", "seed"), True,
         lambda: _train_stage(
             dataset(), _read_text_bundle(m.text_bundle, "text_bundle", dataset()),
             train_cfg, m.classifier)),
        ("eval", None, ("image_bundle", *map(_METHOD_INPUT.get, m.methods), "methods",
                        "classes", "train", "seed", "dataset_name"), True, lambda:
         _eval_stage(m.methods, (m.image_bundle, "image_bundle"),
                     {key: (getattr(m, key), key) for key in _METHOD_INPUT.values()}, vocab,
                     train_cfg, m.dataset_name,
                     {"seed": m.seed, "train": train_cfg.to_dict()}, m.report)),
    ]
    needed = {"classifier", None}  # the head, the report and every output they read
    for _, key, reads, _, _ in reversed(stages):
        if key in needed:
            needed.update(read for read in reads if getattr(m, read) is not None)
    for stage, key, _, way, make in (entry for entry in stages if entry[1] in needed):
        out = key and getattr(m, key)
        if way and (out is None or args.force or not out.is_file()):
            _status(f"[{stage}] {make()}")
        else:  # an existing output is used as it is; one with no way to make it must exist
            _status(f"[{stage}] {_require_file(out, key)} is up to date")


# -- demo ---------------------------------------------------------------------------

def cmd_demo(args) -> None:
    """Scaffold a self-contained synthetic workspace for run-all."""
    space = _config(args, SyntheticSpaceConfig)
    llm = _checked(_given(args, SAMPLING_FIELDS), SAMPLING_FIELDS, "llm.")
    manifest = {
        "dataset_name": "synthetic-demo",
        "seed": space.seed,
        "task_profile": "profile.json",
        "classes": "classes.json",
        "prompts": "prompts.jsonl",
        "descriptions": "descriptions.jsonl",
        "fixture": "fixture.jsonl",
        "cache": "cache",
        "llm": {"samples_per_prompt": llm["samples_per_prompt"]},
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
    write_json(ws / "classes.json", names, indent=2)
    profile = TaskProfile(
        task_name="synthetic-demo",
        shift_kind="fine_grained",
        superclass_token="object",
    )
    write_json(ws / "profile.json", profile.to_dict(), indent=2)
    write_descriptions_jsonl([Description(
        prompt_id=p.prompt_id,
        class_id=p.class_id,
        class_name=p.class_name,
        sample_index=i,
        text=f"a {p.class_name} object, deterministic variant {i} "
             f"for template {p.template_index}",
    ) for p in render_prompts(profile, ClassVocabulary(tuple(names)))
        for i in range(llm["samples_per_prompt"])], ws / "fixture.jsonl")
    write_json(ws / "manifest.json", manifest, indent=2)
    _status(f"demo workspace ready: {ws}")
    _status(f"next: textprobe run-all --manifest {ws / 'manifest.json'}")


# -- parser ------------------------------------------------------------------------

def _add_field_flags(p: argparse.ArgumentParser, config, flags: dict, prefix: str = "") -> None:
    """A flag for each field of the dataclass `config` that `flags` maps to
    one: its dest is `prefix` + the field name and its type the field
    default's. It has no default: one not given is None (see `_config`)."""
    for name, flag in flags.items():
        p.add_argument(flag, dest=prefix + name, type=type(getattr(config, name)))


# The synthetic space of synth-space and demo, of train --synthetic, and TrainConfig.
_SPACE_FLAGS = {"dimension": "--dim", "classes": "--classes-count",
                "sigma_intra": "--sigma-intra", "gap": "--gap", "seed": "--seed"}
_SYNTH_FLAGS = {"classes": "--synth-classes", "dimension": "--synth-dim",
                "sigma_intra": "--synth-sigma", "gap": "--synth-gap"}
DEFAULT_SYNTH_SAMPLES = 50  # train --synthetic's descriptions per class
_TRAIN_FLAGS = {"learning_rate": "--lr", "steps": "--steps", "label_smoothing": "--smoothing",
                "noise_sigma": "--sigma", "weight_decay": "--weight-decay", "seed": "--seed"}


@functools.cache  # one per process: `main` looks each subcommand up by name
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textprobe",
        description="Text-only training of zero-shot visual classifiers.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-prompts", help="expand a task profile into prompts")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--profile", help="TaskProfile JSON file")
    source.add_argument("--generic", action="store_true",
                        help="task-agnostic templates, no targeting")
    p.add_argument("--classes", required=True, help="class names JSON file")
    p.add_argument("--out", required=True, help="output prompts JSONL")
    p.add_argument("--template", dest="templates", action="append",
                   help="generic template override (repeatable; --generic only)")
    p.add_argument("--task-name", help="generic prompts' task name (--generic only)")

    p = sub.add_parser("fetch", help="fetch descriptions for rendered prompts")
    p.add_argument("--prompts", required=True)
    p.add_argument("--out", required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--endpoint", help="completion endpoint URL")
    source.add_argument("--fixture", help="JSONL fixture replay file")
    p.add_argument("--cache", help="cache directory")
    _add_field_flags(p, LlmRequest, {"samples_per_prompt": "--samples",
                                     "max_tokens": "--max-tokens",
                                     "sampling_temperature": "--temperature"})
    p.add_argument("--retries", type=int, default=DEFAULT_RETRIES)
    p.add_argument("--backoff", dest="backoff_base", type=float, default=DEFAULT_BACKOFF_S)
    p.add_argument("--max-in-flight", type=int, default=DEFAULT_MAX_IN_FLIGHT)
    p.add_argument("--allow-partial", action="store_true",
                   help="write what succeeded, log the rest, exit 0")

    p = sub.add_parser("train", help="train the text classifier head")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--descriptions", help="descriptions JSONL")
    source.add_argument("--text-dataset", help="pre-built dataset JSONL (text, class_id)")
    source.add_argument("--synthetic", action="store_true",
                        help="train on a self-generated synthetic task")
    p.add_argument("--text-bundle", help="text embedding bundle")
    p.add_argument("--classes", help="class names JSON file")
    p.add_argument("--out", required=True, help="classifier JSON output")
    p.add_argument("--dataset-out", help="also write the assembled dataset JSONL")
    p.add_argument("--allow-missing-classes", action="store_true")
    _add_field_flags(p, SyntheticSpaceConfig, _SYNTH_FLAGS, "synth_")
    p.add_argument("--synth-samples", type=int,
                   help=f"descriptions per class (default {DEFAULT_SYNTH_SAMPLES})")
    p.add_argument("--config", dest="train_config", help="TrainConfig JSON file")
    _add_field_flags(p, TrainConfig, _TRAIN_FLAGS)

    p = sub.add_parser("eval", help="evaluate methods on a labeled image bundle")
    p.add_argument("--images", required=True, help="labeled image bundle")
    p.add_argument("--methods", default=METHOD_TAP,
                   help=f"comma-separated subset of {{{','.join(ALL_METHODS)}}}")
    p.add_argument("--classifier", help="trained classifier JSON (tap)")
    p.add_argument("--class-embeddings", help="class-name bundle (clip-single, tot-cls)")
    p.add_argument("--dst-embeddings", help="class-major template bundle (clip-dst, tot-dst)")
    p.add_argument("--classes", help="class names JSON (tot methods)")
    p.add_argument("--dataset-name", default="dataset")
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--config", dest="train_config", help="TrainConfig JSON file")
    _add_field_flags(p, TrainConfig, _TRAIN_FLAGS)

    p = sub.add_parser("refine", help="pseudo-label refinement of a trained head")
    p.add_argument("--classifier", required=True)
    p.add_argument("--unlabeled", required=True, help="unlabeled image bundle")
    p.add_argument("--out", required=True)
    _add_field_flags(p, PseudoLabelConfig, {"confidence_threshold": "--threshold",
                                            "refine_steps": "--steps", "refine_lr": "--lr"})
    p.add_argument("--eval-images", help="labeled bundle for the before/after delta")
    p.add_argument("--dataset-name", default="dataset")

    p = sub.add_parser("synth-space", help="emit synthetic embedding bundles")
    p.add_argument("--out", required=True)
    p.add_argument("--modality", choices=("text", "image"), default="image")
    p.add_argument("--space", help="SyntheticSpaceConfig JSON file")
    _add_field_flags(p, SyntheticSpaceConfig, _SPACE_FLAGS)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--per-class", type=int, help="emit N samples per class")
    source.add_argument("--from-descriptions", help="encode a descriptions JSONL")
    source.add_argument("--from-classes", help="encode one sample per class name")

    p = sub.add_parser("run-all", help="run every stage from a pipeline manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--force", action="store_true", help="rerun completed stages")

    p = sub.add_parser("demo", help="scaffold a synthetic demo workspace")
    p.add_argument("--workspace", required=True)
    _add_field_flags(p, SyntheticSpaceConfig, _SPACE_FLAGS)
    _add_field_flags(p, LlmRequest, {"samples_per_prompt": "--samples"})
    p.add_argument("--image-samples", type=int, default=100)
    p.add_argument("--steps", type=int, default=300)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return InvalidConfig.exit_code
    try:
        globals()["cmd_" + args.command.replace("-", "_")](args)
    except FileNotFoundError as exc:
        _status(f"error: missing file: {exc.filename or exc}")
        return MissingInput.exit_code
    except OSError as exc:  # a path that is a directory, lies under a file, ...
        if exc.filename is None:  # a fault of the system, not of a path given
            raise
        _status(f"error: {exc.filename}: {exc.strerror}")
        return InvalidConfig.exit_code
    except TextProbeError as exc:
        _status(f"error: {exc}")
        ids = getattr(exc, "failed_prompt_ids", None)
        if ids:
            _status("failed prompt ids: " + ", ".join(ids))
        return exc.exit_code
    return 0

if __name__ == "__main__":
    sys.exit(main())
