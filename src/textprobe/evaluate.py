"""Cross-modal evaluation, baseline classifiers, refinement, and reports.

The text-trained head is applied directly to image embeddings through the
shared space; the similarity-softmax baselines score images against one
(possibly template-ensembled) text embedding per class. Accuracy is
accumulated as an integer correct count, so evaluation order never matters.

Scoring precision: every method's prediction is the argmax of the float64
logits `normalize_rows(X) @ W.T + b` (`LinearClassifier.predict`), but eval
first scores all image rows with one float32 product. A row whose float32
top-two margin exceeds twice a proven error bound keeps its float32 argmax,
which is then the float64 argmax, strictly; the other rows (about 1% on the
benchmark's data) are scored again in float64 with the expression above.
`_float32_logits` derives the bound.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .atomic import atomic_write
from .core import ClassTextEmbeddings, normalize_rows, stable_softmax
from .data import EmbeddingBundle, TextDataset, class_name_items
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    EmptyReport,
    InvalidConfig,
    MissingLabels,
    ShapeMismatch,
    ZeroVector,
)
from .prompts import ClassVocabulary, render_generic_prompts
from .train import LinearClassifier, TrainConfig, train_text_classifier

METHOD_TAP = "tap"
METHOD_CLIP_SINGLE = "clip-single"
METHOD_CLIP_DST = "clip-dst"
METHOD_TOT_CLS = "tot-cls"
METHOD_TOT_DST = "tot-dst"
ALL_METHODS = (
    METHOD_TAP,
    METHOD_CLIP_SINGLE,
    METHOD_CLIP_DST,
    METHOD_TOT_CLS,
    METHOD_TOT_DST,
)


@dataclass
class EvalRow:
    method: str
    dataset: str
    accuracy: float  # top-1, percent
    sample_count: int
    per_class: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EvalReport:
    rows: list[EvalRow]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows], "config": self.config}

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")


def _accuracy_row(
    predictions: np.ndarray,
    labels: np.ndarray,
    method: str,
    dataset: str,
) -> EvalRow:
    correct = predictions == labels
    total = int(labels.shape[0])
    classes, index = np.unique(labels, return_inverse=True)
    counts = np.bincount(index, minlength=classes.size)
    hits = np.bincount(index[correct], minlength=classes.size)
    per_class = {
        str(int(cid)): {"count": int(n), "accuracy": 100.0 * int(h) / int(n)}
        for cid, n, h in zip(classes, counts, hits)
    }
    return EvalRow(
        method=method,
        dataset=dataset,
        accuracy=100.0 * int(correct.sum()) / total,
        sample_count=total,
        per_class=per_class,
    )


# Image rows are made unit vectors this many at a time, so no float64 copy of
# the whole matrix exists.
_UNIT_BLOCK_ROWS = 1024

_EPS32 = 2.0 ** -24  # float32 unit roundoff


def _unit_rows(images: EmbeddingBundle) -> np.ndarray:
    """The bundle's float64 unit rows rounded to float32, read-only.

    Bit for bit `normalize_rows(images.matrix).astype(np.float32)`, built
    block by block. Computed once per matrix object and kept on the bundle,
    so every method scored against one bundle shares a single normalization;
    rebinding `images.matrix` recomputes them, writing into it in place does
    not.
    """
    memo = getattr(images, "_unit_rows_memo", None)
    if memo is None or memo[0] is not images.matrix:
        matrix = images.matrix
        rows = np.empty(matrix.shape, dtype=np.float32)
        for lo in range(0, matrix.shape[0], _UNIT_BLOCK_ROWS):
            block = matrix[lo:lo + _UNIT_BLOCK_ROWS]
            try:
                rows[lo:lo + _UNIT_BLOCK_ROWS] = normalize_rows(block)
            except ZeroVector:
                # Name the row by its index in the whole matrix, not the block.
                for i in range(block.shape[0]):
                    try:
                        normalize_rows(block[i:i + 1])
                    except ZeroVector:
                        raise ZeroVector(
                            f"row {lo + i} has (near-)zero norm") from None
        rows.setflags(write=False)
        memo = images._unit_rows_memo = (matrix, rows)
    return memo[1]


def _float32_logits(unit32: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Float32 logits of the rows `unit32` in units of a power of two `s`,
    with `s` and an error bound E: `(y, s, E)`.

    `s` is chosen so that `||w_c||_2 + |b_c| <= s` for every class, and
    `y = fl32(unit32 @ fl32(W / s).T + fl32(b / s))`; dividing by a power
    of two is exact, so the float32 copy cannot overflow. For every row and
    class, |y_c - z_c / s| <= E, where z_c is the float64 reference logit
    `(u @ W.T + b)_c` of the float64 unit row u that `unit32` rounds.

    Derivation, in units of s (w = w_c / s, beta = b_c / s, so
    ||w||_2 + |beta| <= 1), with eps = 2^-24, tau = 2^-126 the largest error
    of one float32 underflow (gradual, or flushed to zero), ||u||_2 <= 1 + eps,
    and A = sum_j |u_j w_j| <= (1 + eps) ||w||_2:
      1. Rounding to float32: x = fl32(u), v = fl32(w), beta32 = fl32(beta)
         err by at most eps |.| + tau per entry, so
         |x.v - u.w| <= (2 eps + eps^2) A + 2.02 sqrt(d) tau and
         |beta32 - beta| <= eps |beta| + tau.
      2. sgemm in any summation order, with or without FMA (Higham,
         Accuracy and Stability of Numerical Algorithms, 2002, sec. 3.1):
         |p - x.v| <= gamma_d sum_j |x_j v_j| + 2 d tau
         <= gamma_d (1 + eps)^2 A + 2 d tau, gamma_n = n eps / (1 - n eps).
      3. Bias add: |y - (p + beta32)| <= eps |p + beta32| + tau
         <= eps ((1 + eps)^2 (1 + gamma_d) A + (1 + eps) |beta|) + tau.
      4. The float64 reference: |z_c / s - (u.w + beta)|
         <= gamma64_{d+1} (A + |beta|) + (2 d + 2) 2^-1022 / s, with
         gamma64 at unit roundoff 2^-53 and the last term for float64
         underflow (gradual, or flushed) in its 2 d + 1 operations.
    The coefficient of A, c = 2 eps + eps^2 + gamma_d (1 + eps)^2
    + eps (1 + eps)^2 (1 + gamma_d) + gamma64_{d+1}, exceeds that of |beta|,
    and A + |beta| <= 1 + eps. For d <= 2^21, c (1 + eps) stays at least
    3 eps below (d + 6) eps (1 + 2 d eps); the tau terms sum to at most
    (3 d + 6) tau. Hence
        E = (d + 6) eps (1 + 2 d eps) + (3 d + 6) 2^-126 + (2 d + 2) 2^-1022 / s.
    The 3 eps of slack also covers rounding in computing E and the margin.
    """
    d = weights.shape[1]
    peak = max(float(np.abs(weights).max(initial=0.0)),
               float(np.abs(bias).max(initial=0.0)))
    exp = 0
    if peak > 0:
        pre = math.frexp(peak)[1]  # peak < 2**pre
        reach = float((np.linalg.norm(np.ldexp(weights, -pre), axis=1)
                       + np.abs(np.ldexp(bias, -pre))).max())
        # The margin covers rounding in the norms.
        exp = pre + math.frexp(reach * (1 + 2.0 ** -32))[1]
    logits = unit32 @ np.ldexp(weights, -exp).astype(np.float32).T
    logits += np.ldexp(bias, -exp).astype(np.float32)
    bound = ((d + 6) * _EPS32 * (1 + 2 * d * _EPS32) + (3 * d + 6) * 2.0 ** -126
             + math.ldexp(2 * d + 2, -1022 - exp))
    return logits, math.ldexp(1.0, exp), bound


def _predict(images: EmbeddingBundle, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """`np.argmax(normalize_rows(images.matrix) @ weights.T + bias, axis=1)`.

    Rows are screened in float32 (`_float32_logits`). A row whose best
    float32 logit beats its second best by more than 2E has that class as
    its float64 argmax, strictly: z_best / s >= y_best - E > y_c + E >= z_c / s
    for every other class c. Only the remaining rows are scored in float64,
    where exact ties go to the lowest index. With K = 1 every row is certified.
    """
    logits, _, bound = _float32_logits(_unit_rows(images), weights, bias)
    rows = np.arange(logits.shape[0])
    best = np.argmax(logits, axis=1)
    top = logits[rows, best].astype(np.float64)
    logits[rows, best] = -np.inf
    uncertain = np.flatnonzero(top - logits.max(axis=1) <= 2 * bound)
    if uncertain.size:
        unit = normalize_rows(images.matrix[uncertain])
        best[uncertain] = np.argmax(unit @ weights.T + bias, axis=1)
    return best


def _check_scorable(images: EmbeddingBundle, dimension: int, scorer: str) -> None:
    """Raise unless the bundle is labeled, `dimension`-wide and has a row."""
    if images.labels is None:
        raise MissingLabels("image bundle has no labels")
    if images.dimension != dimension:
        raise DimensionMismatch(f"{scorer} dimension {dimension} vs bundle {images.dimension}")
    if images.count == 0:
        raise EmptyDataset("image bundle has no rows to evaluate")


def evaluate_classifier(
    clf: LinearClassifier,
    images: EmbeddingBundle,
    method: str = METHOD_TAP,
    dataset: str = "dataset",
) -> EvalRow:
    """Top-1 accuracy of the trained head on a labeled image bundle.

    The predictions are `clf.predict(images.matrix)`'s (see `_predict`).
    """
    _check_scorable(images, clf.dimension, "classifier")
    predictions = _predict(images, clf.weights, clf.bias)
    return _accuracy_row(predictions, images.labels_array(), method, dataset)


def evaluate_zero_shot(
    class_embs: ClassTextEmbeddings,
    images: EmbeddingBundle,
    method: str = METHOD_CLIP_SINGLE,
    dataset: str = "dataset",
) -> EvalRow:
    """Top-1 accuracy of the similarity-softmax classifier.

    Image rows are normalized before scoring, so the logits are cosine
    similarities divided by the temperature. The softmax is monotone in
    them, so the prediction is the argmax of the similarities themselves
    (ties go to the lowest class index) and no temperature is needed.
    """
    _check_scorable(images, class_embs.dimension, "class embedding")
    embs = class_embs.matrix
    predictions = _predict(images, embs, np.zeros(embs.shape[0]))
    return _accuracy_row(predictions, images.labels_array(), method, dataset)


def class_text_embeddings_from_bundle(bundle: EmbeddingBundle) -> ClassTextEmbeddings:
    """Ensemble a labeled text bundle into one unit embedding per class.

    Rows are normalized, averaged within each class, and the average is
    renormalized (standard prompt ensembling). Labels must cover the
    contiguous range 0..K-1.
    """
    if bundle.labels is None:
        raise MissingLabels("text bundle has no labels")
    labels = bundle.labels_array()
    classes = np.unique(labels)
    k = int(classes.max()) + 1
    if list(classes) != list(range(k)):
        raise ShapeMismatch(
            "bundle labels must cover every class id from 0 to K-1"
        )
    rows = normalize_rows(bundle.matrix)
    means = np.empty((k, bundle.dimension), dtype=np.float64)
    for cid in range(k):
        means[cid] = rows[labels == cid].mean(axis=0)
    return ClassTextEmbeddings.from_matrix(means, renormalize=True)


def train_tot_cls(
    vocab: ClassVocabulary,
    cls_bundle: EmbeddingBundle,
    cfg: TrainConfig | None = None,
) -> LinearClassifier:
    """Baseline head trained on one class-name embedding per class (K items)."""
    if cfg is None:
        cfg = TrainConfig()
    if cls_bundle.labels is None:
        raise MissingLabels("class-name bundle has no labels")
    cls_labels = list(cls_bundle.labels)
    if cls_labels != list(range(len(vocab))):
        raise ShapeMismatch(
            "class-name bundle must have exactly one row per class, in order"
        )
    dataset = TextDataset(items=class_name_items(vocab), vocab=vocab)
    return train_text_classifier(dataset, cls_bundle, cfg)


def template_items(vocab: ClassVocabulary, templates) -> list[tuple[str, int]]:
    """(rendered template, class id) in class-major render order: the rows of
    a template bundle."""
    return [(p.rendered_text, p.class_id)
            for p in render_generic_prompts(vocab, templates, task_name="dst")]


def train_tot_dst(
    vocab: ClassVocabulary,
    dst_bundle: EmbeddingBundle,
    cfg: TrainConfig | None = None,
    dst_templates: list[str] | None = None,
) -> LinearClassifier:
    """Baseline head trained on every rendered template text (K * m items).

    When `dst_templates` is given, the bundle rows must follow the class-major
    render order and the dataset texts are the rendered strings; otherwise
    texts fall back to class names (text content does not affect training,
    labels and embeddings do).
    """
    if cfg is None:
        cfg = TrainConfig()
    if dst_bundle.labels is None:
        raise MissingLabels("template bundle has no labels")
    dst_labels = list(dst_bundle.labels)
    if dst_templates:
        items = template_items(vocab, dst_templates)
        if dst_labels != [c for _, c in items]:
            raise ShapeMismatch(
                "template bundle rows do not match the class-major render order "
                f"of {len(dst_templates)} template(s) over {len(vocab)} classes"
            )
    else:
        items = [(vocab.name_of(c), c) for c in dst_labels]
    dataset = TextDataset(items=items, vocab=vocab)
    return train_text_classifier(dataset, dst_bundle, cfg)


@dataclass(frozen=True)
class PseudoLabelConfig:
    confidence_threshold: float = 0.95
    refine_steps: int = 300
    refine_lr: float = 0.001

    def __post_init__(self):
        if not 0.0 < self.confidence_threshold <= 1.0:
            raise InvalidConfig(
                f"confidence_threshold must be in (0, 1], got {self.confidence_threshold}"
            )
        if self.refine_steps < 1:
            raise InvalidConfig(f"refine_steps must be >= 1, got {self.refine_steps}")
        if not self.refine_lr > 0:
            raise InvalidConfig(f"refine_lr must be > 0, got {self.refine_lr}")

    def to_dict(self) -> dict:
        return asdict(self)


def pseudo_label_refine(
    clf: LinearClassifier,
    unlabeled_images: EmbeddingBundle,
    cfg: PseudoLabelConfig | None = None,
) -> LinearClassifier:
    """Self-train the head on its own confident predictions.

    Pseudo-labels are computed once, offline: softmax confidences of the
    current head over the unlabeled bundle, keeping images whose max
    probability clears the threshold. Training then continues from the
    current parameters with the smoothing and noise settings of the original
    run. If nothing clears the threshold the parameters are returned
    unchanged, with a warning flag in train_meta.
    """
    if cfg is None:
        cfg = PseudoLabelConfig()
    if unlabeled_images.dimension != clf.dimension:
        raise DimensionMismatch(
            f"classifier dimension {clf.dimension} vs bundle {unlabeled_images.dimension}"
        )
    probs = stable_softmax(clf.batch_logits(unlabeled_images.matrix, normalize_input=True))
    confidence = probs.max(axis=1)
    pseudo = np.argmax(probs, axis=1)
    keep = confidence >= cfg.confidence_threshold

    base_meta = dict(clf.train_meta)
    if not np.any(keep):
        meta = dict(base_meta)
        meta["refine"] = {
            **cfg.to_dict(),
            "kept": 0,
            "warning": "no images cleared the confidence threshold",
        }
        return LinearClassifier(
            weights=clf.weights, bias=clf.bias, vocab=clf.vocab, train_meta=meta
        )

    orig = TrainConfig.from_dict(base_meta.get("config", {}))
    refine_cfg = replace(orig, learning_rate=cfg.refine_lr, steps=cfg.refine_steps)
    kept_matrix = unlabeled_images.matrix[keep]
    kept_labels = pseudo[keep]
    pseudo_dataset = TextDataset(
        items=[("pseudo-labeled image", int(c)) for c in kept_labels], vocab=clf.vocab
    )
    pseudo_bundle = EmbeddingBundle.from_matrix(kept_matrix)
    refined = train_text_classifier(
        pseudo_dataset, pseudo_bundle, refine_cfg,
        init_weights=clf.weights, init_bias=clf.bias,
    )
    meta = dict(refined.train_meta)
    meta["config"] = base_meta.get("config", orig.to_dict())
    meta["refine"] = {
        **cfg.to_dict(),
        "kept": int(keep.sum()),
        "initial_loss": refined.train_meta["initial_loss"],
        "final_loss": refined.train_meta["final_loss"],
    }
    refined.train_meta = meta
    return refined


# -- report rendering -------------------------------------------------------------

def _report_matrix(rows: list[EvalRow]):
    methods: list[str] = []
    datasets: list[str] = []
    cells: dict[tuple[str, str], float] = {}
    for row in rows:
        if row.method not in methods:
            methods.append(row.method)
        if row.dataset not in datasets:
            datasets.append(row.dataset)
        cells[(row.method, row.dataset)] = row.accuracy
    means = {
        m: float(np.mean([cells[(m, d)] for d in datasets if (m, d) in cells]))
        for m in methods
    }
    best: dict[str, str] = {}
    for d in datasets:
        scored = [(cells[(m, d)], m) for m in methods if (m, d) in cells]
        if scored:
            best[d] = max(scored, key=lambda t: t[0])[1]
    return methods, datasets, cells, means, best


def render_report(report: EvalReport | list[EvalRow], fmt: str = "table") -> str:
    """Render rows as an aligned table, JSON, or CSV.

    Column order is deterministic: datasets in first-appearance order, then a
    Mean column holding the arithmetic mean of the row's dataset accuracies.
    The table format marks the best value per dataset column with '*'; CSV
    stays purely numeric so it round-trips through any CSV parser.
    """
    rows = report.rows if isinstance(report, EvalReport) else list(report)
    if not rows:
        raise EmptyReport("no evaluation rows to render")
    methods, datasets, cells, means, best = _report_matrix(rows)

    if fmt == "json":
        doc = {
            "datasets": datasets,
            "rows": [
                {
                    "method": m,
                    "accuracy": {d: cells[(m, d)] for d in datasets if (m, d) in cells},
                    "mean": means[m],
                    "best_for": sorted(d for d in datasets if best.get(d) == m),
                }
                for m in methods
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["method", *datasets, "Mean"])
        for m in methods:
            writer.writerow(
                [m]
                + [repr(cells[(m, d)]) if (m, d) in cells else "" for d in datasets]
                + [repr(means[m])]
            )
        return buf.getvalue()

    if fmt == "table":
        header = ["method", *datasets, "Mean"]
        lines = []
        body = []
        for m in methods:
            row = [m]
            for d in datasets:
                if (m, d) in cells:
                    mark = "*" if best.get(d) == m else ""
                    row.append(f"{cells[(m, d)]:.2f}{mark}")
                else:
                    row.append("-")
            row.append(f"{means[m]:.2f}")
            body.append(row)
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))
        ]
        def fmt_row(values):
            return "  ".join(v.ljust(widths[i]) for i, v in enumerate(values)).rstrip()
        lines.append(fmt_row(header))
        lines.append(fmt_row(["-" * w for w in widths]))
        lines.extend(fmt_row(r) for r in body)
        return "\n".join(lines) + "\n"

    raise InvalidConfig(f"unknown report format {fmt!r}")
