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
`_float32_logits` derives the bound. The float32 rows are the same normalization
rounded, `normalize_rows(X, dtype=np.float32)`, made once per image bundle and
kept on it. A bundle owns a read-only copy of its matrix (`textprobe.data`), so
those rows cannot go stale: a caller's array is never kept or frozen.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .atomic import write_json
from .core import ClassTextEmbeddings, _owning, normalize_rows, stable_softmax
from .data import EmbeddingBundle, TextDataset
from .errors import (
    EmptyDataset,
    InvalidConfig,
    NonFiniteValue,
    ShapeMismatch,
    UnknownClassId,
    _Config,
    _at_least,
    _positive,
    _rule,
    config_number,
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
        write_json(path, self.to_dict(), sort_keys=True, separators=(",", ":"))


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


_EPS32 = 2.0 ** -24  # float32 unit roundoff


def _unit_rows(images: EmbeddingBundle) -> np.ndarray:
    """`normalize_rows(images.matrix, dtype=np.float32)`, read-only, made once and
    kept on the bundle: every method scored against it shares one normalization."""
    rows = vars(images).get("_unit_rows")
    if rows is None:
        rows = vars(images)["_unit_rows"] = normalize_rows(images.matrix, dtype=np.float32)
        rows.setflags(write=False)
    return rows


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
    if exp > 1023:  # s would overflow float64
        raise NonFiniteValue("classifier too large to score: a class's weight norm plus "
                             "its |bias| must stay below 2**1023")
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


def _check_scorable(images: EmbeddingBundle, d: int, k: int, name: str) -> None:
    """Raise unless the bundle is labeled, d wide, non-empty and in the `name`'s k classes."""
    labels = images.labels_array("image")
    if images.dimension != d:
        raise ShapeMismatch(f"{name} dimension {d} vs bundle {images.dimension}")
    if images.count == 0:
        raise EmptyDataset("image bundle has no rows to evaluate")
    for label in (int(labels.min()), int(labels.max())):
        if not 0 <= label < k:
            raise UnknownClassId(f"image label {label} is outside the {name}'s {k} classes")


def _score(images: EmbeddingBundle, weights: np.ndarray, bias: np.ndarray, name: str,
           method: str, dataset: str) -> EvalRow:
    """The `method` row of the (K, d) head `weights`, `bias`; errors name it as `name`."""
    _check_scorable(images, weights.shape[1], weights.shape[0], name)
    return _accuracy_row(_predict(images, weights, bias), images.labels_array(), method, dataset)


def evaluate_classifier(
    clf: LinearClassifier,
    images: EmbeddingBundle,
    method: str = METHOD_TAP,
    dataset: str = "dataset",
) -> EvalRow:
    """Top-1 accuracy of the trained head on a labeled image bundle.

    The predictions are `clf.predict(images.matrix)`'s (see `_predict`).
    """
    return _score(images, clf.weights, clf.bias, "classifier", method, dataset)


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
    embs = class_embs.matrix
    return _score(images, embs, np.zeros(embs.shape[0]), "class embedding", method, dataset)


def class_text_embeddings_from_bundle(bundle: EmbeddingBundle) -> ClassTextEmbeddings:
    """Ensemble a labeled text bundle into one unit embedding per class.

    Rows are normalized, averaged within each class, and the average is
    renormalized (standard prompt ensembling). Labels must cover the
    contiguous range 0..K-1.
    """
    labels = bundle.labels_array("text")
    if bundle.count == 0:
        raise EmptyDataset("text bundle has no rows to ensemble")
    # Counted, not `np.unique`d: a plain `np.unique` call imports numpy.ma (about 10 ms).
    k = int(labels.max()) + 1
    if labels.min() < 0 or k > labels.size or not np.bincount(labels).all():
        raise ShapeMismatch("bundle labels must cover every class id from 0 to K-1")
    rows = normalize_rows(bundle.matrix)
    means = np.empty((k, bundle.dimension), dtype=np.float64)
    for cid in range(k):
        means[cid] = rows[labels == cid].mean(axis=0)
    return ClassTextEmbeddings.from_matrix(means)


def _train_baseline(vocab: ClassVocabulary, bundle: EmbeddingBundle, cfg: TrainConfig | None,
                    what: str, m: int, layout: str) -> LinearClassifier:
    """A head trained on the `what` bundle, whose labels must be class-major with m >= 1
    rows of each vocabulary class, else ShapeMismatch("<what> bundle <layout>").
    Training reads the labels alone, never row text."""
    labels = bundle.labels_array(what)
    if m == 0 or not np.array_equal(labels, np.repeat(np.arange(len(vocab)), m)):
        raise ShapeMismatch(f"{what} bundle {layout}")
    return train_text_classifier(TextDataset([("", c) for c in bundle.labels], vocab), bundle, cfg)


def train_tot_cls(
    vocab: ClassVocabulary,
    cls_bundle: EmbeddingBundle,
    cfg: TrainConfig | None = None,
) -> LinearClassifier:
    """Baseline head trained on one class-name embedding per class (K items)."""
    return _train_baseline(vocab, cls_bundle, cfg, "class-name", 1,
                           "must have exactly one row per class, in order")


def template_items(vocab: ClassVocabulary, templates) -> list[tuple[str, int]]:
    """(rendered template, class id) in class-major render order: the rows of
    a template bundle."""
    return [(p.rendered_text, p.class_id)
            for p in render_generic_prompts(vocab, templates, task_name="dst")]


def train_tot_dst(
    vocab: ClassVocabulary,
    dst_bundle: EmbeddingBundle,
    cfg: TrainConfig | None = None,
) -> LinearClassifier:
    """Baseline head trained on every template text (K * m items), m rows of each class
    in class-major order as `template_items` renders m templates."""
    k = len(vocab)
    return _train_baseline(vocab, dst_bundle, cfg, "template", dst_bundle.count // k,
                           "labels must be class-major, the same number of rows for each "
                           f"of the {k} classes")


@dataclass(frozen=True)
class PseudoLabelConfig(_Config):
    confidence_threshold: float = 0.95
    refine_steps: int = 300
    refine_lr: float = 0.001

    _CHECKS = {"confidence_threshold": _rule(config_number, lambda p: 0 < p <= 1,
                                             "must be in (0, 1]"),
               "refine_steps": _at_least(1), "refine_lr": _positive}


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
        raise ShapeMismatch(
            f"classifier dimension {clf.dimension} vs bundle {unlabeled_images.dimension}"
        )
    probs = stable_softmax(clf.batch_logits(unlabeled_images.matrix))
    confidence = probs.max(axis=1)
    pseudo = np.argmax(probs, axis=1)
    keep = confidence >= cfg.confidence_threshold

    kept = int(keep.sum())
    if kept:
        orig = TrainConfig.from_dict(clf.train_meta.get("config", {}))
        refined = train_text_classifier(
            TextDataset([("pseudo-labeled image", int(c)) for c in pseudo[keep]], clf.vocab),
            _owning(EmbeddingBundle, unlabeled_images.matrix[keep], labels=None, provenance={}),
            replace(orig, learning_rate=cfg.refine_lr, steps=cfg.refine_steps), init=clf)
        meta = {**refined.train_meta, "config": clf.train_meta.get("config", orig.to_dict())}
        outcome = {key: meta[key] for key in ("initial_loss", "final_loss")}
    else:
        refined, meta = clf, dict(clf.train_meta)
        outcome = {"warning": "no images cleared the confidence threshold"}
    meta["refine"] = {**cfg.to_dict(), "kept": kept, **outcome}
    return LinearClassifier(refined.weights, refined.bias, clf.vocab, meta)


# -- report rendering -------------------------------------------------------------

def _report_matrix(rows: list[EvalRow]):
    methods = list(dict.fromkeys(row.method for row in rows))
    datasets = list(dict.fromkeys(row.dataset for row in rows))
    cells = {(row.method, row.dataset): row.accuracy for row in rows}
    means = {
        m: float(np.mean([cells[(m, d)] for d in datasets if (m, d) in cells]))
        for m in methods
    }
    # Per dataset, the first method in order with its highest accuracy.
    best = {d: max((m for m in methods if (m, d) in cells), key=lambda m: cells[(m, d)])
            for d in datasets}
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
        raise EmptyDataset("no evaluation rows to render")
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
