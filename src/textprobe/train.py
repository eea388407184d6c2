"""Full-batch training of the linear text classifier.

The objective is label-smoothed cross entropy on unit-normalized text
embeddings perturbed with fresh Gaussian noise each step:

    loss = mean over (t, c) of SCE(W (x_hat + n) + b, c),
    x_hat = E(t) / ||E(t)||,  n ~ N(0, sigma^2 I) resampled per step.

The smoothing target is q = (1 - eps) * onehot(c) + eps / K, so the gradient
with respect to the logits is softmax(logits) - q. Optimization is AdamW
with decoupled weight decay applied to the weight matrix only, never the
bias. Everything runs in float64 and is driven by one seeded generator, so a
given (dataset, embeddings, config, seed) always produces bit-identical
parameters; reproducibility relies on numpy's deterministic kernels for
fixed shapes in a fixed environment.

The generator's stream is consumed in one fixed order: the initial weights
(unless given), then the noise of steps 1..T, then the noise of the final
loss evaluation. The training loop draws each step's noisy rows on one
helper thread, into one of two preallocated buffers, while the main thread
runs the previous step's matmuls and AdamW update (numpy releases the
interpreter lock while it fills an array). Only the helper touches the
generator after initialization, and it draws one step at a time in step
order, so the stream and the trained parameters do not depend on timing.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .core import normalize, normalize_rows
from .data import EmbeddingBundle, TextDataset
from .errors import (
    DimensionMismatch,
    FormatError,
    InvalidConfig,
    InvalidSmoothing,
    NonFiniteLoss,
    ShapeMismatch,
    _checked,
    _integer,
    config_number,
)
from .prompts import ClassVocabulary

# Name prefix of the thread that draws the next training step's noise.
NOISE_THREAD_PREFIX = "textprobe-noise"


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    steps: int = 500
    label_smoothing: float = 0.1
    noise_sigma: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidConfig(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 0:
            raise InvalidConfig(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise InvalidSmoothing(
                f"label_smoothing must be in [0, 1), got {self.label_smoothing}"
            )
        if self.noise_sigma < 0:
            raise InvalidConfig(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 < beta < 1.0:
                raise InvalidConfig(f"{name} must be in (0, 1), got {beta}")
        if self.weight_decay < 0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {self.weight_decay}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict, prefix: str = "") -> "TrainConfig":
        """Build from a mapping of field names, numbers kept as given. An unknown
        key or a non-number (non-integer for `steps`, `seed`) raises InvalidConfig."""
        return cls(**_checked(doc, {
            f.name: (_integer if isinstance(f.default, int) else config_number, f.default)
            for f in fields(cls)
        }, prefix))


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def smoothing_targets(num_classes: int, labels, label_smoothing: float) -> np.ndarray:
    """Rows q = (1 - eps) * onehot(label) + eps / K."""
    if not 0.0 <= label_smoothing < 1.0:
        raise InvalidSmoothing(
            f"label_smoothing must be in [0, 1), got {label_smoothing}"
        )
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    q = np.full((labels.shape[0], num_classes), label_smoothing / num_classes)
    q[np.arange(labels.shape[0]), labels] += 1.0 - label_smoothing
    return q


def smoothed_cross_entropy(
    logits, true_class: int, label_smoothing: float = 0.0
) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the logits for a single example.

    loss = -sum_c q_c * log softmax(logits)_c, gradient = softmax(logits) - q.
    The gradient components always sum to zero.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ShapeMismatch(f"need a 1-D logit vector with K >= 2, got shape {arr.shape}")
    if not 0 <= true_class < arr.shape[0]:
        raise ShapeMismatch(f"true_class {true_class} outside {arr.shape[0]} classes")
    q = smoothing_targets(arr.shape[0], [true_class], label_smoothing)[0]
    logp = _log_softmax(arr)
    loss = float(-(q * logp).sum())
    grad = np.exp(logp) - q
    return loss, grad


def training_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    noise: np.ndarray | None = None,
    label_smoothing: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean smoothed-CE loss over the batch plus gradients w.r.t. W and b.

    Embeddings are row-normalized here and the (fixed) noise realization is
    added afterwards, mirroring one training step. This is the validated
    reference and finite-difference oracle; the training loop runs the same
    arithmetic through `_Objective` on preallocated buffers.
    """
    W = np.asarray(weights, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    X = normalize_rows(embeddings)
    if noise is not None:
        X = X + np.asarray(noise, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = X.shape[0]
    if labels.shape[0] != n:
        raise ShapeMismatch(f"{labels.shape[0]} labels for {n} rows")
    if W.shape[1] != X.shape[1]:
        raise DimensionMismatch(
            f"weights expect dimension {W.shape[1]}, embeddings have {X.shape[1]}"
        )
    logits = X @ W.T + b
    logp = _log_softmax(logits)
    q = smoothing_targets(W.shape[0], labels, label_smoothing)
    loss = float(-(q * logp).sum(axis=1).mean())
    g_logits = (np.exp(logp) - q) / n
    grad_w = g_logits.T @ X
    grad_b = g_logits.sum(axis=0)
    return loss, grad_w, grad_b


class _Objective:
    """In-place smoothed-CE forward and backward for fixed targets `q`.

    Performs the floating-point operations of `training_loss_and_grads` in
    the same order, on rows that are already normalized and noised, writing
    into buffers allocated once per training run instead of once per step.
    """

    def __init__(self, q: np.ndarray):
        self.q = q
        self.logp = np.empty_like(q)
        self.work = np.empty_like(q)
        self.row = np.empty((q.shape[0], 1))

    def loss(self, X: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> float:
        """Mean loss of logits X W^T + b; keeps log-softmax for `grads`."""
        logp, work, row = self.logp, self.work, self.row
        np.matmul(X, weights.T, out=logp)
        logp += bias
        np.max(logp, axis=1, keepdims=True, out=row)
        logp -= row
        np.exp(logp, out=work)
        np.sum(work, axis=1, keepdims=True, out=row)
        np.log(row, out=row)
        logp -= row
        np.multiply(self.q, logp, out=work)
        np.negative(work, out=work)
        np.sum(work, axis=1, out=row[:, 0])
        return float(row[:, 0].mean())

    def grads(self, X: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        """Gradients at the last `loss` call, written into grad_w and grad_b."""
        g = self.work
        np.exp(self.logp, out=g)
        g -= self.q
        g /= g.shape[0]
        np.matmul(g.T, X, out=grad_w)
        np.sum(g, axis=0, out=grad_b)


def _adamw_update(param, grad, m, v, scratch, cfg: TrainConfig, step: int,
                  decay: float | None) -> None:
    """One AdamW update of `param` in place; `grad` is overwritten.

    Same operations, in the same order, as
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        param = param - lr * (m / c1 / (sqrt(v / c2) + eps) + decay * param)
    with c = 1 - beta ** step; `decay=None` drops the decay term entirely.
    """
    np.multiply(grad, 1 - cfg.adam_beta2, out=scratch)
    scratch *= grad
    v *= cfg.adam_beta2
    v += scratch
    grad *= 1 - cfg.adam_beta1
    m *= cfg.adam_beta1
    m += grad
    np.divide(v, 1 - cfg.adam_beta2 ** step, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += cfg.adam_eps
    np.divide(m, 1 - cfg.adam_beta1 ** step, out=grad)
    grad /= scratch
    if decay is not None:
        np.multiply(param, decay, out=scratch)
        grad += scratch
    grad *= cfg.learning_rate
    param -= grad


@dataclass(eq=False)
class LinearClassifier:
    """A trained single-layer head: logits = W x (+ b)."""

    weights: np.ndarray  # (K, d)
    bias: np.ndarray  # (K,)
    vocab: ClassVocabulary
    train_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if W.ndim != 2:
            raise ShapeMismatch(f"weights must be 2-D, got shape {W.shape}")
        if b.shape != (W.shape[0],):
            raise ShapeMismatch(f"bias shape {b.shape} does not match {W.shape[0]} classes")
        if W.shape[0] != len(self.vocab):
            raise ShapeMismatch(
                f"{W.shape[0]} weight rows for {len(self.vocab)} classes"
            )
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise NonFiniteLoss("classifier parameters contain NaN or Inf")
        self.weights = W
        self.bias = b

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]

    def batch_logits(self, matrix, normalize_input: bool = True) -> np.ndarray:
        X = np.asarray(matrix, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"expected (n, {self.dimension}) matrix, got shape {X.shape}"
            )
        if normalize_input:
            X = normalize_rows(X)
        return X @ self.weights.T + self.bias

    def predict(self, matrix, normalize_input: bool = True) -> np.ndarray:
        return np.argmax(self.batch_logits(matrix, normalize_input), axis=1)

    def save(self, path) -> None:
        """Serialize as JSON with the weight matrix flattened row-major."""
        doc = {
            "dimension": self.dimension,
            "class_names": list(self.vocab.names),
            "weights": [float(x) for x in self.weights.ravel(order="C")],
            "bias": [float(x) for x in self.bias],
            "train_meta": self.train_meta,
        }
        with atomic_write(path) as fh:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path) -> "LinearClassifier":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc})") from exc
        try:
            dim = int(doc["dimension"])
            names = [str(n) for n in doc["class_names"]]
            flat = np.asarray(doc["weights"], dtype=np.float64)
            bias = np.asarray(doc["bias"], dtype=np.float64)
            meta = dict(doc.get("train_meta", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad classifier record ({exc})") from exc
        k = len(names)
        if flat.size != k * dim:
            raise FormatError(
                f"{path}: weights hold {flat.size} values, expected {k * dim}"
            )
        return cls(
            weights=flat.reshape(k, dim),
            bias=bias,
            vocab=ClassVocabulary(names=tuple(names)),
            train_meta=meta,
        )


def classifier_logits(clf: LinearClassifier, emb, normalize_input: bool = True) -> np.ndarray:
    """Logits W x (+ b) for one embedding; normalizes x first by default,
    matching how inputs were normalized during training."""
    vec = np.asarray(emb, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != clf.dimension:
        raise DimensionMismatch(
            f"expected a {clf.dimension}-vector, got shape {vec.shape}"
        )
    if normalize_input:
        vec = normalize(vec)
    return clf.weights @ vec + clf.bias


def train_text_classifier(
    dataset: TextDataset,
    text_embs: EmbeddingBundle,
    cfg: TrainConfig | None = None,
    init_weights: np.ndarray | None = None,
    init_bias: np.ndarray | None = None,
) -> LinearClassifier:
    """Train the head by full-batch AdamW on the smoothed-CE objective.

    Row i of `text_embs` must be the embedding of dataset item i. The rows
    are normalized before the loop, never inside it; each step adds fresh
    Gaussian noise to them (drawn ahead on a helper thread, see the module
    docstring), computes the mean loss over the whole batch, and applies one
    AdamW update. `init_weights` overrides the default seeded Gaussian init (std
    1/sqrt(d)); that is how refinement continues from an existing head, and
    passing the per-class text-embedding matrix starts training from the
    similarity classifier instead.
    """
    if cfg is None:
        cfg = TrainConfig()
    if len(dataset) != text_embs.count:
        raise ShapeMismatch(
            f"dataset has {len(dataset)} items, bundle has {text_embs.count} rows"
        )
    if len(dataset) == 0:
        raise ShapeMismatch("cannot train on an empty dataset")
    k = len(dataset.vocab)
    d = text_embs.dimension
    labels = dataset.labels
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeMismatch("dataset labels outside the vocabulary")

    # Normalized twice on purpose: `training_loss_and_grads` normalizes the
    # already-normalized rows it is given once more, which can move entries
    # by an ulp. Doing the same here, once, keeps the trained head equal bit
    # for bit to a loop over that reference function.
    x_hat = normalize_rows(normalize_rows(text_embs.matrix))
    n_rows = x_hat.shape[0]
    rng = np.random.default_rng(cfg.seed)

    if init_weights is not None:
        weights = np.array(init_weights, dtype=np.float64, copy=True)
        if weights.shape != (k, d):
            raise ShapeMismatch(f"init_weights shape {weights.shape}, expected {(k, d)}")
    else:
        weights = rng.normal(0.0, 1.0 / math.sqrt(d), size=(k, d))
    if init_bias is not None:
        bias = np.array(init_bias, dtype=np.float64, copy=True)
        if bias.shape != (k,):
            raise ShapeMismatch(f"init_bias shape {bias.shape}, expected {(k,)}")
    else:
        bias = np.zeros(k, dtype=np.float64)

    objective = _Objective(smoothing_targets(k, labels, cfg.label_smoothing))
    m_w, v_w, grad_w, scratch_w = (np.zeros_like(weights) for _ in range(4))
    m_b, v_b, grad_b, scratch_b = (np.zeros_like(bias) for _ in range(4))
    noisy = (np.empty_like(x_hat), np.empty_like(x_hat))

    def draw_noisy_rows(out: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=out)
        out *= cfg.noise_sigma
        out += x_hat
        return out

    loss_history: list[float] = []
    # Leaving the block, also by an exception, waits for the draw in flight.
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix=NOISE_THREAD_PREFIX) as helper:
        pending = helper.submit(draw_noisy_rows, noisy[0])
        for step in range(1, cfg.steps + 1):
            X = pending.result()
            pending = helper.submit(draw_noisy_rows, noisy[step % 2])
            # Overflow surfaces as a non-finite loss or parameter, checked below.
            with np.errstate(over="ignore", invalid="ignore"):
                loss = objective.loss(X, weights, bias)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became non-finite at step {step}", step=step)
            loss_history.append(loss)
            with np.errstate(over="ignore", invalid="ignore"):
                objective.grads(X, grad_w, grad_b)
                # Decoupled decay on the weight matrix only.
                _adamw_update(weights, grad_w, m_w, v_w, scratch_w, cfg, step,
                              cfg.weight_decay)
                _adamw_update(bias, grad_b, m_b, v_b, scratch_b, cfg, step, None)
            if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
                raise NonFiniteLoss(f"parameters became non-finite at step {step}", step=step)
        X = pending.result()

    final_loss = objective.loss(X, weights, bias)
    if not math.isfinite(final_loss):
        raise NonFiniteLoss("final loss is non-finite", step=cfg.steps)
    initial_loss = loss_history[0] if loss_history else final_loss

    meta = {
        "config": cfg.to_dict(),
        "initial_loss": initial_loss,
        "final_loss": final_loss,
        "loss_history": loss_history,
        "num_items": int(n_rows),
    }
    return LinearClassifier(
        weights=weights, bias=bias, vocab=dataset.vocab, train_meta=meta
    )
