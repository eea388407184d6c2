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
fixed shapes in a fixed environment. `_Objective` is the one implementation
of the objective: the training loop, `training_loss_and_grads` (its
finite-difference oracle) and `smoothed_cross_entropy` (one row) all run it.

The generator's stream is consumed in one fixed order: the initial weights,
unless a starting head is given, then the noise of steps 1..T, then the
noise of the final loss evaluation. The training loop draws each step's
noisy rows on one helper thread, into one of two preallocated buffers,
while the main thread runs the previous step's matmuls and AdamW update
(numpy releases the interpreter lock while it fills an array). Only the
helper touches the generator after initialization, and it draws one step at
a time in step order, so the stream and the trained parameters do not
depend on timing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .atomic import read_json, write_json
from .core import normalize_rows
from .data import EmbeddingBundle, TextDataset
from .errors import (
    FormatError,
    InvalidConfig,
    NonFiniteLoss,
    NonFiniteValue,
    ShapeMismatch,
    _Config,
    _at_least,
    _checked,
    _list,
    _object,
    _positive,
    _rule,
    _strings,
    config_number,
)
from .prompts import ClassVocabulary

# Name prefix of the thread that draws the next training step's noise.
NOISE_THREAD_PREFIX = "textprobe-noise"


_smoothing = _rule(config_number, lambda eps: 0 <= eps < 1, "must be in [0, 1)")
_beta = _rule(config_number, lambda beta: 0 < beta < 1, "must be in (0, 1)")


@dataclass(frozen=True)
class TrainConfig(_Config):
    """Training hyperparameters. Numbers are kept as given (an int learning rate
    stays an int), since they are written to train_meta and the report."""

    learning_rate: float = 0.001
    steps: int = 500
    label_smoothing: float = 0.1
    noise_sigma: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    seed: int = 0

    _CHECKS = {"learning_rate": _positive, "steps": _at_least(0),
               "label_smoothing": _smoothing, "noise_sigma": _at_least(0, config_number),
               "adam_beta1": _beta, "adam_beta2": _beta, "adam_eps": config_number,
               "weight_decay": _at_least(0, config_number), "seed": _at_least(0)}


def smoothing_targets(num_classes: int, labels, label_smoothing: float) -> np.ndarray:
    """Rows q = (1 - eps) * onehot(label) + eps / K."""
    _smoothing("label_smoothing", label_smoothing)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    q = np.full((labels.shape[0], num_classes), label_smoothing / num_classes)
    q[np.arange(labels.shape[0]), labels] += 1.0 - label_smoothing
    return q


class _Objective:
    """The package's one smoothed-CE forward and backward for fixed targets
    `q`, run in place in buffers allocated once per objective."""

    def __init__(self, q: np.ndarray):
        self.q = q
        self.logp = np.empty_like(q)
        self.work = np.empty_like(q)
        self.row = np.empty((q.shape[0], 1))

    def loss(self, X: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> float:
        """Mean loss of logits X W^T + b; keeps log-softmax for `grads`."""
        np.matmul(X, weights.T, out=self.logp)
        self.logp += bias
        return self.logits_loss(self.logp)

    def logits_loss(self, logits: np.ndarray) -> float:
        """Mean loss of an (n, K) logit matrix; keeps its log-softmax."""
        logp, work, row = self.logp, self.work, self.row
        np.max(logits, axis=1, keepdims=True, out=row)
        np.subtract(logits, row, out=logp)
        np.exp(logp, out=work)
        np.sum(work, axis=1, keepdims=True, out=row)
        np.log(row, out=row)
        logp -= row
        np.multiply(self.q, logp, out=work)
        np.negative(work, out=work)
        np.sum(work, axis=1, out=row[:, 0])
        return float(row[:, 0].mean())

    def logits_grad(self) -> np.ndarray:
        """(softmax - q) / n at the last loss, in a buffer the next call reuses."""
        g = self.work
        np.exp(self.logp, out=g)
        g -= self.q
        g /= g.shape[0]
        return g

    def grads(self, X: np.ndarray, grad_w: np.ndarray, grad_b: np.ndarray) -> None:
        """Gradients at the last `loss` call, written into grad_w and grad_b."""
        g = self.logits_grad()
        np.matmul(g.T, X, out=grad_w)
        np.sum(g, axis=0, out=grad_b)


def smoothed_cross_entropy(
    logits, true_class: int, label_smoothing: float = 0.0
) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. the logits of one example: `_Objective` on one row.

    loss = -sum_c q_c * log softmax(logits)_c, gradient = softmax(logits) - q.
    The gradient components always sum to zero.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise ShapeMismatch(f"need a 1-D logit vector with K >= 2, got shape {arr.shape}")
    if not 0 <= true_class < arr.shape[0]:
        raise ShapeMismatch(f"true_class {true_class} outside {arr.shape[0]} classes")
    objective = _Objective(smoothing_targets(arr.shape[0], [true_class], label_smoothing))
    return objective.logits_loss(arr[np.newaxis]), objective.logits_grad()[0]


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
    added afterwards, mirroring one training step; the loss and gradients
    are `_Objective`'s, the arithmetic the training loop runs. This is the
    finite-difference oracle of the objective.
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
        raise ShapeMismatch(
            f"weights expect dimension {W.shape[1]}, embeddings have {X.shape[1]}"
        )
    objective = _Objective(smoothing_targets(W.shape[0], labels, label_smoothing))
    loss = objective.loss(X, W, b)
    grad_w, grad_b = np.empty_like(W), np.empty(W.shape[0])
    objective.grads(X, grad_w, grad_b)
    return loss, grad_w, grad_b


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


def _numbers(key, value) -> np.ndarray:
    """The list `value` as a float64 vector, checked by the dtype NumPy infers
    for the list rather than item by item; a bool among numbers would infer a
    number, so the item types are looked at first."""
    try:
        if bool not in set(map(type, _list(key, value))):
            flat = np.asarray(value)
            if flat.ndim == 1 and flat.dtype.kind in "iuf":
                return flat.astype(np.float64, copy=False)
    except ValueError:  # nested lists of unequal length
        pass
    raise InvalidConfig(f"{key} must be a list of numbers")


# Every key of a classifier file and its check; all but train_meta are required.
_CLASSIFIER = {"dimension": (_at_least(1), ...), "class_names": (_strings, ...),
               "weights": (_numbers, ...), "bias": (_numbers, ...), "train_meta": (_object, {})}


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
            raise NonFiniteValue("classifier parameters contain NaN or Inf")
        self.weights = W
        self.bias = b

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dimension(self) -> int:
        return self.weights.shape[1]

    def batch_logits(self, matrix) -> np.ndarray:
        """Logits of the rows of `matrix`, each normalized first, as in training."""
        X = np.asarray(matrix, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dimension:
            raise ShapeMismatch(f"expected (n, {self.dimension}) matrix, got shape {X.shape}")
        return normalize_rows(X) @ self.weights.T + self.bias

    def predict(self, matrix) -> np.ndarray:
        return np.argmax(self.batch_logits(matrix), axis=1)

    def save(self, path) -> None:
        """Serialize as JSON with the weight matrix flattened row-major."""
        doc = {
            "dimension": self.dimension,
            "class_names": list(self.vocab.names),
            "weights": self.weights.ravel().tolist(),
            "bias": self.bias.tolist(),
            "train_meta": self.train_meta,
        }
        write_json(path, doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def load(cls, path) -> "LinearClassifier":
        """The head in `path`, built inside `read_json`, so each of its errors names the file."""
        return read_json(path, cls._from_doc)

    @classmethod
    def _from_doc(cls, doc) -> "LinearClassifier":
        doc = _checked(doc, _CLASSIFIER)  # frees the parsed lists before the head is built
        k, dim, flat, bias = len(doc["class_names"]), doc["dimension"], doc["weights"], doc["bias"]
        if flat.size != k * dim:
            raise FormatError(f"weights hold {flat.size} values, expected {k * dim}")
        if bias.size != k:
            raise FormatError(f"bias holds {bias.size} values, expected {k}")
        return cls(weights=flat.reshape(k, dim), bias=bias,
                   vocab=ClassVocabulary(names=tuple(doc["class_names"])),
                   train_meta=dict(doc["train_meta"]))


def train_text_classifier(
    dataset: TextDataset,
    text_embs: EmbeddingBundle,
    cfg: TrainConfig | None = None,
    init: LinearClassifier | None = None,
) -> LinearClassifier:
    """Train the head by full-batch AdamW on the smoothed-CE objective.

    Row i of `text_embs` must be the embedding of dataset item i. The rows
    are normalized before the loop, never inside it; each step adds fresh
    Gaussian noise to them (drawn ahead on a helper thread, see the module
    docstring), computes the mean loss over the whole batch, and applies one
    AdamW update. Training starts from a copy of `init`'s weights and bias,
    which must be (K, d), when one is given; that is how refinement continues
    from an existing head. Otherwise the weights are the seeded Gaussian init
    (std 1/sqrt(d)) and the bias is zero.
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

    # Normalized twice on purpose: `training_loss_and_grads` normalizes the
    # already-normalized rows it is given once more, which can move entries
    # by an ulp. Doing the same here, once, keeps the trained head equal bit
    # for bit to a loop over that function. Dropping the second pass moved
    # the benchmark's train-mid peak RSS by ~10 MB at some checkout paths:
    # glibc heap state that the path moves as well, not this loop's arrays.
    x_hat = normalize_rows(normalize_rows(text_embs.matrix))
    n_rows = x_hat.shape[0]
    rng = np.random.default_rng(cfg.seed)

    if init is not None:
        if init.weights.shape != (k, d):
            raise ShapeMismatch(f"init head shape {init.weights.shape}, expected {(k, d)}")
        weights, bias = init.weights.copy(), init.bias.copy()
    else:
        weights = rng.normal(0.0, 1.0 / math.sqrt(d), size=(k, d))
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
