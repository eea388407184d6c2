"""Unit normalization and the temperature-scaled softmax zero-shot classifier.

An image embedding is scored against one unit-normalized text embedding per
class; class probabilities are the softmax of the cosine similarities divided
by a temperature. All arithmetic runs in float64 regardless of the storage
dtype of the inputs, and the softmax subtracts the max logit before
exponentiating so CLIP-scale temperatures (tau ~ 0.01) stay stable.
`normalize_rows` is the package's one normalizer (`normalize` is its one-row
case): the unit rows of training, eval, class embeddings, synthetic bundles and
class means all come from it, and it refuses a row whose norm overflows.

All functions here are pure and safe for concurrent read-only use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NonFiniteValue, ShapeMismatch, ZeroVector

# Norms below this count as zero vectors.
ZERO_NORM_EPS = 1e-12

# Tolerance when validating that stored class embeddings are unit norm.
UNIT_NORM_TOL = 1e-6

# Rows are normalized in blocks of about this many elements (1 MB of float64).
_NORM_BLOCK_ELEMS = 1 << 17

# Default softmax temperature, matching the usual learned logit scale of
# contrastive dual encoders (logit scale ~ 100 <=> tau ~ 0.01).
DEFAULT_TEMPERATURE = 0.01


def normalize(values) -> np.ndarray:
    """v / ||v||_2 in float64 for a 1-D vector v: `normalize_rows` of its one row."""
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeMismatch(f"expected a 1-D vector, got shape {vec.shape}")
    return normalize_rows(vec[np.newaxis])[0]


def normalize_rows(matrix, dtype=np.float64) -> np.ndarray:
    """Unit-normalize every row of a 2-D array in float64, into a new `dtype`
    array: the one row normalizer of the package.

    Rows are normalized in blocks of about 1 MB of float64, each written
    into the result as it is done, so no other temporary the size of the
    matrix exists. A float32 result is the float64 one rounded, bit for bit.
    A NaN or Inf entry, or a norm that overflows, raises NonFiniteValue and
    a (near-)zero norm ZeroVector, each naming the row by its index in the
    whole matrix.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
    out = np.empty(mat.shape, dtype=dtype)
    step = max(1, _NORM_BLOCK_ELEMS // max(1, mat.shape[1]))
    for lo in range(0, mat.shape[0], step):
        block = mat[lo:lo + step].astype(np.float64)
        if not np.all(np.isfinite(block)):
            bad = lo + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise NonFiniteValue(f"row {bad} contains NaN or Inf")
        # What np.linalg.norm(block, axis=1) computes: each row reduces on
        # its own, so the norms do not depend on the block size.
        with np.errstate(over="ignore"):
            norms = np.sqrt(np.add.reduce(block * block, axis=1, keepdims=True))
        if not np.all(np.isfinite(norms)):
            bad = lo + int(np.flatnonzero(~np.isfinite(norms))[0])
            raise NonFiniteValue(f"row {bad} has a norm that overflows")
        if np.any(norms < ZERO_NORM_EPS):
            bad = lo + int(np.flatnonzero(norms < ZERO_NORM_EPS)[0])
            raise ZeroVector(f"row {bad} has (near-)zero norm")
        block /= norms
        out[lo:lo + step] = block
    return out


def stable_softmax(logits) -> np.ndarray:
    """Softmax over the last axis with max-logit subtraction, in float64."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ZeroShotConfig:
    """Settings for the similarity-softmax classifier."""

    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if not (self.temperature > 0):
            raise InvalidConfig(
                f"temperature must be positive, got {self.temperature}"
            )


def _owning(cls, matrix: np.ndarray, **fields):
    """A frozen `cls` that takes `matrix`, made read-only, without a copy or a check: a
    checked C-contiguous array nothing else references. `fields` are the other fields."""
    matrix.setflags(write=False)
    obj = object.__new__(cls)
    vars(obj).update(matrix=matrix, **fields)
    return obj


@dataclass(frozen=True, eq=False)
class ClassTextEmbeddings:
    """One unit-normalized text embedding per class, in vocabulary order: row c
    of `matrix`, a read-only copy of the array given, embeds class c."""

    matrix: np.ndarray  # (K, d)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.float64, order="C")
        if mat.ndim != 2:
            raise ShapeMismatch(f"expected (K, d) matrix, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteValue("class embeddings contain NaN or Inf")
        norms = np.linalg.norm(mat, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            bad = int(np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)[0])
            raise InvalidConfig(
                f"class embedding {bad} is not unit norm (|v|={norms[bad]:.8f})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, matrix) -> "ClassTextEmbeddings":
        """Build from a (K, d) matrix by normalizing each row, into an array of its own."""
        return _owning(cls, normalize_rows(matrix))

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(range(self.num_classes))

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]


def zero_shot_probabilities(
    img_emb, class_embs: ClassTextEmbeddings, cfg: ZeroShotConfig | None = None
) -> np.ndarray:
    """Class probabilities for one image embedding.

    p_c = exp(cos(t_c, v) / tau) / sum_c' exp(cos(t_c', v) / tau)

    The image embedding is normalized here (the class rows already are), so
    the dot products below are exactly the cosine similarities. Components
    sum to 1 within 1e-6 for any finite input and any tau > 0.
    """
    if cfg is None:
        cfg = ZeroShotConfig()
    v = normalize(img_emb)
    if v.shape[0] != class_embs.dimension:
        raise ShapeMismatch(
            f"image dimension {v.shape[0]} vs class dimension {class_embs.dimension}"
        )
    sims = class_embs.matrix @ v
    return stable_softmax(sims / cfg.temperature)


def predict_class(probs) -> int:
    """Index of the maximum score; ties break toward the lowest index."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeMismatch("predict_class needs a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("scores contain NaN or Inf")
    return int(np.argmax(arr))
