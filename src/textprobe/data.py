"""Text dataset assembly, the embedding-bundle file format, and a synthetic
shared embedding space for desk-scale runs.

Bundle binary layout (little-endian):

    magic   4 bytes  b"TAPE"
    version u32      1
    dim     u32
    count   u64
    data    count * dim float32, row-major

An optional sidecar manifest "<file>.manifest.json" carries row labels and
provenance ({labels, class_names, encoder, source, created_at}). Matrices
are stored in float32; all computation elsewhere promotes to float64.

The synthetic space draws one unit-normalized Gaussian mean per class from a
seed. Text samples are normalize(mu_c + sigma*eps); image samples add a
constant gap direction first, normalize(mu_c + gap*g + sigma*eps), modeling
the systematic text/image offset of real dual-encoder spaces. Same seed,
same inputs: bytewise-identical bundles. The noise of all n items is one
(n, d) block draw, which consumes the stream exactly as n row draws do.
Each row's norm is sqrt(row.dot(row)), computed row by row: that is what
np.linalg.norm of one vector computes, while a vectorized norm (axis=1 or
einsum) can differ in the last bit, and the rows must not change with it.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .atomic import atomic_write, read_jsonl, write_jsonl
from .errors import (
    EmptyDataset,
    FormatError,
    InvalidConfig,
    MissingClassDescriptions,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedFile,
    UnknownClassId,
    ZeroVector,
    _checked,
    _float,
    _integer,
)
from .llm import Description
from .prompts import ClassVocabulary

BUNDLE_MAGIC = b"TAPE"
BUNDLE_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")

_ZERO_EPS = 1e-12


@dataclass
class TextDataset:
    """(description text, class id) pairs over a vocabulary."""

    items: list[tuple[str, int]]
    vocab: ClassVocabulary

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([c for _, c in self.items], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.items)


def description_items(descriptions: list[Description]) -> list[tuple[str, int]]:
    """(text, class id) of the descriptions with non-blank text, in dataset row
    order (class id, prompt id, sample index); text bundles follow it too."""
    kept = sorted(
        (d for d in descriptions if d.text.strip()),
        key=lambda d: (d.class_id, d.prompt_id, d.sample_index),
    )
    return [(d.text, d.class_id) for d in kept]


def class_name_items(vocab: ClassVocabulary) -> list[tuple[str, int]]:
    """(class name, class id), one per class in id order: the rows of a
    class-name bundle."""
    return [(name, cid) for cid, name in vocab.classes]


def build_text_dataset(
    descriptions: list[Description],
    vocab: ClassVocabulary,
    allow_missing_classes: bool = False,
) -> TextDataset:
    """Match descriptions to labels via the class id stamped at prompt time.

    Matching is structural, not string search: every description inherits the
    class of the prompt that produced it. Items follow `description_items`,
    which drops blank texts; by default every class must end up with at least
    one item, because a classifier row with no training data is silently
    broken.
    """
    for d in descriptions:
        if not (0 <= d.class_id < len(vocab)):
            raise UnknownClassId(
                f"description {d.prompt_id!r} has class_id {d.class_id}, "
                f"vocabulary has {len(vocab)} classes"
            )
    items = description_items(descriptions)
    if not items:
        raise EmptyDataset("no descriptions survived validation")

    present = {cid for _, cid in items}
    missing = [cid for cid in vocab.class_ids if cid not in present]
    if missing and not allow_missing_classes:
        names = ", ".join(vocab.name_of(c) for c in missing)
        raise MissingClassDescriptions(
            f"{len(missing)} class(es) have no descriptions: {names}"
        )
    return TextDataset(items=items, vocab=vocab)


def write_text_dataset_jsonl(dataset: TextDataset, path) -> None:
    write_jsonl(path, ({"text": text, "class_id": class_id}
                       for text, class_id in dataset.items))


def read_text_dataset_jsonl(path, vocab: ClassVocabulary) -> TextDataset:
    items = [(rec["text"], rec["class_id"])
             for _, rec in read_jsonl(path, {"text": str, "class_id": int})]
    for _, cid in items:
        if not 0 <= cid < len(vocab):
            raise UnknownClassId(f"class_id {cid} outside vocabulary")
    return TextDataset(items=items, vocab=vocab)


# -- embedding bundles -----------------------------------------------------------

@dataclass(eq=False)
class EmbeddingBundle:
    """A (count, dimension) float32 matrix with optional row labels."""

    dimension: int
    count: int
    matrix: np.ndarray
    labels: tuple[int, ...] | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.matrix), dtype="<f4")
        if mat.ndim != 2 or mat.shape != (self.count, self.dimension):
            raise ShapeMismatch(
                f"matrix shape {mat.shape} does not match "
                f"(count={self.count}, dimension={self.dimension})"
            )
        if not np.all(np.isfinite(mat)):
            raise NonFiniteValue("bundle matrix contains NaN or Inf")
        if self.labels is not None:
            labels = tuple(int(c) for c in self.labels)
            if len(labels) != self.count:
                raise ShapeMismatch(
                    f"{len(labels)} labels for {self.count} rows"
                )
            self.labels = labels
        self.matrix = mat

    @classmethod
    def from_matrix(cls, matrix, labels=None, provenance=None) -> "EmbeddingBundle":
        mat = np.asarray(matrix)
        if mat.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D matrix, got shape {mat.shape}")
        return cls(
            dimension=int(mat.shape[1]),
            count=int(mat.shape[0]),
            matrix=mat,
            labels=tuple(int(c) for c in labels) if labels is not None else None,
            provenance=dict(provenance or {}),
        )

    def labels_array(self) -> np.ndarray:
        if self.labels is None:
            raise ShapeMismatch("bundle has no labels")
        return np.asarray(self.labels, dtype=np.int64)


def write_bundle(bundle: EmbeddingBundle, path) -> None:
    """Write the binary bundle plus a manifest sidecar when there is metadata."""
    path = Path(path)
    mat = np.ascontiguousarray(bundle.matrix, dtype="<f4")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteValue("refusing to write non-finite embeddings")
    header = _HEADER.pack(BUNDLE_MAGIC, BUNDLE_VERSION, bundle.dimension, bundle.count)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(mat.data)
    manifest: dict = {}
    if bundle.labels is not None:
        manifest["labels"] = list(bundle.labels)
    for key in ("class_names", "encoder", "source", "created_at"):
        if key in bundle.provenance:
            manifest[key] = bundle.provenance[key]
    manifest_path = Path(str(path) + ".manifest.json")
    if manifest:
        with atomic_write(manifest_path) as fh:
            fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    elif manifest_path.is_file():
        # Do not let a stale sidecar from a previous write describe this bundle.
        manifest_path.unlink()


def read_bundle(path) -> EmbeddingBundle:
    """Read a bundle written by write_bundle; lossless for float32 data."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFile(f"{path}: file shorter than the {_HEADER.size}-byte header")
        magic, version, dimension, count = _HEADER.unpack(head)
        if magic != BUNDLE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {BUNDLE_MAGIC!r}")
        if version != BUNDLE_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if dimension < 1:
            raise FormatError(f"{path}: declared dimension {dimension} < 1")
        expected = count * dimension * 4
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size == expected:
            mat = np.empty((count, dimension), dtype="<f4")
            size = fh.readinto(mat)  # short only if the file shrank meanwhile
        if size < expected:
            raise TruncatedFile(
                f"{path}: payload holds {size} bytes, header declares {expected}"
            )
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteValue(f"{path}: matrix contains NaN or Inf")

    labels = None
    provenance: dict = {}
    manifest_path = Path(str(path) + ".manifest.json")
    if manifest_path.is_file():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
        if "labels" in manifest and manifest["labels"] is not None:
            labels = tuple(int(c) for c in manifest["labels"])
            if len(labels) != count:
                raise FormatError(
                    f"{manifest_path}: {len(labels)} labels for {count} rows"
                )
        for key in ("class_names", "encoder", "source", "created_at"):
            if key in manifest:
                provenance[key] = manifest[key]
    return EmbeddingBundle(
        dimension=int(dimension),
        count=int(count),
        matrix=mat,
        labels=labels,
        provenance=provenance,
    )


# -- synthetic shared space ---------------------------------------------------------

MODALITY_TEXT = "text"
MODALITY_IMAGE = "image"
_MODALITY_STREAM = {MODALITY_TEXT: 1, MODALITY_IMAGE: 2}


@dataclass(frozen=True)
class SyntheticSpaceConfig:
    """Deterministic stand-in for a shared text-image embedding space."""

    dimension: int = 128
    classes: int = 10
    sigma_intra: float = 0.1
    gap: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 2:
            raise InvalidConfig(f"dimension must be >= 2, got {self.dimension}")
        if self.classes < 1:
            raise InvalidConfig(f"classes must be >= 1, got {self.classes}")
        if self.sigma_intra < 0:
            raise InvalidConfig(f"sigma_intra must be >= 0, got {self.sigma_intra}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict, prefix: str = "") -> "SyntheticSpaceConfig":
        """Build from a mapping of field names, float fields as floats. An unknown
        key or a non-number (non-integer for an int field) raises InvalidConfig."""
        return cls(**_checked(doc, {
            f.name: (_integer if isinstance(f.default, int) else _float, f.default)
            for f in fields(cls)
        }, prefix))


def synthetic_class_means(space: SyntheticSpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Class means (K, d), unit rows, plus the unit modality-gap direction.

    Both depend only on the seed, so text and image bundles generated from
    the same config share the same geometry.
    """
    rng = np.random.default_rng(np.random.SeedSequence(space.seed))
    raw = rng.standard_normal((space.classes, space.dimension))
    means = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    g = rng.standard_normal(space.dimension)
    g = g / np.linalg.norm(g)
    return means, g


def synthetic_encode(
    items: list[tuple[str, int]],
    space: SyntheticSpaceConfig,
    modality: str = MODALITY_TEXT,
) -> EmbeddingBundle:
    """Embed (text, class_id) items into the synthetic space.

    Text rows are normalize(mu_c + sigma*eps); image rows additionally shift
    by gap*g before normalizing. Noise comes from a per-modality stream
    derived from the seed, so repeated calls with the same inputs are
    bytewise identical.
    """
    if modality not in _MODALITY_STREAM:
        raise InvalidConfig(f"modality must be 'text' or 'image', got {modality!r}")
    means, gap_dir = synthetic_class_means(space)
    if modality == MODALITY_IMAGE:
        means = means + space.gap * gap_dir
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([space.seed, _MODALITY_STREAM[modality]])
    )
    labels = [class_id for _, class_id in items]
    bad = next(
        (idx for idx, c in enumerate(labels) if not 0 <= c < space.classes), None
    )
    n = len(labels) if bad is None else bad
    # One block draw, then norms row by row (see the module docstring).
    rows = noise_rng.standard_normal((n, space.dimension))
    rows *= space.sigma_intra
    rows += means[np.asarray(labels[:n], dtype=np.intp)]
    norms = np.sqrt([row.dot(row) for row in rows])
    zero = np.flatnonzero(norms < _ZERO_EPS)
    if zero.size:
        raise ZeroVector(f"item {int(zero[0])} collapsed to a zero vector")
    if bad is not None:
        raise UnknownClassId(
            f"item {bad} has class_id {labels[bad]}, space has {space.classes} classes"
        )
    rows /= norms[:, None]
    return EmbeddingBundle.from_matrix(
        rows,
        labels=labels,
        provenance={
            "encoder": "synthetic",
            "source": f"synthetic:{modality}",
        },
    )


def synthetic_bundle(
    space: SyntheticSpaceConfig,
    samples_per_class: int,
    modality: str = MODALITY_IMAGE,
) -> EmbeddingBundle:
    """Labeled bundle with `samples_per_class` rows per class, class-major."""
    if samples_per_class < 1:
        raise InvalidConfig("samples_per_class must be >= 1")
    items = [
        (f"{modality} sample {j} of class {c}", c)
        for c in range(space.classes)
        for j in range(samples_per_class)
    ]
    return synthetic_encode(items, space, modality=modality)
