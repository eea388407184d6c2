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
are stored in float32; all computation elsewhere promotes to float64. An
EmbeddingBundle's count and dimension are its matrix's shape; a matrix with
no columns is refused when the bundle is made, as the reader refuses it. A
bundle owns a read-only copy of its matrix, made by its constructor; a caller's
array is never kept or frozen. The reader and the synthetic encoder hand over
the float32 array they filled, without a copy.

The synthetic space draws one unit-normalized Gaussian mean per class from a
seed. Text samples are normalize(mu_c + sigma*eps); image samples add a
constant gap direction first, normalize(mu_c + gap*g + sigma*eps), modeling
the systematic text/image offset of real dual-encoder spaces. Same seed,
same inputs: bytewise-identical bundles. The noise of all n items is one
(n, d) float64 draw, which consumes the stream exactly as n row draws do.
`core.normalize_rows` makes the float32 unit rows, the class means and the
gap direction, and refuses a row whose norm overflows. Earlier versions took
one dot product per row for its norm, so their bundles can differ in the last
bit of a float32 entry (1 of 235.5 M entries in the benchmark's run-all image
bundles at seeds 21-40).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_write, read_json, read_jsonl, write_json, write_jsonl
from .core import _NORM_BLOCK_ELEMS, _owning, normalize, normalize_rows
from .errors import (
    EmptyDataset,
    FormatError,
    InvalidConfig,
    MissingClassDescriptions,
    MissingLabels,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedFile,
    UnknownClassId,
    _Config,
    _at_least,
    _checked,
    _float,
    _list,
    _rule,
    _string,
    _strings,
    _whole,
)
from .llm import Description
from .prompts import ClassVocabulary

BUNDLE_MAGIC = b"TAPE"
BUNDLE_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")


@dataclass(frozen=True)
class TextDataset:
    """(description text, class id) pairs over a vocabulary, kept as a tuple; a
    class id outside the vocabulary is refused with UnknownClassId, naming the item."""

    items: tuple[tuple[str, int], ...]
    vocab: ClassVocabulary

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        for i, (_, cid) in enumerate(self.items):
            if not 0 <= cid < len(self.vocab):
                raise UnknownClassId(
                    f"item {i} has class_id {cid}, vocabulary has {len(self.vocab)} classes")

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
    return _covered(TextDataset(items=items, vocab=vocab), allow_missing_classes)


def _covered(dataset: TextDataset, allow_missing_classes: bool) -> TextDataset:
    """`dataset`, if every class of its vocabulary has an item or
    `allow_missing_classes`; else MissingClassDescriptions naming the rest."""
    present = {cid for _, cid in dataset.items}
    missing = [name for cid, name in dataset.vocab.classes if cid not in present]
    if missing and not allow_missing_classes:
        raise MissingClassDescriptions(
            f"{len(missing)} class(es) have no descriptions: {', '.join(missing)}"
        )
    return dataset


def write_text_dataset_jsonl(dataset: TextDataset, path) -> None:
    write_jsonl(path, ({"text": text, "class_id": class_id}
                       for text, class_id in dataset.items))


_TEXT_DATASET_FIELDS = {"text": (_string, ...), "class_id": (_whole, ...)}


def read_text_dataset_jsonl(path, vocab: ClassVocabulary) -> TextDataset:
    """The dataset a JSON-lines file of {text, class_id} records holds; a class
    id outside `vocab` raises UnknownClassId naming file and line."""
    items = []
    for lineno, rec in read_jsonl(path, _TEXT_DATASET_FIELDS):
        if not 0 <= rec["class_id"] < len(vocab):
            raise UnknownClassId(f"{path}: line {lineno}: class_id {rec['class_id']}, "
                                 f"vocabulary has {len(vocab)} classes")
        items.append((rec["text"], rec["class_id"]))
    return TextDataset(items=items, vocab=vocab)


# -- embedding bundles -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EmbeddingBundle:
    """A read-only (count, dimension) float32 matrix of its own, with optional
    row labels; the count and dimension are the matrix's shape."""

    matrix: np.ndarray
    labels: tuple[int, ...] | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype="<f4", order="C")  # the bundle's own copy
        if mat.ndim != 2 or mat.shape[1] < 1:
            raise ShapeMismatch(
                f"expected a 2-D matrix of at least one column, got shape {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise NonFiniteValue("bundle matrix contains NaN or Inf")
        if self.labels is not None:
            object.__setattr__(self, "labels", _labels("labels", list(self.labels)))
            if len(self.labels) != mat.shape[0]:
                raise ShapeMismatch(f"{len(self.labels)} labels for {mat.shape[0]} rows")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_matrix(cls, matrix, labels=None, provenance=None) -> "EmbeddingBundle":
        return cls(matrix, labels, dict(provenance or {}))

    @property
    def count(self) -> int:
        return self.matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def labels_array(self, what: str = "embedding") -> np.ndarray:
        """The row labels as int64; MissingLabels("<what> bundle has no labels") if none."""
        if self.labels is None:
            raise MissingLabels(f"{what} bundle has no labels")
        return np.asarray(self.labels, dtype=np.int64)


def _labels(key, value) -> tuple[int, ...]:
    """The list `value` as a tuple of int64 values; a NumPy integer converts,
    and InvalidConfig names the first item that is not an integer or not in
    int64's range."""
    if not all(type(c) is int for c in _list(key, value)):
        for i, c in enumerate(value):
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise InvalidConfig(f"{key}[{i}] must be an integer, got {c!r}")
    labels = tuple(map(int, value))
    if labels and not (-2**63 <= min(labels) and max(labels) < 2**63):
        i = next(i for i, c in enumerate(labels) if not -2**63 <= c < 2**63)
        raise InvalidConfig(f"{key}[{i}] must fit in int64, got {labels[i]}")
    return labels


# Every sidecar key and its check; each is optional, and null means absent.
_SIDECAR = {"labels": (_labels, None), "class_names": (_strings, None),
            "encoder": (_string, None), "source": (_string, None), "created_at": (_string, None)}


def write_bundle(bundle: EmbeddingBundle, path) -> None:
    """Write the binary bundle plus a manifest sidecar when there is metadata."""
    path = Path(path)
    manifest = {key: bundle.provenance[key] for key in _SIDECAR
                if key != "labels" and key in bundle.provenance}
    _checked(manifest, _SIDECAR)  # the labels were checked when the bundle was made
    if bundle.labels is not None:
        manifest["labels"] = list(bundle.labels)
    header = _HEADER.pack(BUNDLE_MAGIC, BUNDLE_VERSION, bundle.dimension, bundle.count)
    with atomic_write(path, "wb") as fh:
        fh.write(header)
        fh.write(bundle.matrix.data)
    manifest_path = Path(str(path) + ".manifest.json")
    if manifest:
        write_json(manifest_path, manifest, sort_keys=True, indent=2)
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

    manifest_path = Path(str(path) + ".manifest.json")
    sidecar = (read_json(manifest_path, lambda doc: _checked(doc, _SIDECAR))
               if manifest_path.is_file() else {})
    labels = sidecar.pop("labels", None)
    if labels is not None and len(labels) != count:
        raise FormatError(f"{manifest_path}: {len(labels)} labels for {count} rows")
    return _owning(EmbeddingBundle, mat, labels=labels,
                   provenance={k: v for k, v in sidecar.items() if v is not None})


# -- synthetic shared space ---------------------------------------------------------

MODALITY_TEXT = "text"
MODALITY_IMAGE = "image"
_MODALITY_STREAM = {MODALITY_TEXT: 1, MODALITY_IMAGE: 2}


@dataclass(frozen=True)
class SyntheticSpaceConfig(_Config):
    """Deterministic stand-in for a shared text-image embedding space."""

    dimension: int = 128
    classes: int = 10
    sigma_intra: float = 0.1
    gap: float = 0.0
    seed: int = 0

    # A bundle's header holds its dimension as a u32.
    _CHECKS = {"dimension": _rule(_at_least(2), lambda d: d < 2**32, "must be < 2**32"),
               "classes": _at_least(1), "sigma_intra": _at_least(0, _float), "gap": _float,
               "seed": _at_least(0)}


def synthetic_class_means(space: SyntheticSpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Class means (K, d), unit rows, plus the unit modality-gap direction.

    Both depend only on the seed, so text and image bundles generated from
    the same config share the same geometry.
    """
    rng = np.random.default_rng(np.random.SeedSequence(space.seed))
    means = normalize_rows(rng.standard_normal((space.classes, space.dimension)))
    g = normalize(rng.standard_normal(space.dimension))
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
    labels = _labels("labels", [class_id for _, class_id in items])
    means, gap_dir = synthetic_class_means(space)
    if modality == MODALITY_IMAGE:
        means = means + space.gap * gap_dir
    noise_rng = np.random.default_rng(
        np.random.SeedSequence([space.seed, _MODALITY_STREAM[modality]])
    )
    # The rows of the module docstring; the first bad item in order raises.
    k = next((i for i, c in enumerate(labels) if not 0 <= c < space.classes), len(labels))
    ids = np.asarray(labels[:k], dtype=np.intp)
    rows = noise_rng.standard_normal((k, space.dimension))
    step = max(1, _NORM_BLOCK_ELEMS // space.dimension)
    with np.errstate(over="ignore"):  # an entry that overflows is named by normalize_rows
        rows *= space.sigma_intra
        for lo in range(0, k, step):  # by blocks: a gather of all n rows' means is (n, d)
            rows[lo:lo + step] += means[ids[lo:lo + step]]
    unit = normalize_rows(rows, dtype=np.float32)  # a bad row ahead of item k raises first
    if k < len(labels):
        raise UnknownClassId(
            f"item {k} has class_id {labels[k]}, space has {space.classes} classes")
    return _owning(EmbeddingBundle, unit, labels=labels, provenance={
        "encoder": "synthetic", "source": f"synthetic:{modality}"})


def synthetic_bundle(
    space: SyntheticSpaceConfig,
    samples_per_class: int,
    modality: str = MODALITY_IMAGE,
) -> EmbeddingBundle:
    """Labeled bundle with `samples_per_class` rows per class, class-major."""
    samples_per_class = _at_least(1)("samples_per_class", samples_per_class)
    items = [
        (f"{modality} sample {j} of class {c}", c)
        for c in range(space.classes)
        for j in range(samples_per_class)
    ]
    return synthetic_encode(items, space, modality=modality)
