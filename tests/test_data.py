import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from textprobe import data
from textprobe.core import normalize, normalize_rows
from textprobe.data import (
    BUNDLE_MAGIC,
    EmbeddingBundle,
    MODALITY_IMAGE,
    MODALITY_TEXT,
    SyntheticSpaceConfig,
    TextDataset,
    build_text_dataset,
    read_bundle,
    synthetic_bundle,
    synthetic_class_means,
    synthetic_encode,
    write_bundle,
)
from textprobe.errors import (
    EmptyDataset,
    FormatError,
    InvalidConfig,
    MissingClassDescriptions,
    MissingLabels,
    NonFiniteValue,
    ShapeMismatch,
    TruncatedFile,
    UnknownClassId,
    ZeroVector,
)
from textprobe.llm import Description
from textprobe.prompts import ClassVocabulary


def make_descriptions(n_classes, prompts_per_class, samples):
    out = []
    for c in range(n_classes):
        for p in range(prompts_per_class):
            for s in range(samples):
                out.append(
                    Description(
                        prompt_id=f"t/{c}/{p}/-",
                        class_id=c,
                        text=f"description {c}/{p}/{s}",
                        sample_index=s,
                    )
                )
    return out


class TestTextDataset:
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_class_id_outside_the_vocabulary_is_named(self, bad):
        vocab = ClassVocabulary(("a", "b", "c"))
        with pytest.raises(UnknownClassId,
                           match=rf"^item 1 has class_id {bad}, vocabulary has 3 classes$"):
            TextDataset([("x", 0), ("y", bad)], vocab)

    def test_items_are_a_tuple_that_cannot_be_rebound(self):
        vocab = ClassVocabulary(("a", "b"))
        items = [("x", 0), ("y", 1)]
        ds = TextDataset(items, vocab)
        items.append(("z", 5))
        assert ds.items == (("x", 0), ("y", 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.items = [("z", 5)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.vocab = ClassVocabulary(("a",))


class TestBuildTextDataset:
    def test_cardinality(self):
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(10)))
        descs = make_descriptions(10, 2, 5)
        ds = build_text_dataset(descs, vocab)
        assert len(ds) == 100
        labels = ds.labels
        assert all(int((labels == c).sum()) == 10 for c in range(10))

    def test_matching_is_structural(self):
        # The class ride along from the prompt, not from string search.
        vocab = ClassVocabulary(("banded", "braided"))
        desc = Description(
            prompt_id="dtd/0/0/-",
            class_id=0,
            text="A banded texture has distinct lines or stripes of contrasting colors.",
            sample_index=0,
        )
        other = Description(
            prompt_id="dtd/1/0/-", class_id=1, text="woven-like appearance", sample_index=0
        )
        ds = build_text_dataset([desc, other], vocab)
        assert ds.items[0] == (desc.text, 0)

    def test_unknown_class_id(self):
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(10)))
        bad = [Description(prompt_id="x", class_id=99, text="t", sample_index=0)]
        with pytest.raises(UnknownClassId):
            build_text_dataset(bad, vocab)

    def test_empty_dataset(self):
        vocab = ClassVocabulary(("a",))
        with pytest.raises(EmptyDataset):
            build_text_dataset([], vocab)

    def test_missing_class_is_hard_error(self):
        vocab = ClassVocabulary(("a", "b"))
        descs = [Description(prompt_id="x", class_id=0, text="t", sample_index=0)]
        with pytest.raises(MissingClassDescriptions, match="b"):
            build_text_dataset(descs, vocab)
        ds = build_text_dataset(descs, vocab, allow_missing_classes=True)
        assert len(ds) == 1

    def test_deterministic_order(self):
        vocab = ClassVocabulary(("a", "b"))
        descs = make_descriptions(2, 2, 2)
        shuffled = list(reversed(descs))
        ds1 = build_text_dataset(descs, vocab)
        ds2 = build_text_dataset(shuffled, vocab)
        assert ds1.items == ds2.items

    def test_item_count_matches_valid_descriptions(self):
        vocab = ClassVocabulary(("a", "b"))
        descs = make_descriptions(2, 3, 4)
        ds = build_text_dataset(descs, vocab)
        assert len(ds) == len(descs)


class TestBundleFormat:
    def test_round_trip(self, tmp_path, rng):
        mat = rng.standard_normal((7, 5)).astype(np.float32)
        bundle = EmbeddingBundle.from_matrix(
            mat, labels=[0, 1, 2, 3, 4, 5, 6], provenance={"encoder": "test"}
        )
        path = tmp_path / "b.tape"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert loaded.matrix.tobytes() == bundle.matrix.tobytes()
        assert loaded.labels == bundle.labels
        assert loaded.provenance["encoder"] == "test"

    def test_round_trip_without_labels(self, tmp_path, rng):
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((3, 4)))
        path = tmp_path / "b.tape"
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert loaded.labels is None
        np.testing.assert_array_equal(loaded.matrix, bundle.matrix)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tape"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_bundle(path)

    def test_bad_version(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # version field
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_bundle(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((10, 4))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])  # drop half a row
        with pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "b.tape"
        path.write_bytes(BUNDLE_MAGIC + b"\x01")
        with pytest.raises(TruncatedFile):
            read_bundle(path)

    def test_trailing_garbage(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((2, 2))), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_bundle(path)

    def test_non_finite_rejected_at_construction(self):
        mat = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(NonFiniteValue):
            EmbeddingBundle.from_matrix(mat)

    def test_label_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            EmbeddingBundle.from_matrix(np.zeros((3, 2)), labels=[0, 1])

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_zero_width_matrix_rejected_at_construction(self, shape):
        # read_bundle refuses a declared dimension of 0, so no bundle may have one.
        with pytest.raises(ShapeMismatch, match="at least one column"):
            EmbeddingBundle.from_matrix(np.zeros(shape), labels=[0] * shape[0])

    def test_count_and_dimension_are_the_matrix_shape(self, rng):
        for shape in [(5, 3), (2, 3), (0, 7)]:
            bundle = EmbeddingBundle.from_matrix(rng.standard_normal(shape))
            assert (bundle.count, bundle.dimension) == shape

    def test_a_bundle_is_frozen(self):
        bundle = EmbeddingBundle.from_matrix(np.eye(2), labels=[0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.matrix = np.zeros((2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            bundle.labels = (1, 0)
        with pytest.raises(ValueError, match="read-only"):
            bundle.matrix[0, 0] = 5.0
        assert bundle.labels == (0, 1) and bundle.matrix.tolist() == [[1, 0], [0, 1]]

    def test_overwrite_removes_stale_manifest(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        write_bundle(
            EmbeddingBundle.from_matrix(rng.standard_normal((2, 2)), labels=[0, 1]),
            path,
        )
        assert (tmp_path / "b.tape.manifest.json").is_file()
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((2, 2))), path)
        assert not (tmp_path / "b.tape.manifest.json").is_file()
        assert read_bundle(path).labels is None

    def test_manifest_label_mismatch(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        write_bundle(
            EmbeddingBundle.from_matrix(rng.standard_normal((3, 2)), labels=[0, 1, 2]),
            path,
        )
        manifest = tmp_path / "b.tape.manifest.json"
        manifest.write_text('{"labels": [0, 1]}')
        with pytest.raises(FormatError):
            read_bundle(path)

    @pytest.mark.parametrize("sidecar, named", [
        ({"labels": [1.7, True, "2"]}, "labels[0]"),
        ({"labels": [0, True, 2]}, "labels[1]"),
        ({"labels": [0, 1, 2], "lables": [0, 1, 2]}, "'lables'"),
        ({"labels": [0, 1, 2], "source": 5}, "source"),
    ])
    def test_mistyped_or_unknown_sidecar_key_names_file_and_key(self, tmp_path, rng,
                                                               sidecar, named):
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((3, 2))), path)
        manifest = tmp_path / "b.tape.manifest.json"
        manifest.write_text(json.dumps(sidecar))
        with pytest.raises(InvalidConfig, match=re.escape(named)) as raised:
            read_bundle(path)
        assert str(raised.value).startswith(f"{manifest}: ")

    @pytest.mark.parametrize("labels, named", [
        ([0, 1.7], "labels[1]"), ([True, 0], "labels[0]"), ([0, "2"], "labels[1]"),
    ])
    def test_non_integer_labels_rejected_by_index(self, labels, named):
        with pytest.raises(InvalidConfig, match=re.escape(named)):
            EmbeddingBundle.from_matrix(np.zeros((2, 2)), labels=labels)

    @pytest.mark.parametrize("provenance, named", [
        ({"source": 5}, "source"), ({"class_names": ["a", None]}, "class_names[1]"),
    ])
    def test_mistyped_provenance_is_refused_before_anything_is_written(
            self, tmp_path, provenance, named):
        path = tmp_path / "b.tape"
        bundle = EmbeddingBundle.from_matrix(np.zeros((2, 2)), provenance=provenance)
        with pytest.raises(InvalidConfig, match=re.escape(named)):
            write_bundle(bundle, path)
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_labels_become_python_ints(self):
        bundle = EmbeddingBundle.from_matrix(np.zeros((2, 2)), labels=np.array([1, 0]))
        assert bundle.labels == (1, 0)
        assert all(type(c) is int for c in bundle.labels)

    def test_labels_array_of_an_unlabelled_bundle_raises_missing_labels(self):
        bundle = EmbeddingBundle.from_matrix(np.zeros((2, 2)))
        with pytest.raises(MissingLabels, match="^embedding bundle has no labels$"):
            bundle.labels_array()
        with pytest.raises(MissingLabels, match="^template bundle has no labels$"):
            bundle.labels_array("template")
        assert MissingLabels.exit_code == 5
        labelled = EmbeddingBundle.from_matrix(np.zeros((2, 2)), labels=[1, 0])
        np.testing.assert_array_equal(labelled.labels_array(), np.array([1, 0], dtype=np.int64))

    def test_read_returns_a_read_only_array_of_its_own(self, tmp_path, rng):
        path = tmp_path / "b.tape"
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((6, 3)), labels=range(6))
        write_bundle(bundle, path)
        blob = path.read_bytes()
        loaded, again = read_bundle(path), read_bundle(path)
        assert loaded.matrix.dtype == np.dtype("<f4")
        assert loaded.matrix.tobytes() == bundle.matrix.tobytes()
        assert not loaded.matrix.flags.writeable and loaded.matrix.flags.c_contiguous
        assert loaded.matrix.flags.owndata and not np.shares_memory(loaded.matrix, again.matrix)
        with pytest.raises(ValueError, match="read-only"):
            loaded.matrix[0, 0] = 7.0
        assert path.read_bytes() == blob
        assert again.matrix.tobytes() == bundle.matrix.tobytes()

    def test_empty_bundle_round_trips(self, tmp_path):
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(np.zeros((0, 4))), path)
        loaded = read_bundle(path)
        assert (loaded.count, loaded.dimension) == (0, 4)
        assert loaded.matrix.shape == (0, 4)

    @given(
        mat=hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False,
                allow_infinity=False, width=32,
            ),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_lossless_property(self, mat, tmp_path_factory):
        path = tmp_path_factory.mktemp("bundles") / "b.tape"
        bundle = EmbeddingBundle.from_matrix(mat)
        write_bundle(bundle, path)
        loaded = read_bundle(path)
        assert loaded.matrix.tobytes() == np.ascontiguousarray(mat, dtype="<f4").tobytes()


class TestSyntheticSpace:
    def test_noise_free_samples_equal_normalized_means(self):
        space = SyntheticSpaceConfig(dimension=16, classes=4, sigma_intra=0.0, gap=0.0, seed=3)
        means, _ = synthetic_class_means(space)
        items = [("x", c) for c in range(4)]
        bundle = synthetic_encode(items, space, modality=MODALITY_TEXT)
        for c in range(4):
            expected = normalize(means[c]).astype(np.float32)
            np.testing.assert_array_equal(bundle.matrix[c], expected)

    def test_same_seed_bytewise_identical(self):
        space = SyntheticSpaceConfig(dimension=32, classes=5, sigma_intra=0.2, gap=0.1, seed=7)
        items = [("x", c % 5) for c in range(25)]
        b1 = synthetic_encode(items, space, modality=MODALITY_IMAGE)
        b2 = synthetic_encode(items, space, modality=MODALITY_IMAGE)
        assert b1.matrix.tobytes() == b2.matrix.tobytes()

    def test_nearest_mean_oracle_100_percent(self, base_space, text_bundle_50):
        # Brute-force nearest-class-mean classification of the generated
        # samples, fully independent of the library's classifiers.
        means, _ = synthetic_class_means(base_space)
        X = text_bundle_50.matrix.astype(np.float64)
        labels = np.asarray(text_bundle_50.labels)
        correct = 0
        for i in range(X.shape[0]):
            dists = [float(np.linalg.norm(X[i] - means[c])) for c in range(10)]
            correct += int(np.argmin(dists)) == labels[i]
        assert correct == X.shape[0]

    def test_gap_reduces_cross_modal_cosine_monotonically(self):
        sims = []
        for gap in (0.0, 0.2, 0.4, 0.8):
            space = SyntheticSpaceConfig(
                dimension=64, classes=6, sigma_intra=0.05, gap=gap, seed=0
            )
            text = synthetic_bundle(space, 20, modality=MODALITY_TEXT)
            image = synthetic_bundle(space, 20, modality=MODALITY_IMAGE)
            cos = float(
                np.mean(
                    np.sum(
                        text.matrix.astype(np.float64) * image.matrix.astype(np.float64),
                        axis=1,
                    )
                )
            )
            sims.append(cos)
        assert all(sims[i] > sims[i + 1] for i in range(len(sims) - 1))

    def test_modalities_share_means(self):
        space = SyntheticSpaceConfig(dimension=16, classes=3, sigma_intra=0.0, gap=0.0, seed=5)
        t = synthetic_encode([("x", 0)], space, modality=MODALITY_TEXT)
        i = synthetic_encode([("x", 0)], space, modality=MODALITY_IMAGE)
        np.testing.assert_array_equal(t.matrix, i.matrix)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            SyntheticSpaceConfig(dimension=1)
        with pytest.raises(InvalidConfig):
            SyntheticSpaceConfig(sigma_intra=-0.1)

    @pytest.mark.parametrize("field, value, named", [
        ("seed", -1, "seed must be >= 0, got -1"),
        # A bundle's header holds the dimension as a u32.
        ("dimension", 2**32, "dimension must be < 2**32, got 4294967296"),
    ])
    def test_seed_and_dimension_bounds(self, field, value, named):
        with pytest.raises(InvalidConfig, match=re.escape(named)):
            SyntheticSpaceConfig(**{field: value})

    def test_label_outside_int64_is_refused_naming_it(self):
        with pytest.raises(InvalidConfig, match=re.escape("labels[1] must fit in int64")):
            EmbeddingBundle.from_matrix(np.eye(2), labels=[0, 2**63])
        bundle = EmbeddingBundle.from_matrix(np.eye(2), labels=[-2**63, 2**63 - 1])
        assert bundle.labels == (-2**63, 2**63 - 1)

    def test_unknown_class_in_items(self):
        space = SyntheticSpaceConfig(dimension=8, classes=2, sigma_intra=0.1, seed=0)
        with pytest.raises(UnknownClassId):
            synthetic_encode([("x", 5)], space)

    def test_overflowing_norm_is_refused_not_zeroed(self):
        space = SyntheticSpaceConfig(dimension=8, classes=2, sigma_intra=1e200)
        with pytest.raises(NonFiniteValue, match=r"^row 0 has a norm that overflows$"):
            synthetic_bundle(space, 3)

    def test_bundle_is_class_major_with_labels(self):
        space = SyntheticSpaceConfig(dimension=8, classes=3, sigma_intra=0.1, seed=0)
        bundle = synthetic_bundle(space, 4, modality=MODALITY_IMAGE)
        assert bundle.count == 12
        assert list(bundle.labels) == [0] * 4 + [1] * 4 + [2] * 4


def reference_rows(items, space, modality):
    """mu_c + sigma*eps (image rows also shifted by gap*g), one item at a time
    from the encoder's stream, in float64 and not yet normalized."""
    means, gap_dir = synthetic_class_means(space)
    stream = {MODALITY_TEXT: 1, MODALITY_IMAGE: 2}[modality]
    rng = np.random.default_rng(np.random.SeedSequence([space.seed, stream]))
    rows = np.empty((len(items), space.dimension))
    for idx, (_, class_id) in enumerate(items):
        base = means[class_id]
        if modality == MODALITY_IMAGE:
            base = base + space.gap * gap_dir
        rows[idx] = base + space.sigma_intra * rng.standard_normal(space.dimension)
    return rows


def reference_encode(items, space, modality):
    """The definition of the synthetic rows, one item at a time, in float64."""
    return np.array([vec / np.linalg.norm(vec) for vec in reference_rows(items, space, modality)])


class TestSyntheticEncodeMatchesRowLoop:
    @pytest.mark.parametrize("modality", [MODALITY_TEXT, MODALITY_IMAGE])
    @pytest.mark.parametrize("gap", [0.0, 0.35])
    # 3000 rows at d=96 span three normalize blocks of 1365 rows.
    @pytest.mark.parametrize("n_items", [1, 300, 3000])
    def test_bytes_equal_to_row_loop(self, modality, gap, n_items):
        space = SyntheticSpaceConfig(dimension=96, classes=7, sigma_intra=0.3, gap=gap, seed=11)
        items = [(f"x{i}", (5 * i + 3) % 7) for i in range(n_items)]
        bundle = synthetic_encode(items, space, modality=modality)
        expected = normalize_rows(reference_rows(items, space, modality), dtype=np.float32)
        assert bundle.matrix.tobytes() == expected.tobytes()
        assert bundle.matrix.tobytes() == reference_encode(items, space, modality).astype("<f4").tobytes()
        assert bundle.matrix.dtype == np.dtype("<f4") and bundle.matrix.shape == (n_items, 96)
        assert bundle.matrix.flags.owndata and not bundle.matrix.flags.writeable
        assert list(bundle.labels) == [c for _, c in items]

    def test_no_items(self):
        space = SyntheticSpaceConfig(dimension=8, classes=2, seed=0)
        bundle = synthetic_encode([], space)
        assert bundle.matrix.shape == (0, 8)

    def test_first_unknown_class_is_named_by_index(self):
        space = SyntheticSpaceConfig(dimension=8, classes=3, sigma_intra=0.1, seed=0)
        items = [("a", 0), ("b", 2), ("c", 3), ("d", -1)]
        with pytest.raises(UnknownClassId, match=r"item 2 has class_id 3"):
            synthetic_encode(items, space)

    def test_first_zero_vector_is_named_by_index(self, monkeypatch):
        space = SyntheticSpaceConfig(dimension=8, classes=3, sigma_intra=0.0, seed=0)
        means = np.eye(3, 8)
        means[1] = 0.0
        monkeypatch.setattr(data, "synthetic_class_means",
                            lambda space: (means, np.eye(1, 8)[0]))
        items = [("a", 0), ("b", 2), ("c", 1), ("d", 1)]
        with pytest.raises(ZeroVector, match=r"^row 2 has \(near-\)zero norm$"):
            synthetic_encode(items, space)
        # A zero vector ahead of an unknown class id is reported first, as the
        # first bad item in order.
        with pytest.raises(ZeroVector, match=r"^row 2 has \(near-\)zero norm$"):
            synthetic_encode(items[:3] + [("e", 9)], space)
        with pytest.raises(UnknownClassId, match=r"item 1 "):
            synthetic_encode([("a", 0), ("e", 9), ("c", 1)], space)
        # A bad row in the third normalize block is named by its index in the bundle.
        wide = SyntheticSpaceConfig(dimension=96, classes=3, sigma_intra=0.0, seed=0)
        monkeypatch.setattr(data, "synthetic_class_means",
                            lambda space: (np.eye(3, 96) * [[1.0], [0.0], [1.0]], np.eye(1, 96)[0]))
        items = [(f"x{i}", 2 * (i % 2)) for i in range(3000)]
        items[2800] = items[2900] = ("bad", 1)
        assert 2800 // (data._NORM_BLOCK_ELEMS // 96) == 2
        with pytest.raises(ZeroVector, match=r"^row 2800 has \(near-\)zero norm$"):
            synthetic_encode(items, wide)

    @pytest.mark.parametrize("class_id", ["2", True, 1.0])
    def test_class_ids_are_checked_before_any_draw(self, monkeypatch, class_id):
        monkeypatch.setattr(data, "synthetic_class_means",
                            lambda space: pytest.fail("drew before checking the class ids"))
        space = SyntheticSpaceConfig(dimension=8, classes=3, seed=0)
        message = re.escape(f"labels[1] must be an integer, got {class_id!r}")
        with pytest.raises(InvalidConfig, match=message):
            synthetic_encode([("a", 0), ("b", class_id)], space)

    def test_no_n_by_d_temporary_beyond_the_block(self):
        n, d = 4000, 256
        space = SyntheticSpaceConfig(dimension=d, classes=10, seed=0)
        items = [(f"x{i}", i % 10) for i in range(n)]
        synthetic_encode(items[:2], space)  # first-call allocations are not the encoder's
        tracemalloc.start()
        try:
            synthetic_encode(items, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The float64 block (1) and the bundle's float32 rows (0.5), made in ~1 MB blocks.
        assert peak < 1.8 * n * d * 8


class TestBundleReadMemory:
    def test_read_holds_one_payload(self, tmp_path, rng):
        n, d = 4000, 256
        path = tmp_path / "b.tape"
        write_bundle(EmbeddingBundle.from_matrix(rng.standard_normal((n, d)),
                                                 labels=[i % 10 for i in range(n)]), path)
        read_bundle(path)  # first-call allocations are not the reader's
        tracemalloc.start()
        try:
            read_bundle(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The payload (1) and its isfinite mask (0.25); a copy of the payload would add 1.
        assert peak < 1.5 * n * d * 4


class TestSyntheticSpaceKeys:
    def test_unknown_key_is_named(self):
        with pytest.raises(InvalidConfig, match="dimesion"):
            SyntheticSpaceConfig.from_dict({"dimesion": 64, "classes": 3})

    def test_known_keys_round_trip(self):
        space = SyntheticSpaceConfig(dimension=16, classes=3, sigma_intra=0.2, gap=0.1, seed=4)
        assert SyntheticSpaceConfig.from_dict(space.to_dict()) == space
