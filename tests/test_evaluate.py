import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textprobe import evaluate
from textprobe.core import (
    ClassTextEmbeddings,
    normalize,
    normalize_rows,
    stable_softmax,
)
from textprobe.data import (
    EmbeddingBundle,
    MODALITY_IMAGE,
    MODALITY_TEXT,
    SyntheticSpaceConfig,
    synthetic_bundle,
    synthetic_class_means,
    synthetic_encode,
)
from textprobe.errors import (
    EmptyDataset,
    InvalidConfig,
    MissingLabels,
    ShapeMismatch,
    UnknownClassId,
    ZeroVector,
)
from textprobe.evaluate import (
    EvalReport,
    EvalRow,
    PseudoLabelConfig,
    class_text_embeddings_from_bundle,
    evaluate_classifier,
    evaluate_zero_shot,
    pseudo_label_refine,
    render_report,
    train_tot_cls,
    train_tot_dst,
)
from textprobe.prompts import ClassVocabulary
from textprobe.train import LinearClassifier, TrainConfig, train_text_classifier
from conftest import dataset_for


def constant_classifier(k, d, winner=0):
    """Always predicts `winner` via the bias, regardless of the input."""
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(k)))
    bias = np.zeros(k)
    bias[winner] = 10.0
    return LinearClassifier(weights=np.zeros((k, d)), bias=bias, vocab=vocab)


class TestEvaluateClassifier:
    def test_constant_classifier_on_balanced_set(self, rng):
        k, d, per_class = 10, 16, 30
        mat = rng.standard_normal((k * per_class, d))
        labels = list(np.repeat(np.arange(k), per_class))
        bundle = EmbeddingBundle.from_matrix(mat, labels=labels)
        row = evaluate_classifier(constant_classifier(k, d), bundle)
        assert row.accuracy == pytest.approx(10.0)
        assert row.sample_count == 300

    def test_per_class_breakdown(self, rng):
        k, d = 3, 8
        mat = rng.standard_normal((6, d))
        bundle = EmbeddingBundle.from_matrix(mat, labels=[0, 0, 1, 1, 2, 2])
        row = evaluate_classifier(constant_classifier(k, d), bundle)
        assert row.per_class["0"]["accuracy"] == pytest.approx(100.0)
        assert row.per_class["1"]["accuracy"] == pytest.approx(0.0)
        assert row.per_class["0"]["count"] == 2

    def test_missing_labels(self, rng):
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((4, 8)))
        with pytest.raises(MissingLabels):
            evaluate_classifier(constant_classifier(3, 8), bundle)

    def test_dimension_mismatch(self, rng):
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((4, 9)), labels=[0] * 4)
        with pytest.raises(ShapeMismatch):
            evaluate_classifier(constant_classifier(3, 8), bundle)

    @pytest.mark.parametrize("labels, named", [([0, 1, 2, 4], "4"), ([-1, 0, 1, 2], "-1")])
    def test_label_outside_the_scorer_classes(self, rng, labels, named):
        # A label no class of the scorer can predict is refused before scoring.
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((4, 8)), labels=labels)
        with pytest.raises(UnknownClassId,
                           match=f"image label {named} is outside the classifier's 3 classes"):
            evaluate_classifier(constant_classifier(3, 8), bundle)
        embs = ClassTextEmbeddings.from_matrix(rng.standard_normal((3, 8)))
        with pytest.raises(UnknownClassId, match="class embedding's 3 classes"):
            evaluate_zero_shot(embs, bundle)

    def test_trained_head_on_noise_free_means(self, vocab10, base_space, text_bundle_50):
        ds = dataset_for(text_bundle_50, vocab10)
        cfg = TrainConfig(noise_sigma=0.1, label_smoothing=0.1, steps=500, seed=0)
        clf = train_text_classifier(ds, text_bundle_50, cfg)
        means, _ = synthetic_class_means(base_space)
        bundle = EmbeddingBundle.from_matrix(means, labels=list(range(10)))
        row = evaluate_classifier(clf, bundle)
        assert row.accuracy == pytest.approx(100.0)

    def test_oracle_weights_reach_99(self, base_space, image_bundle_200):
        # Rows = class means, zero bias: a nearest-mean classifier in
        # disguise (argmax of dot with unit-norm inputs).
        means, _ = synthetic_class_means(base_space)
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(10)))
        clf = LinearClassifier(weights=means, bias=np.zeros(10), vocab=vocab)
        row = evaluate_classifier(clf, image_bundle_200)
        assert row.accuracy >= 99.0

    def test_random_classifier_near_chance(self):
        # Predictions independent of balanced labels concentrate at 100/K.
        rng = np.random.default_rng(123)
        k, d, n = 10, 32, 10_000
        mat = rng.standard_normal((n, d))
        labels = list(np.repeat(np.arange(k), n // k))
        bundle = EmbeddingBundle.from_matrix(mat, labels=labels)
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(k)))
        clf = LinearClassifier(
            weights=rng.standard_normal((k, d)), bias=np.zeros(k), vocab=vocab
        )
        row = evaluate_classifier(clf, bundle)
        assert abs(row.accuracy - 10.0) <= 3.0


@pytest.mark.parametrize("score", [
    lambda images: evaluate_classifier(constant_classifier(8, 8), images),
    lambda images: evaluate_zero_shot(ClassTextEmbeddings.from_matrix(np.eye(8)), images),
    class_text_embeddings_from_bundle,
], ids=["classifier", "zero-shot", "ensemble"])
def test_labeled_bundle_without_rows_is_an_empty_dataset(score):
    with pytest.raises(EmptyDataset):
        score(EmbeddingBundle.from_matrix(np.zeros((0, 8)), labels=[]))


class TestEvaluateZeroShot:
    def test_perfect_alignment(self):
        ce = ClassTextEmbeddings.from_matrix(np.eye(4))
        bundle = EmbeddingBundle.from_matrix(np.eye(4), labels=[0, 1, 2, 3])
        row = evaluate_zero_shot(ce, bundle)
        assert row.accuracy == pytest.approx(100.0)

    def test_orthogonal_classes_small_noise(self):
        rng = np.random.default_rng(0)
        k, d, per_class = 8, 32, 25
        ce = ClassTextEmbeddings(np.eye(d)[:k])
        imgs = np.repeat(np.eye(d)[:k], per_class, axis=0)
        imgs = imgs + 0.01 * rng.standard_normal(imgs.shape)
        bundle = EmbeddingBundle.from_matrix(
            imgs, labels=list(np.repeat(np.arange(k), per_class))
        )
        row = evaluate_zero_shot(ce, bundle)
        assert row.accuracy == pytest.approx(100.0)

    @staticmethod
    def softmax_accuracy(ce, bundle, temperature):
        """Reference: overall and per-class accuracy of the argmax of the
        temperature softmax over cosine similarities."""
        probs = stable_softmax(normalize_rows(bundle.matrix) @ ce.matrix.T / temperature)
        preds, labels = np.argmax(probs, axis=1), bundle.labels_array()
        per_class = {
            str(c): 100.0 * int((preds[labels == c] == c).sum()) / int((labels == c).sum())
            for c in np.unique(labels)
        }
        return 100.0 * int((preds == labels).sum()) / len(labels), per_class

    def test_matches_softmax_path_on_random_inputs(self, rng):
        for _ in range(20):
            k, d, n = int(rng.integers(2, 12)), int(rng.integers(2, 40)), 60
            ce = ClassTextEmbeddings.from_matrix(rng.standard_normal((k, d)))
            bundle = EmbeddingBundle.from_matrix(
                rng.standard_normal((n, d)), labels=list(rng.integers(0, k, size=n))
            )
            for t in (0.01, 0.07, 1.0):
                row = evaluate_zero_shot(ce, bundle)
                accuracy, per_class = self.softmax_accuracy(ce, bundle, t)
                assert row.accuracy == accuracy
                assert {c: v["accuracy"] for c, v in row.per_class.items()} == per_class

    def test_exact_ties_go_to_lowest_index_like_softmax_path(self, rng):
        # Classes 1 and 2 share one embedding, so every image ties between
        # them; both paths must credit class 1 and never class 2.
        base = rng.standard_normal((3, 16))
        ce = ClassTextEmbeddings.from_matrix(base[[0, 1, 1, 2]])
        imgs = np.concatenate([np.tile(base[1], (5, 1)), rng.standard_normal((40, 16))])
        for labels in ([1] * 45, [2] * 45, list(rng.integers(0, 4, size=45))):
            bundle = EmbeddingBundle.from_matrix(imgs, labels=labels)
            for t in (0.01, 1.0):
                row = evaluate_zero_shot(ce, bundle)
                accuracy, per_class = self.softmax_accuracy(ce, bundle, t)
                assert row.accuracy == accuracy
                assert {c: v["accuracy"] for c, v in row.per_class.items()} == per_class
        tied = EmbeddingBundle.from_matrix(imgs[:5], labels=[2] * 5)
        assert evaluate_zero_shot(ce, tied).accuracy == 0.0

    def test_ensembling_identical_templates_is_identity(self, rng):
        single = normalize(rng.standard_normal(16))
        stacked = np.tile(single, (5, 1))
        bundle = EmbeddingBundle.from_matrix(stacked, labels=[0] * 5)
        ce = class_text_embeddings_from_bundle(bundle)
        np.testing.assert_allclose(ce.matrix[0], single, atol=1e-7)

    def test_ensembling_normalize_average_renormalize(self, rng):
        rows = rng.standard_normal((4, 8))
        bundle = EmbeddingBundle.from_matrix(rows, labels=[0, 0, 1, 1])
        ce = class_text_embeddings_from_bundle(bundle)
        stored = bundle.matrix.astype(np.float64)
        for cid, idx in ((0, [0, 1]), (1, [2, 3])):
            normed = stored[idx] / np.linalg.norm(stored[idx], axis=1, keepdims=True)
            expected = normalize(normed.mean(axis=0))
            np.testing.assert_allclose(ce.matrix[cid], expected, atol=1e-12)

    @pytest.mark.parametrize("labels", [[0, 2], [1, 1], [-1, 0], [0, 2 ** 40]])
    def test_bundle_must_cover_all_classes(self, rng, labels):
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((2, 4)), labels=labels)
        with pytest.raises(ShapeMismatch, match="must cover every class id"):
            class_text_embeddings_from_bundle(bundle)

    def test_ensembling_leaves_numpy_ma_unimported(self):
        """numpy.ma costs about 10 ms and 1.3 MB to import, and a first plain
        `np.unique` call imports it, mid-eval, while the image rows are held."""
        script = ("import sys, numpy as np\n"
                  "from textprobe.data import EmbeddingBundle\n"
                  "from textprobe.evaluate import class_text_embeddings_from_bundle\n"
                  "if 'numpy.ma' in sys.modules: sys.exit(3)\n"
                  "class_text_embeddings_from_bundle(EmbeddingBundle.from_matrix(\n"
                  "    np.eye(2), labels=[0, 1]))\n"
                  "sys.exit('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        code = subprocess.run([sys.executable, "-c", script], env=env).returncode
        if code == 3:
            pytest.skip("this NumPy imports numpy.ma with numpy")
        assert code == 0


class TestTotBaselines:
    def make_bundles(self, k=6, d=32, templates=2):
        space = SyntheticSpaceConfig(dimension=d, classes=k, sigma_intra=0.0, gap=0.0, seed=1)
        vocab = ClassVocabulary(tuple(f"c{i}" for i in range(k)))
        cls_bundle = synthetic_encode([(n, c) for c, n in vocab.classes], space)
        tpl = [f"a photo of a {{class}}, variant {t}." for t in range(templates)]
        dst_items = [(f"t{t} {n}", c) for c, n in vocab.classes for t in range(templates)]
        dst_bundle = synthetic_encode(dst_items, space)
        return vocab, cls_bundle, dst_bundle, tpl

    def test_dataset_cardinalities(self):
        vocab, cls_bundle, dst_bundle, tpl = self.make_bundles()
        assert cls_bundle.count == 6
        assert dst_bundle.count == 12

    def test_training_and_separability(self):
        vocab, cls_bundle, dst_bundle, tpl = self.make_bundles()
        cfg = TrainConfig(noise_sigma=0.0, label_smoothing=0.0, steps=500, seed=0)
        clf_cls = train_tot_cls(vocab, cls_bundle, cfg)
        clf_dst = train_tot_dst(vocab, dst_bundle, cfg)
        # K separable points: the cls-only head must fit them exactly.
        row = evaluate_classifier(clf_cls, cls_bundle)
        assert row.accuracy == pytest.approx(100.0)
        assert clf_dst.num_classes == 6

    def test_cls_bundle_must_be_one_per_class(self, rng):
        vocab = ClassVocabulary(("a", "b"))
        bad = EmbeddingBundle.from_matrix(rng.standard_normal((3, 4)), labels=[0, 0, 1])
        with pytest.raises(ShapeMismatch):
            train_tot_cls(vocab, bad, TrainConfig(steps=1))

    def test_dst_label_order_validated(self, rng):
        vocab, cls_bundle, dst_bundle, tpl = self.make_bundles()
        wrong = EmbeddingBundle.from_matrix(
            dst_bundle.matrix, labels=list(reversed(dst_bundle.labels))
        )
        with pytest.raises(ShapeMismatch):
            train_tot_dst(vocab, wrong, TrainConfig(steps=1))

    @pytest.mark.parametrize("labels, cls_ok, dst_ok", [
        ([0, 1], True, True),
        ([0, 0, 0, 1, 1, 1], False, True),  # three templates: the labels say so
        ([0, 0, 1], False, False),  # uneven
        ([0, 1, 0, 1], False, False),  # template-major
        ([0, 0, 0, 0], False, False),  # no row of class 1
        ([1, 1, 0, 0], False, False),  # classes out of order
    ])
    def test_layout_is_read_from_the_labels(self, rng, labels, cls_ok, dst_ok):
        vocab = ClassVocabulary(("a", "b"))
        bundle = EmbeddingBundle.from_matrix(rng.standard_normal((len(labels), 4)),
                                             labels=labels)
        for train_tot, ok in ((train_tot_cls, cls_ok), (train_tot_dst, dst_ok)):
            if ok:
                assert train_tot(vocab, bundle, TrainConfig(steps=1)).num_classes == 2
            else:
                with pytest.raises(ShapeMismatch):
                    train_tot(vocab, bundle, TrainConfig(steps=1))


@pytest.fixture(scope="module")
def confident_setup():
    # Overconfident head (no decay, no smoothing) on a near-separable task.
    space = SyntheticSpaceConfig(dimension=64, classes=5, sigma_intra=0.1, gap=0.0, seed=2)
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(5)))
    text = synthetic_bundle(space, 20, modality=MODALITY_TEXT)
    ds = dataset_for(text, vocab)
    cfg = TrainConfig(
        learning_rate=0.003, steps=1500, noise_sigma=0.0,
        label_smoothing=0.0, weight_decay=0.0, seed=0,
    )
    clf = train_text_classifier(ds, text, cfg)
    unlabeled = synthetic_bundle(space, 40, modality=MODALITY_IMAGE)
    heldout = synthetic_bundle(space, 100, modality=MODALITY_IMAGE)
    return clf, unlabeled, heldout


class TestPseudoLabelRefine:
    def test_threshold_one_returns_identical_parameters(self, confident_setup):
        clf, unlabeled, _ = confident_setup
        refined = pseudo_label_refine(
            clf, unlabeled, PseudoLabelConfig(confidence_threshold=1.0)
        )
        np.testing.assert_array_equal(refined.weights, clf.weights)
        np.testing.assert_array_equal(refined.bias, clf.bias)
        assert refined.train_meta["refine"]["kept"] == 0
        assert "warning" in refined.train_meta["refine"]

    def test_correct_pseudo_labels_do_not_hurt(self, confident_setup):
        clf, unlabeled, heldout = confident_setup
        initial = evaluate_classifier(clf, heldout).accuracy
        refined = pseudo_label_refine(
            clf, unlabeled, PseudoLabelConfig(confidence_threshold=0.99, refine_steps=200)
        )
        assert refined.train_meta["refine"]["kept"] > 0
        after = evaluate_classifier(refined, heldout).accuracy
        assert after >= initial

    def test_dimension_mismatch(self, confident_setup, rng):
        clf, _, _ = confident_setup
        bad = EmbeddingBundle.from_matrix(rng.standard_normal((4, 8)))
        with pytest.raises(ShapeMismatch):
            pseudo_label_refine(clf, bad)

    def test_threshold_validation(self):
        with pytest.raises(InvalidConfig):
            PseudoLabelConfig(confidence_threshold=0.0)
        with pytest.raises(InvalidConfig):
            PseudoLabelConfig(confidence_threshold=1.5)


def rows_2x2():
    return [
        EvalRow(method="m1", dataset="d1", accuracy=50.0, sample_count=10),
        EvalRow(method="m1", dataset="d2", accuracy=70.0, sample_count=10),
        EvalRow(method="m2", dataset="d1", accuracy=60.0, sample_count=10),
        EvalRow(method="m2", dataset="d2", accuracy=40.0, sample_count=10),
    ]


class TestRenderReport:
    def test_single_row_mean_is_value(self):
        rows = [EvalRow(method="m", dataset="d", accuracy=73.25, sample_count=4)]
        table = render_report(rows, "table")
        assert "73.25" in table
        assert "Mean" in table

    def test_matrix_layout(self):
        table = render_report(rows_2x2(), "table")
        lines = table.strip().splitlines()
        assert lines[0].split() == ["method", "d1", "d2", "Mean"]
        assert len(lines) == 4  # header + rule + two method rows

    def test_mean_column_is_arithmetic_mean(self):
        doc = json.loads(render_report(rows_2x2(), "json"))
        means = {r["method"]: r["mean"] for r in doc["rows"]}
        assert means["m1"] == pytest.approx(60.0, abs=1e-9)
        assert means["m2"] == pytest.approx(50.0, abs=1e-9)

    def test_best_per_column_flagged(self):
        table = render_report(rows_2x2(), "table")
        assert "60.00*" in table  # m2 wins d1
        assert "70.00*" in table  # m1 wins d2
        doc = json.loads(render_report(rows_2x2(), "json"))
        best = {r["method"]: r["best_for"] for r in doc["rows"]}
        assert best == {"m1": ["d2"], "m2": ["d1"]}

    def test_csv_round_trips_losslessly(self):
        rows = [
            EvalRow(method="m1", dataset="d1", accuracy=33.333333333333336, sample_count=3),
            EvalRow(method="m1", dataset="d2", accuracy=66.66666666666667, sample_count=3),
        ]
        text = render_report(rows, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == ["method", "d1", "d2", "Mean"]
        assert float(parsed[1][1]) == 33.333333333333336
        assert float(parsed[1][2]) == 66.66666666666667
        assert float(parsed[1][3]) == (33.333333333333336 + 66.66666666666667) / 2

    def test_empty_report(self):
        with pytest.raises(EmptyDataset):
            render_report([], "table")

    def test_unknown_format(self):
        with pytest.raises(InvalidConfig):
            render_report(rows_2x2(), "yaml")

    def test_report_save_deterministic(self, tmp_path):
        report = EvalReport(rows=rows_2x2(), config={"seed": 0})
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        report.save(p1)
        report.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestImagesNormalizedOnce:
    def test_methods_share_one_normalization_and_the_matrix_cannot_be_rebound(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "normalize_rows",
                            lambda m, **kw: calls.append(1) or normalize_rows(m, **kw))
        embs = ClassTextEmbeddings.from_matrix(np.eye(3, 4))
        images = EmbeddingBundle.from_matrix(3.0 * np.eye(3, 4), labels=[0, 1, 2])
        clf = LinearClassifier(weights=np.eye(3, 4), bias=np.zeros(3),
                               vocab=ClassVocabulary(("a", "b", "c")))
        assert evaluate_zero_shot(embs, images).accuracy == 100.0
        assert evaluate_classifier(clf, images).accuracy == 100.0
        assert len(calls) == 1

        with pytest.raises(dataclasses.FrozenInstanceError):
            images.matrix = np.ascontiguousarray(images.matrix[[1, 2, 0]])
        assert evaluate_zero_shot(embs, images).accuracy == 100.0
        assert evaluate_classifier(clf, images).accuracy == 100.0
        assert len(calls) == 1

        # Other rows are another bundle, with a normalization of their own.
        shifted = EmbeddingBundle.from_matrix(images.matrix[[1, 2, 0]], labels=[0, 1, 2])
        assert evaluate_zero_shot(embs, shifted).accuracy == 0.0
        assert evaluate_classifier(clf, shifted).accuracy == 0.0
        assert len(calls) == 2

    def test_predictions_equal_the_per_call_path(self, rng):
        space = SyntheticSpaceConfig(dimension=32, classes=5, sigma_intra=0.6, seed=2)
        images = synthetic_bundle(space, 40, modality=MODALITY_IMAGE)
        clf = LinearClassifier(weights=rng.standard_normal((5, 32)),
                               bias=rng.standard_normal(5),
                               vocab=ClassVocabulary(tuple("abcde")))
        expected = clf.predict(images.matrix)
        row = evaluate_classifier(clf, images)
        assert row.accuracy == 100.0 * np.mean(expected == images.labels_array())
        for _ in range(2):
            again = evaluate_classifier(clf, images)
            assert again.to_dict() == row.to_dict()


def reference_predictions(matrix, weights, bias):
    """The float64 argmax eval must reproduce; ties go to the lowest index."""
    return np.argmax(normalize_rows(matrix) @ weights.T + bias, axis=1)


def screened_predictions(matrix, weights, bias):
    return evaluate._predict(EmbeddingBundle.from_matrix(matrix), weights, bias)


def scale_and_bound(weights, bias):
    """The power of two `s` and the bound E (in units of s) of the screen."""
    _, scale, bound = evaluate._float32_logits(
        np.zeros((0, weights.shape[1]), dtype=np.float32), weights, bias)
    return scale, bound


def plant_near_ties(rng, weights, bias, pairs, margins):
    """Float32 rows of random length whose float64 logits for c1 beat those
    for c2 by about each margin, c1 and c2 the classes of each pair."""
    rows = []
    for (c1, c2), margin in zip(pairs, margins):
        g = weights[c1] - weights[c2]
        g_len = np.linalg.norm(g)
        across = (weights[c1] + weights[c2]) / 2
        across = across - (across @ g) / g_len ** 2 * g
        sin = np.clip((margin - (bias[c1] - bias[c2])) / g_len, -1.0, 1.0)
        unit = np.sqrt(1 - sin ** 2) * across / np.linalg.norm(across) + sin * g / g_len
        rows.append(unit * rng.uniform(0.5, 2.0))
    return np.array(rows, dtype=np.float32)


def top_two_gap(matrix, weights, bias):
    """Each row's float64 gap between its best and second-best logit."""
    top = np.sort(normalize_rows(matrix) @ weights.T + bias, axis=1)
    return top[:, -1] - top[:, -2]


class TestFloat32Screen:
    """`_predict` scores in float32 and rescores uncertain rows in float64; its
    predictions must be the float64 argmax's, tie for tie."""

    def test_planted_near_ties_from_zero_to_ten_bounds(self):
        rng = np.random.default_rng(7)
        k, d = 12, 48
        weights = rng.standard_normal((k, d))
        bias = 0.05 * rng.standard_normal(k)
        scale, bound = scale_and_bound(weights, bias)
        # Denser near zero, where the float32 argmax is often wrong.
        margins = 10.0 * np.linspace(0.0, 1.0, 600) ** 3 * bound * scale
        pairs = [tuple(rng.choice(k, 2, replace=False)) for _ in margins]
        x = plant_near_ties(rng, weights, bias, pairs, margins)
        gap = top_two_gap(x, weights, bias) / scale / bound
        assert (gap <= 2).sum() >= 300 and ((gap > 2) & (gap <= 10)).sum() >= 200
        np.testing.assert_array_equal(screened_predictions(x, weights, bias),
                                      reference_predictions(x, weights, bias))

    @given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(2, 40), k=st.integers(2, 12),
           factor=st.floats(0.0, 10.0))
    @example(seed=0, d=2, k=3, factor=0.5)
    @example(seed=1, d=2, k=7, factor=3.0)
    @settings(max_examples=60, deadline=None)
    def test_near_ties_match_the_float64_argmax(self, seed, d, k, factor):
        rng = np.random.default_rng(seed)
        weights = rng.standard_normal((k, d))
        bias = 0.05 * rng.standard_normal(k)
        scale, bound = scale_and_bound(weights, bias)
        pairs = [tuple(rng.choice(k, 2, replace=False)) for _ in range(16)]
        x = plant_near_ties(rng, weights, bias, pairs, [factor * bound * scale] * 16)
        x = np.concatenate([x, rng.standard_normal((16, d)).astype(np.float32)])
        np.testing.assert_array_equal(screened_predictions(x, weights, bias),
                                      reference_predictions(x, weights, bias))

    def test_duplicate_classes_tie_to_the_lowest_index(self, rng):
        base_w, base_b = rng.standard_normal((4, 24)), 0.1 * rng.standard_normal(4)
        order = [0, 1, 1, 2, 3, 3, 1]
        weights, bias = base_w[order], base_b[order]
        x = np.concatenate([np.repeat(base_w, 10, axis=0),
                            rng.standard_normal((200, 24))])
        predictions = screened_predictions(x, weights, bias)
        np.testing.assert_array_equal(predictions, reference_predictions(x, weights, bias))
        assert set(predictions.tolist()) == {0, 1, 3, 4}

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 1e-310])
    def test_extreme_weight_scales(self, rng, monkeypatch, scale):
        # A tiny or huge head needs no second path: the screen works in units
        # of a power of two near its size. Float64 underflow in the reference
        # (1e-310) widens the bound until every row is rescored.
        weights = rng.standard_normal((9, 32)) * scale
        bias = rng.standard_normal(9) * scale
        images = EmbeddingBundle.from_matrix(rng.standard_normal((400, 32)))
        evaluate._unit_rows(images)
        rescored = []
        monkeypatch.setattr(evaluate, "normalize_rows",
                            lambda m, **kw: rescored.append(len(m)) or normalize_rows(m, **kw))
        np.testing.assert_array_equal(evaluate._predict(images, weights, bias),
                                      reference_predictions(images.matrix, weights, bias))
        if scale < 1e-300:
            assert rescored == [400]
        else:
            assert sum(rescored) <= 40

    def test_one_class_certifies_every_row(self, rng, monkeypatch):
        images = EmbeddingBundle.from_matrix(rng.standard_normal((50, 5)))
        evaluate._unit_rows(images)
        calls = []
        monkeypatch.setattr(evaluate, "normalize_rows",
                            lambda m, **kw: calls.append(1) or normalize_rows(m, **kw))
        predictions = evaluate._predict(images, rng.standard_normal((1, 5)), np.array([0.3]))
        assert predictions.tolist() == [0] * 50 and calls == []

    def test_unit_rows_bit_match_one_normalization(self, rng):
        # 2.5 of normalize_rows' blocks at d=24.
        n = 13690
        x = rng.standard_normal((n, 24)) * rng.uniform(1e-3, 1e3, size=(n, 1))
        images = EmbeddingBundle.from_matrix(x)
        rows = evaluate._unit_rows(images)
        assert rows.dtype == np.float32 and not rows.flags.writeable
        np.testing.assert_array_equal(rows, normalize_rows(images.matrix).astype(np.float32))

    def test_a_scored_matrix_cannot_be_edited_in_place(self):
        embs = ClassTextEmbeddings.from_matrix(np.eye(3, 4))
        images = EmbeddingBundle.from_matrix(3.0 * np.eye(3, 4), labels=[0, 1, 2])
        assert evaluate_zero_shot(embs, images).accuracy == 100.0
        with pytest.raises(ValueError, match="read-only"):
            images.matrix[:] = images.matrix[::-1].copy()
        fresh = EmbeddingBundle.from_matrix(3.0 * np.eye(3, 4)[::-1], labels=[0, 1, 2])
        assert evaluate_zero_shot(embs, fresh).accuracy == pytest.approx(100.0 / 3)

    @pytest.mark.parametrize("built_from", ["view", "base"])
    def test_a_bundle_of_a_view_does_not_share_its_base(self, built_from):
        # Built from a view and written through its base, or built from the
        # base while a view taken before is written through.
        embs = ClassTextEmbeddings.from_matrix(np.eye(3, 4))
        base = (3 * np.eye(3, 4)).astype(np.float32)
        view = base[:]
        source, writer = (view, base) if built_from == "view" else (base, view)
        images = EmbeddingBundle.from_matrix(source, labels=[0, 1, 2])
        assert evaluate_zero_shot(embs, images).accuracy == 100.0
        writer[:] = writer[::-1].copy()
        assert base.flags.writeable and view.flags.writeable
        np.testing.assert_array_equal(images.matrix, 3 * np.eye(3, 4))
        fresh = EmbeddingBundle.from_matrix(images.matrix.copy(), labels=[0, 1, 2])
        assert (evaluate_zero_shot(embs, images).accuracy
                == evaluate_zero_shot(embs, fresh).accuracy == 100.0)

    def test_zero_row_past_the_first_block_is_named_by_its_index(self, rng):
        # More than 32768 rows at d=4 spans two of normalize_rows' blocks.
        n = 32768 + 500
        x = rng.standard_normal((n, 4))
        x[n - 7] = 0.0
        images = EmbeddingBundle.from_matrix(x, labels=[0] * n)
        with pytest.raises(ZeroVector, match=rf"^row {n - 7} has \(near-\)zero norm$"):
            evaluate_zero_shot(ClassTextEmbeddings.from_matrix(np.eye(4)), images)

    def test_float32_logits_stay_within_the_bound(self, rng):
        d = 64
        ones = np.ones((4, d))
        cases = [
            # random rows and heads
            (rng.standard_normal((500, d)), rng.standard_normal((10, d)),
             rng.standard_normal(10)),
            # heavy cancellation: equal entries against alternating signs
            (ones, np.tile([1.0, -1.0], (3, d // 2)) * (1 + 2.0 ** -30), np.zeros(3)),
            # every entry rounds to float32 in the same direction
            (ones, np.full((3, d), 1 + 3 * 2.0 ** -26), np.array([0.0, -1e-3, 1e-3])),
            # the bias dominates the head
            (rng.standard_normal((50, d)), 1e-9 * rng.standard_normal((5, d)),
             np.array([1.0, -1.0, 0.5, 1.0 - 2.0 ** -40, 0.0])),
            # entries spanning float32's subnormal range
            (np.concatenate([ones[:1], np.full((1, d), 3e-45)], axis=1),
             np.concatenate([rng.standard_normal((4, d)),
                             1e-30 * rng.standard_normal((4, d))], axis=1), np.zeros(4)),
            # long rows of positive entries
            (rng.uniform(0, 1, (20, 4096)), rng.uniform(0, 1, (6, 4096)), np.zeros(6)),
        ]
        for x, weights, bias in cases:
            images = EmbeddingBundle.from_matrix(x)
            logits, scale, bound = evaluate._float32_logits(
                evaluate._unit_rows(images), weights, bias)
            reference = normalize_rows(images.matrix) @ weights.T + bias
            assert np.abs(logits.astype(np.float64) - reference / scale).max() <= bound

    def test_well_separated_rows_are_never_rescored(self, monkeypatch):
        space = SyntheticSpaceConfig(dimension=64, classes=10, sigma_intra=0.05, seed=3)
        images = synthetic_bundle(space, 150, modality=MODALITY_IMAGE)
        means, _ = synthetic_class_means(space)
        clf = LinearClassifier(weights=means, bias=np.zeros(10),
                               vocab=ClassVocabulary(tuple(f"c{i}" for i in range(10))))
        evaluate._unit_rows(images)
        calls = []
        monkeypatch.setattr(evaluate, "normalize_rows",
                            lambda m, **kw: calls.append(len(m)) or normalize_rows(m, **kw))
        assert evaluate_classifier(clf, images).accuracy == 100.0
        assert evaluate_zero_shot(ClassTextEmbeddings.from_matrix(means),
                                  images).accuracy == 100.0
        assert calls == []


class TestAccuracyRow:
    @pytest.mark.parametrize("low, high", [(0, 10), (-5, 5), (0, 10 ** 6)])
    def test_per_class_matches_a_mask_per_class(self, rng, low, high):
        labels = rng.integers(low, high, size=500)
        predictions = np.where(rng.random(500) < 0.6, labels,
                               rng.integers(low, high, size=500))
        row = evaluate._accuracy_row(predictions, labels, "m", "d")
        expected = {}
        for cid in np.unique(labels):
            mask = labels == cid
            expected[str(int(cid))] = {
                "count": int(mask.sum()),
                "accuracy": 100.0 * int((predictions[mask] == cid).sum()) / int(mask.sum()),
            }
        assert list(row.per_class.items()) == list(expected.items())
        assert row.accuracy == 100.0 * int((predictions == labels).sum()) / 500
