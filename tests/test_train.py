import json
import math
import re
import threading

import numpy as np
import pytest

import textprobe.train as train_module
from textprobe.core import normalize_rows
from textprobe.data import (
    MODALITY_TEXT,
    EmbeddingBundle,
    SyntheticSpaceConfig,
    TextDataset,
    synthetic_bundle,
    synthetic_class_means,
)
from textprobe.errors import (
    InvalidConfig,
    NonFiniteLoss,
    NonFiniteValue,
    ShapeMismatch,
)
from textprobe.prompts import ClassVocabulary
from textprobe.train import (
    NOISE_THREAD_PREFIX,
    LinearClassifier,
    TrainConfig,
    smoothed_cross_entropy,
    train_text_classifier,
    training_loss_and_grads,
)
from conftest import dataset_for


def plain_cross_entropy(logits, true_class):
    """Independent reference: direct -log softmax via explicit loops."""
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    z = sum(exps)
    return -math.log(exps[true_class] / z)


def brute_force_smoothed_ce(logits, true_class, eps):
    """Term-by-term -sum q_c log p_c with explicit loops."""
    k = len(logits)
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    z = sum(exps)
    total = 0.0
    for c in range(k):
        q = eps / k + (1.0 - eps if c == true_class else 0.0)
        total -= q * math.log(exps[c] / z)
    return total


class TestSmoothedCrossEntropy:
    def test_two_class_symmetric_is_ln2(self):
        loss, _ = smoothed_cross_entropy([0.0, 0.0], 0, 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_smoothing_equals_plain_ce(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            logits = rng.standard_normal(k) * 3
            true = int(rng.integers(0, k))
            loss, _ = smoothed_cross_entropy(logits, true, 0.0)
            assert loss == pytest.approx(plain_cross_entropy(list(logits), true), abs=1e-10)

    def test_matches_brute_force_with_smoothing(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal(4) * 2
        true = 2
        loss, _ = smoothed_cross_entropy(logits, true, 0.1)
        assert loss == pytest.approx(
            brute_force_smoothed_ce(list(logits), true, 0.1), abs=1e-12
        )

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            _, grad = smoothed_cross_entropy(
                rng.standard_normal(k) * 4, int(rng.integers(0, k)), float(rng.uniform(0, 0.9))
            )
            assert abs(grad.sum()) < 1e-9

    def test_gradient_is_softmax_minus_target(self):
        logits = np.array([1.0, -1.0, 0.5])
        loss, grad = smoothed_cross_entropy(logits, 0, 0.3)
        exps = np.exp(logits - logits.max())
        p = exps / exps.sum()
        q = np.array([0.7 + 0.1, 0.1, 0.1])
        np.testing.assert_allclose(grad, p - q, atol=1e-12)

    def test_constant_shift_invariance(self):
        logits = np.array([0.3, -0.7, 2.2, 1.1])
        l1, _ = smoothed_cross_entropy(logits, 1, 0.2)
        l2, _ = smoothed_cross_entropy(logits + 123.456, 1, 0.2)
        assert l1 == pytest.approx(l2, abs=1e-9)

    def test_gradients_of_separate_calls_do_not_share_a_buffer(self):
        _, first = smoothed_cross_entropy([1.0, -1.0, 0.5], 0, 0.3)
        kept = first.tobytes()
        smoothed_cross_entropy([5.0, 2.0, -3.0], 2, 0.1)
        assert first.tobytes() == kept

    def test_invalid_smoothing(self):
        with pytest.raises(InvalidConfig):
            smoothed_cross_entropy([0.0, 0.0], 0, 1.0)
        with pytest.raises(InvalidConfig):
            smoothed_cross_entropy([0.0, 0.0], 0, -0.1)

    def test_needs_two_classes(self):
        with pytest.raises(ShapeMismatch):
            smoothed_cross_entropy([0.0], 0, 0.0)


class TestGradientCheck:
    def test_finite_difference_small(self):
        # One spot check here; the full 20-point oracle lives in acceptance.
        rng = np.random.default_rng(0)
        k, d, n = 3, 5, 8
        W = rng.standard_normal((k, d))
        b = rng.standard_normal(k)
        X = rng.standard_normal((n, d))
        y = rng.integers(0, k, size=n)
        noise = 0.5 * rng.standard_normal((n, d))
        _, gw, gb = training_loss_and_grads(W, b, X, y, noise=noise, label_smoothing=0.1)

        h = 1e-5
        for idx in [(0, 0), (1, 3), (2, 4)]:
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += h
            Wm[idx] -= h
            lp, _, _ = training_loss_and_grads(Wp, b, X, y, noise=noise, label_smoothing=0.1)
            lm, _, _ = training_loss_and_grads(Wm, b, X, y, noise=noise, label_smoothing=0.1)
            fd = (lp - lm) / (2 * h)
            assert gw[idx] == pytest.approx(fd, rel=1e-6, abs=1e-9)
        for j in range(k):
            bp, bm = b.copy(), b.copy()
            bp[j] += h
            bm[j] -= h
            lp, _, _ = training_loss_and_grads(W, bp, X, y, noise=noise, label_smoothing=0.1)
            lm, _, _ = training_loss_and_grads(W, bm, X, y, noise=noise, label_smoothing=0.1)
            assert gb[j] == pytest.approx((lp - lm) / (2 * h), rel=1e-6, abs=1e-9)


def reference_logits_loss(logits, labels, label_smoothing):
    """Mean smoothed-CE loss of an (n, K) logit matrix and its gradient
    w.r.t. the logits, in plain out-of-place numpy."""
    n, k = logits.shape
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    q = np.full((n, k), label_smoothing / k)
    q[np.arange(n), labels] += 1.0 - label_smoothing
    loss = float(-(q * logp).sum(axis=1).mean())
    return loss, (np.exp(logp) - q) / n


def reference_loss_and_grads(weights, bias, embeddings, labels, noise, label_smoothing):
    """`training_loss_and_grads` in plain out-of-place numpy: normalize the
    rows, add the noise, then the smoothed-CE loss and its gradients."""
    X = normalize_rows(embeddings) + noise
    loss, g_logits = reference_logits_loss(X @ weights.T + bias, labels, label_smoothing)
    return loss, g_logits.T @ X, g_logits.sum(axis=0)


@pytest.mark.parametrize("n, d, k, eps", [
    (8, 5, 3, 0.1), (1800, 512, 100, 0.1), (200, 768, 200, 0.0), (1, 4, 2, 0.3),
])
def test_loss_and_grads_equal_the_plain_arithmetic_bit_for_bit(n, d, k, eps):
    rng = np.random.default_rng(n)
    args = (rng.standard_normal((k, d)), rng.standard_normal(k),
            rng.standard_normal((n, d)), rng.integers(0, k, size=n))
    noise = rng.standard_normal((n, d))
    loss, grad_w, grad_b = training_loss_and_grads(*args, noise=noise, label_smoothing=eps)
    ref_loss, ref_w, ref_b = reference_loss_and_grads(*args, noise, eps)
    assert loss == ref_loss
    assert grad_w.tobytes() == ref_w.tobytes() and grad_b.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("k, eps", [(2, 0.0), (3, 0.1), (100, 0.1), (1000, 0.3)])
def test_one_row_loss_equals_the_plain_arithmetic_bit_for_bit(k, eps):
    rng = np.random.default_rng(k)
    logits, true_class = rng.standard_normal(k) * 3, int(rng.integers(0, k))
    loss, grad = smoothed_cross_entropy(logits, true_class, eps)
    ref_loss, ref_grad = reference_logits_loss(logits[np.newaxis], [true_class], eps)
    assert loss == ref_loss
    assert grad.tobytes() == ref_grad[0].tobytes()


def test_loss_and_grads_leave_their_inputs_unchanged():
    rng = np.random.default_rng(3)
    inputs = (rng.standard_normal((3, 5)), rng.standard_normal(3),
              rng.standard_normal((8, 5)), rng.integers(0, 3, size=8), rng.standard_normal((8, 5)))
    before = [a.tobytes() for a in inputs]
    training_loss_and_grads(*inputs[:4], noise=inputs[4], label_smoothing=0.1)
    assert [a.tobytes() for a in inputs] == before


def reference_fit(dataset, bundle, cfg, init_weights=None, init_bias=None):
    """The training loop written plainly: normalize, then each step draw
    noise, call `reference_loss_and_grads`, and apply AdamW out of place.
    Returns (weights, bias, loss_history, final_loss)."""
    k, d = len(dataset.vocab), bundle.dimension
    x_hat = normalize_rows(bundle.matrix)
    n = x_hat.shape[0]
    rng = np.random.default_rng(cfg.seed)
    if init_weights is not None:
        weights = np.array(init_weights, dtype=np.float64)
    else:
        weights = rng.normal(0.0, 1.0 / math.sqrt(d), size=(k, d))
    bias = np.zeros(k) if init_bias is None else np.array(init_bias, dtype=np.float64)
    m_w, v_w = np.zeros_like(weights), np.zeros_like(weights)
    m_b, v_b = np.zeros_like(bias), np.zeros_like(bias)
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    history = []
    for step in range(1, cfg.steps + 1):
        noise = cfg.noise_sigma * rng.standard_normal((n, d))
        with np.errstate(over="ignore", invalid="ignore"):
            loss, grad_w, grad_b = reference_loss_and_grads(
                weights, bias, x_hat, dataset.labels,
                noise, cfg.label_smoothing,
            )
        if not math.isfinite(loss):
            raise NonFiniteLoss("loss", step=step)
        history.append(loss)
        m_w = b1 * m_w + (1 - b1) * grad_w
        v_w = b2 * v_w + (1 - b2) * grad_w * grad_w
        m_b = b1 * m_b + (1 - b1) * grad_b
        v_b = b2 * v_b + (1 - b2) * grad_b * grad_b
        c1, c2 = 1 - b1 ** step, 1 - b2 ** step
        with np.errstate(over="ignore", invalid="ignore"):
            step_w = (m_w / c1) / (np.sqrt(v_w / c2) + cfg.adam_eps)
            step_b = (m_b / c1) / (np.sqrt(v_b / c2) + cfg.adam_eps)
            weights = weights - cfg.learning_rate * (step_w + cfg.weight_decay * weights)
            bias = bias - cfg.learning_rate * step_b
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise NonFiniteLoss("parameters", step=step)
    noise = cfg.noise_sigma * rng.standard_normal((n, d))
    final_loss, _, _ = reference_loss_and_grads(
        weights, bias, x_hat, dataset.labels,
        noise, cfg.label_smoothing,
    )
    return weights, bias, history, final_loss


def random_task(seed, n, d, k, dtype=np.float64):
    rng = np.random.default_rng(seed)
    labels = [int(c) for c in rng.integers(0, k, size=n)]
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(k)))
    bundle = EmbeddingBundle.from_matrix(
        rng.standard_normal((n, d)).astype(dtype), labels=labels
    )
    return TextDataset(items=[("t", c) for c in labels], vocab=vocab), bundle


def assert_matches_reference(ds, bundle, cfg, init=None):
    clf = train_text_classifier(ds, bundle, cfg, init=init)
    start = () if init is None else (init.weights, init.bias)
    weights, bias, history, final_loss = reference_fit(ds, bundle, cfg, *start)
    assert np.array_equal(clf.weights, weights)
    assert np.array_equal(clf.bias, bias)
    assert clf.train_meta["loss_history"] == history
    assert clf.train_meta["final_loss"] == final_loss


@pytest.fixture(scope="module")
def separable():
    space = SyntheticSpaceConfig(dimension=16, classes=3, sigma_intra=0.1, gap=0.0, seed=0)
    vocab = ClassVocabulary(("a", "b", "c"))
    bundle = synthetic_bundle(space, 30, modality=MODALITY_TEXT)
    return vocab, bundle, dataset_for(bundle, vocab)


class TestTrainTextClassifier:
    def test_separable_reaches_full_train_accuracy(self, separable):
        vocab, bundle, ds = separable
        cfg = TrainConfig(noise_sigma=0.0, label_smoothing=0.0, steps=200, seed=0)
        clf = train_text_classifier(ds, bundle, cfg)
        preds = clf.predict(bundle.matrix)
        assert (preds == ds.labels).all()

    def test_zero_steps_is_initialization(self, separable):
        vocab, bundle, ds = separable
        cfg = TrainConfig(noise_sigma=0.0, label_smoothing=0.0, steps=0, seed=42)
        clf = train_text_classifier(ds, bundle, cfg)
        d = bundle.dimension
        rng = np.random.default_rng(42)
        expected = rng.normal(0.0, 1.0 / math.sqrt(d), size=(3, d))
        np.testing.assert_array_equal(clf.weights, expected)
        np.testing.assert_array_equal(clf.bias, np.zeros(3))
        assert clf.train_meta["final_loss"] == clf.train_meta["initial_loss"]

    def test_first_step_decreases_loss(self, separable):
        vocab, bundle, ds = separable
        cfg = TrainConfig(noise_sigma=0.0, label_smoothing=0.0, steps=2, seed=0)
        clf = train_text_classifier(ds, bundle, cfg)
        h = clf.train_meta["loss_history"]
        assert h[1] < h[0]

    def test_loss_trend_and_final_ratio(self, separable):
        # Monotone trend with sigma=0, eps=0: allow <=1% upticks, and the
        # final loss must land below a tenth of the initial loss.
        vocab, bundle, ds = separable
        cfg = TrainConfig(noise_sigma=0.0, label_smoothing=0.0, steps=2000, seed=0)
        clf = train_text_classifier(ds, bundle, cfg)
        h = clf.train_meta["loss_history"]
        upticks = sum(1 for i in range(1, len(h)) if h[i] > h[i - 1])
        assert upticks <= 0.01 * len(h)
        assert clf.train_meta["final_loss"] < 0.1 * clf.train_meta["initial_loss"]

    def test_deterministic_bitwise(self, separable):
        vocab, bundle, ds = separable
        cfg = TrainConfig(steps=50, seed=9)
        c1 = train_text_classifier(ds, bundle, cfg)
        c2 = train_text_classifier(ds, bundle, cfg)
        assert c1.weights.tobytes() == c2.weights.tobytes()
        assert c1.bias.tobytes() == c2.bias.tobytes()
        assert c1.train_meta["final_loss"] == c2.train_meta["final_loss"]

    def test_shape_mismatch(self, separable):
        vocab, bundle, ds = separable
        short = TextDataset(items=ds.items[:-1], vocab=vocab)
        with pytest.raises(ShapeMismatch):
            train_text_classifier(short, bundle, TrainConfig(steps=1))

    def test_non_finite_loss_aborts_with_step(self, separable):
        vocab, bundle, ds = separable
        cfg = TrainConfig(learning_rate=1e30, steps=60, noise_sigma=0.0, seed=0)
        with pytest.raises(NonFiniteLoss) as expected:
            reference_fit(ds, bundle, cfg)
        with pytest.raises(NonFiniteLoss) as excinfo:
            train_text_classifier(ds, bundle, cfg)
        assert 1 < excinfo.value.step < cfg.steps
        assert excinfo.value.step == expected.value.step
        # The noise helper has been joined, not left running.
        helpers = [t for t in threading.enumerate() if t.name.startswith(NOISE_THREAD_PREFIX)]
        assert helpers == []

    def test_agrees_with_nearest_mean_on_class_means(
        self, vocab10, base_space, text_bundle_50
    ):
        ds = dataset_for(text_bundle_50, vocab10)
        cfg = TrainConfig(noise_sigma=0.1, label_smoothing=0.1, steps=500, seed=0)
        clf = train_text_classifier(ds, text_bundle_50, cfg)
        means, _ = synthetic_class_means(base_space)
        # Brute-force oracle: nearest class mean by Euclidean distance.
        oracle = np.array(
            [
                int(np.argmin([np.linalg.norm(means[i] - means[c]) for c in range(10)]))
                for i in range(10)
            ]
        )
        preds = clf.predict(means)
        assert (preds == oracle).mean() >= 0.99

    def test_init_override_used_by_refinement_path(self, separable):
        vocab, bundle, ds = separable
        w0 = np.zeros((3, bundle.dimension))
        b0 = np.zeros(3)
        cfg = TrainConfig(steps=0, noise_sigma=0.0)
        clf = train_text_classifier(ds, bundle, cfg, init=LinearClassifier(w0, b0, vocab))
        np.testing.assert_array_equal(clf.weights, w0)

    def test_zero_steps_from_init_returns_it_bit_for_bit(self, separable):
        vocab, bundle, ds = separable
        rng = np.random.default_rng(5)
        init = LinearClassifier(rng.standard_normal((3, bundle.dimension)),
                                rng.standard_normal(3), vocab)
        clf = train_text_classifier(ds, bundle, TrainConfig(steps=0), init=init)
        assert clf.weights.tobytes() == init.weights.tobytes()
        assert clf.bias.tobytes() == init.bias.tobytes()

    def test_training_leaves_init_unchanged(self, separable):
        vocab, bundle, ds = separable
        rng = np.random.default_rng(6)
        init = LinearClassifier(rng.standard_normal((3, bundle.dimension)),
                                rng.standard_normal(3), vocab)
        before = (init.weights.tobytes(), init.bias.tobytes())
        clf = train_text_classifier(ds, bundle, TrainConfig(steps=5), init=init)
        assert (init.weights.tobytes(), init.bias.tobytes()) == before
        assert clf.weights.tobytes() != before[0]

    @pytest.mark.parametrize("k, d", [(4, 16), (3, 15)])
    def test_init_of_the_wrong_shape_is_refused(self, separable, k, d):
        vocab, bundle, ds = separable
        init = LinearClassifier(np.zeros((k, d)), np.zeros(k),
                                ClassVocabulary(tuple(f"c{i}" for i in range(k))))
        with pytest.raises(ShapeMismatch,
                           match=rf"^init head shape \({k}, {d}\), expected \(3, 16\)$"):
            train_text_classifier(ds, bundle, TrainConfig(steps=1), init=init)


class TestPipelinedLoop:
    @pytest.mark.parametrize(
        "n, d, k, overrides",
        [
            (40, 16, 3, {}),
            (5, 8, 12, {}),  # fewer rows than classes
            (30, 4, 6, {}),  # K >= d
            (24, 12, 4, {"noise_sigma": 0.0}),
            (24, 12, 4, {"steps": 0}),
            (24, 12, 4, {"steps": 1}),
            (50, 20, 5, {"label_smoothing": 0.0, "weight_decay": 0.0}),
        ],
    )
    def test_bit_identical_to_reference_loop(self, n, d, k, overrides):
        ds, bundle = random_task(n * d + k, n, d, k)
        cfg = TrainConfig(**{"steps": 25, "learning_rate": 0.05, "noise_sigma": 0.7,
                             "seed": n + d, **overrides})
        assert_matches_reference(ds, bundle, cfg)

    def test_bit_identical_from_given_init_and_float32_rows(self):
        ds, bundle = random_task(3, 33, 10, 7, dtype=np.float32)
        rng = np.random.default_rng(4)
        cfg = TrainConfig(steps=20, learning_rate=0.05, noise_sigma=0.3, seed=8)
        assert_matches_reference(ds, bundle, cfg, LinearClassifier(
            rng.standard_normal((7, 10)), rng.standard_normal(7), ds.vocab))

    @pytest.mark.parametrize("eager", [True, False])
    def test_result_does_not_depend_on_when_the_helper_runs(self, eager, monkeypatch):
        # The two extreme schedules: each draw finishes as soon as it is
        # submitted, or only when its result is read.
        class Future:
            def __init__(self, fn, args):
                self.call = lambda: fn(*args)
                self.value = self.call() if eager else None

            def result(self):
                return self.value if eager else self.call()

        class Executor:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Future(fn, args)

        ds, bundle = random_task(5, 30, 8, 4)
        cfg = TrainConfig(steps=6, learning_rate=0.05, noise_sigma=0.5, seed=2)
        monkeypatch.setattr(train_module, "ThreadPoolExecutor", Executor)
        assert_matches_reference(ds, bundle, cfg)

    def test_normalization_count_does_not_grow_with_steps(self, separable, monkeypatch):
        vocab, bundle, ds = separable
        calls = []

        def counting(matrix):
            calls.append(1)
            return normalize_rows(matrix)

        monkeypatch.setattr(train_module, "normalize_rows", counting)
        counts = []
        for steps in (0, 1, 40):
            calls.clear()
            train_text_classifier(ds, bundle, TrainConfig(steps=steps))
            counts.append(len(calls))
        assert counts[0] == counts[1] == counts[2]


class TestSerialization:
    def test_round_trip_exact(self, tmp_path, rng):
        vocab = ClassVocabulary(("a", "b", "c"))
        clf = LinearClassifier(
            weights=rng.standard_normal((3, 4)),
            bias=rng.standard_normal(3),
            vocab=vocab,
            train_meta={"config": TrainConfig().to_dict(), "final_loss": 0.25},
        )
        path = tmp_path / "clf.json"
        clf.save(path)
        loaded = LinearClassifier.load(path)
        np.testing.assert_array_equal(loaded.weights, clf.weights)
        np.testing.assert_array_equal(loaded.bias, clf.bias)
        assert loaded.vocab.names == vocab.names
        assert loaded.train_meta["final_loss"] == 0.25

    def test_repeated_saves_byte_identical(self, tmp_path, rng):
        vocab = ClassVocabulary(("a", "b"))
        clf = LinearClassifier(
            weights=rng.standard_normal((2, 3)), bias=np.zeros(2), vocab=vocab
        )
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        clf.save(p1)
        clf.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_weights_are_row_major_flat(self, tmp_path):
        vocab = ClassVocabulary(("a", "b"))
        W = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        clf = LinearClassifier(weights=W, bias=np.zeros(2), vocab=vocab)
        path = tmp_path / "clf.json"
        clf.save(path)
        doc = json.loads(path.read_text())
        assert doc["weights"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert doc["dimension"] == 3

    @pytest.mark.parametrize("edit, named", [
        ({"class_names": [1, None, True]}, "class_names[0]"),
        ({"dimension": 2.9}, "dimension"),
        ({"wieghts": [0.0] * 6}, "'wieghts'"),
        ({"weights": [1.0, "1.5", 0.0, 0.0, 0.0, 0.0]}, "weights"),
    ])
    def test_mistyped_or_unknown_key_names_file_and_key(self, tmp_path, edit, named):
        clf = LinearClassifier(weights=np.ones((3, 2)), bias=np.zeros(3),
                               vocab=ClassVocabulary(("a", "b", "c")))
        path = tmp_path / "clf.json"
        clf.save(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        with pytest.raises(InvalidConfig, match=re.escape(named)) as raised:
            LinearClassifier.load(path)
        assert str(raised.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key, value", [("weights", float("nan")), ("bias", float("inf"))])
    def test_non_finite_parameters_raise_non_finite_value(self, tmp_path, key, value):
        # A head's parameters are a value read, not a training loss.
        clf = LinearClassifier(weights=np.ones((3, 2)), bias=np.zeros(3),
                               vocab=ClassVocabulary(("a", "b", "c")))
        path = tmp_path / "clf.json"
        clf.save(path)
        doc = json.loads(path.read_text())
        doc[key][0] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(NonFiniteValue, match="parameters contain NaN or Inf") as raised:
            LinearClassifier.load(path)
        assert str(raised.value).startswith(f"{path}: ")


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(InvalidConfig):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(noise_sigma=-1.0)
        with pytest.raises(InvalidConfig):
            TrainConfig(adam_beta1=1.0)

    def test_dict_round_trip(self):
        cfg = TrainConfig(learning_rate=0.01, steps=7, seed=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_from_dict_rejects_unknown_key_by_name(self):
        with pytest.raises(InvalidConfig, match="stpes"):
            TrainConfig.from_dict({"stpes": 1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(InvalidConfig):
            TrainConfig.from_dict([["steps", 1]])

    @pytest.mark.parametrize("doc, key", [
        ({"steps": "5"}, "steps"),
        ({"steps": 2.5}, "steps"),
        ({"seed": None}, "seed"),
        ({"learning_rate": True}, "learning_rate"),
        ({"noise_sigma": "0.1"}, "noise_sigma"),
    ])
    def test_from_dict_rejects_mistyped_value_by_name(self, doc, key):
        with pytest.raises(InvalidConfig, match=key):
            TrainConfig.from_dict(doc)

    def test_from_dict_keeps_numbers_as_given(self):
        cfg = TrainConfig.from_dict({"steps": 5.0, "learning_rate": 1, "seed": 3})
        assert (cfg.steps, cfg.seed) == (5, 3) and type(cfg.steps) is int
        assert cfg.learning_rate == 1 and type(cfg.learning_rate) is int
