import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textprobe
from textprobe.core import (
    ClassTextEmbeddings,
    ZeroShotConfig,
    normalize,
    normalize_rows,
    predict_class,
    stable_softmax,
    zero_shot_probabilities,
)
from textprobe.errors import (
    InvalidConfig,
    NonFiniteValue,
    ShapeMismatch,
    ZeroVector,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=32,
)


class TestNormalize:
    def test_unit_vector_unchanged(self):
        np.testing.assert_allclose(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_three_four_five(self):
        # 3-4-5 triangle by hand: (3,4)/5 = (0.6, 0.8)
        np.testing.assert_allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([0.0, 0.0])

    def test_tiny_norm_rejected(self):
        with pytest.raises(ZeroVector):
            normalize([1e-15, 1e-15])

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteValue):
            normalize([1.0, float("nan")])

    def test_overflowing_norm_rejected(self):
        with pytest.raises(NonFiniteValue, match=r"^row 0 has a norm that overflows$"):
            normalize([1e200, 1e200])

    def test_matrix_rejected(self):
        with pytest.raises(ShapeMismatch, match=r"expected a 1-D vector, got shape \(1, 2\)"):
            normalize([[1.0, 0.0]])

    def test_result_has_unit_norm(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(1, 40))
            assert abs(np.linalg.norm(normalize(v)) - 1.0) < 1e-6

    @given(finite_vectors)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, values):
        arr = np.asarray(values)
        if np.linalg.norm(arr) < 1e-6:
            return
        once = normalize(arr)
        twice = normalize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)


class TestNormalizeRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_division_by_row_norms_and_leaves_input_alone(self, dtype):
        m = np.random.default_rng(3).standard_normal((40, 9)).astype(dtype)
        before = m.copy()
        out = normalize_rows(m)
        x = m.astype(np.float64)
        assert out.tobytes() == (x / np.linalg.norm(x, axis=1, keepdims=True)).tobytes()
        assert out.dtype == np.float64 and not np.shares_memory(out, m)
        assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(3001, 768), (50001, 3), (2, 200000)])
    def test_blockwise_norms_match_one_vectorized_norm(self, shape):
        # Each shape spans several norm blocks or one wide row.
        x = np.random.default_rng(5).standard_normal(shape)
        expected = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert normalize_rows(x).tobytes() == expected.tobytes()

    def test_zero_row_is_named(self):
        with pytest.raises(ZeroVector, match="row 1"):
            normalize_rows([[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_defect_past_the_first_block_is_named_by_its_index(self, dtype):
        x = np.ones((40000, 4))
        x[39000] = 0.0
        with pytest.raises(ZeroVector, match=r"^row 39000 has \(near-\)zero norm$"):
            normalize_rows(x, dtype=dtype)
        x[39000] = np.nan
        with pytest.raises(NonFiniteValue, match=r"^row 39000 contains NaN or Inf$"):
            normalize_rows(x, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_overflowing_norm_is_named_not_zeroed(self, dtype):
        with pytest.raises(NonFiniteValue, match=r"^row 0 has a norm that overflows$"):
            normalize_rows(np.array([[1e200, 1e200], [3.0, 4.0]]), dtype=dtype)
        x = np.ones((40000, 4))
        x[39000] = 1e200
        with pytest.raises(NonFiniteValue, match=r"^row 39000 has a norm that overflows$"):
            normalize_rows(x, dtype=dtype)


class TestZeroShotProbabilities:
    def _class_embs(self, k, d):
        mat = np.zeros((k, d))
        for i in range(k):
            mat[i, i] = 1.0
        return ClassTextEmbeddings(mat)

    def test_equal_similarities_are_uniform(self):
        # All classes identical => all similarities equal => uniform by symmetry.
        mat = np.tile(normalize(np.ones(8)), (5, 1))
        ce = ClassTextEmbeddings(mat)
        probs = zero_shot_probabilities(np.ones(8), ce, ZeroShotConfig(temperature=0.07))
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)

    def test_two_class_tau_one(self):
        # sims (1, 0) at tau=1: p0 = e / (e + 1), evaluated directly.
        ce = self._class_embs(2, 2)
        probs = zero_shot_probabilities([1.0, 0.0], ce, ZeroShotConfig(temperature=1.0))
        expected0 = math.e / (math.e + 1.0)
        assert probs[0] == pytest.approx(expected0, abs=1e-12)
        assert probs[1] == pytest.approx(1.0 - expected0, abs=1e-12)
        # Matches the rounded reference values
        assert probs[0] == pytest.approx(0.73106, abs=1e-5)
        assert probs[1] == pytest.approx(0.26894, abs=1e-5)

    def test_two_class_small_tau_stable(self):
        # sims (1, 0) at tau=0.01 => logit gap 100; the loser lands at e^-100.
        ce = self._class_embs(2, 2)
        probs = zero_shot_probabilities([1.0, 0.0], ce, ZeroShotConfig(temperature=0.01))
        assert probs[0] == pytest.approx(1.0, abs=1e-12)
        assert probs[1] == pytest.approx(math.exp(-100.0), rel=1e-9)
        assert probs[1] == pytest.approx(3.72e-44, rel=1e-2)
        assert predict_class(probs) == 0

    def test_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            k, d = int(rng.integers(2, 12)), int(rng.integers(2, 20))
            ce = ClassTextEmbeddings.from_matrix(rng.standard_normal((k, d)))
            tau = float(rng.uniform(0.005, 2.0))
            probs = zero_shot_probabilities(
                rng.standard_normal(d), ce, ZeroShotConfig(temperature=tau)
            )
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all(probs >= 0)

    def test_argmax_invariant_to_temperature(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            d = 16
            ce = ClassTextEmbeddings.from_matrix(rng.standard_normal((6, d)))
            img = rng.standard_normal(d)
            picks = {
                predict_class(zero_shot_probabilities(img, ce, ZeroShotConfig(t)))
                for t in (0.01, 0.07, 1.0)
            }
            assert len(picks) == 1

    def test_shift_invariance_of_softmax(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            logits = rng.standard_normal(9) * 5
            shift = float(rng.uniform(-100, 100))
            np.testing.assert_allclose(
                stable_softmax(logits), stable_softmax(logits + shift), atol=1e-9
            )

    def test_dimension_mismatch(self):
        ce = self._class_embs(3, 4)
        with pytest.raises(ShapeMismatch):
            zero_shot_probabilities([1.0, 0.0], ce)

    def test_zero_image_rejected(self):
        ce = self._class_embs(3, 4)
        with pytest.raises(ZeroVector):
            zero_shot_probabilities([0.0, 0.0, 0.0, 0.0], ce)

    def test_invalid_temperature(self):
        with pytest.raises(InvalidConfig):
            ZeroShotConfig(temperature=0.0)
        with pytest.raises(InvalidConfig):
            ZeroShotConfig(temperature=-1.0)


class TestClassTextEmbeddings:
    def test_rows_must_be_unit(self):
        with pytest.raises(InvalidConfig):
            ClassTextEmbeddings(matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_from_matrix_renormalizes(self):
        ce = ClassTextEmbeddings.from_matrix(np.array([[2.0, 0.0], [0.0, 3.0]]))
        np.testing.assert_allclose(ce.matrix, np.eye(2), atol=1e-12)

    def test_class_ids_are_the_row_indices(self):
        assert ClassTextEmbeddings(np.eye(3)).class_ids == (0, 1, 2)

    def test_a_later_write_to_the_callers_array_does_not_reach_it(self):
        m = np.eye(3, 4)
        e = ClassTextEmbeddings(m)
        m[0] = [5, 0, 0, 0]
        assert np.linalg.norm(e.matrix[0]) == 1.0
        assert not e.matrix.flags.writeable and m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            e.matrix[0] = [5, 0, 0, 0]


class TestPredictClass:
    def test_simple_argmax(self):
        assert predict_class([0.2, 0.5, 0.3]) == 1

    def test_tie_breaks_low_index(self):
        assert predict_class([0.5, 0.5]) == 0

    def test_uniform_breaks_to_zero(self):
        assert predict_class([0.25] * 4) == 0

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            predict_class([])


def test_every_exported_name_resolves_once():
    assert len(set(textprobe.__all__)) == len(textprobe.__all__)
    missing = [name for name in textprobe.__all__ if not hasattr(textprobe, name)]
    assert missing == []
