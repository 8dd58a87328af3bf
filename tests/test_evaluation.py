import numpy as np
import pytest

from cryptobench.dataset import ScalerParams, inverse_scale
from cryptobench.evaluation import ModelResult, compare, mse

from oracles import fsum_mse


class TestMse:
    def test_identical_vectors_give_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mse(y, y.copy()) == 0.0

    def test_hand_value(self):
        assert mse([1.0, 3.0], [0.0, 0.0]) == 5.0

    def test_matches_fsum_oracle(self):
        rng = np.random.default_rng(14)
        t = rng.uniform(1e3, 1e5, size=1000)
        p = t + rng.normal(scale=500.0, size=1000)
        ours = mse(t, p)
        reference = fsum_mse(t, p)
        assert abs(ours - reference) <= 1e-12 * abs(reference)

    def test_zero_only_for_identical(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=50)
        p = t.copy()
        p[13] += 1e-9
        assert mse(t, p) > 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=200)
        p = rng.normal(size=200)
        perm = rng.permutation(200)
        a = mse(t, p)
        b = mse(t[perm], p[perm])
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse([1.0, 2.0], [1.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mse([], [])

    def test_scale_relation(self):
        # raw-scale MSE equals span^2 times normalized MSE
        rng = np.random.default_rng(8)
        params = ScalerParams(min=7000.0, max=9500.0)
        t_norm = rng.uniform(-0.2, 1.2, size=300)
        p_norm = t_norm + rng.normal(scale=0.05, size=300)
        m_norm = mse(t_norm, p_norm)
        m_raw = mse(inverse_scale(t_norm, params), inverse_scale(p_norm, params))
        assert abs(m_raw - params.span**2 * m_norm) <= 1e-9 * m_raw


class TestModelResult:
    def test_rejects_negative_mse(self):
        with pytest.raises(ValueError):
            ModelResult("m", -1.0, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ModelResult("m", float("nan"), 1.0)


class TestCompare:
    def test_reference_ranking(self):
        results = [
            ModelResult("lstm", 97.91950725856172, 97.91950725856172),
            ModelResult("svr", 0.02, 0.02),
            ModelResult("poly", 51702001.51, 51702001.51),
        ]
        ranked = compare(results)
        assert [r.model_name for r in ranked] == ["svr", "lstm", "poly"]
        assert ranked[0].model_name == "svr"

    def test_single_result_wins(self):
        ranked = compare([ModelResult("only", 1.0, 2.0)])
        assert ranked[0].model_name == "only"
        assert len(ranked) == 1

    def test_tie_breaks_alphabetically(self):
        ranked = compare([
            ModelResult("zeta", 1.0, 1.0),
            ModelResult("alpha", 1.0, 1.0),
        ])
        assert [r.model_name for r in ranked] == ["alpha", "zeta"]
        assert ranked[0].model_name == "alpha"

    def test_empty_results(self):
        with pytest.raises(ValueError):
            compare([])

    def test_does_not_mutate_input(self):
        results = [ModelResult("b", 2.0, 2.0), ModelResult("a", 1.0, 1.0)]
        compare(results)
        assert results[0].model_name == "b"
