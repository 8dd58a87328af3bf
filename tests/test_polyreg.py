import numpy as np
import pytest

from cryptobench.polyreg import (
    PolyModel,
    degree_sweep,
    fit,
    predict,
)


def naive_poly_eval(model, x):
    """Power-sum oracle for Horner's scheme."""
    offset, span = model.feature_scale
    s = (x - offset) / span
    total = model.intercept
    for k, coef in enumerate(model.coefficients, start=1):
        total += coef * s**k
    return total


class TestFit:
    def test_recovers_exact_quadratic(self):
        xs = np.arange(7.0)
        ys = xs**2 - 3.0 * xs
        model = fit(xs, ys, 2)
        preds = predict(model, xs)
        np.testing.assert_allclose(preds, ys, atol=1e-8)
        assert float(np.sum((preds - ys) ** 2)) <= 1e-16

    def test_constant_targets(self):
        xs = np.linspace(0.0, 5.0, 9)
        model = fit(xs, np.full(9, 4.2), 3)
        np.testing.assert_allclose(model.intercept, 4.2, rtol=1e-12)
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-10)

    def test_underdetermined_raises(self):
        with pytest.raises(ValueError, match="^degree 9 needs at least 10 distinct inputs, got 3$"):
            fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]), 9)

    def test_duplicate_inputs_count_once(self):
        xs = np.array([0.0, 0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="^degree 3 needs at least 4 distinct inputs, got 3$"):
            fit(xs, xs, 3)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(6)
        xs = np.sort(rng.uniform(0, 10, size=40))
        ys = np.sin(xs) + 0.1 * rng.normal(size=40)
        for degree in (2, 5, 8):
            model = fit(xs, ys, degree)
            resid = ys - predict(model, xs)
            offset, span = model.feature_scale
            design = np.vander((xs - offset) / span, N=degree + 1,
                               increasing=True)[:, 1:]
            bound = 1e-8 * float(np.linalg.norm(ys))
            assert np.all(np.abs(resid @ design) < bound)
            assert abs(resid.sum()) < bound  # intercept direction too

    def test_training_mse_non_increasing_with_degree(self):
        rng = np.random.default_rng(9)
        xs = np.arange(48.0)
        ys = 0.5 + 0.02 * xs + 0.3 * np.sin(xs / 4.0) + 0.05 * rng.normal(size=48)
        mses = []
        for degree in (2, 4, 6, 9, 11):
            model = fit(xs, ys, degree)
            resid = ys - predict(model, xs)
            mses.append(float(np.mean(resid**2)))
        for lower, higher in zip(mses[1:], mses[:-1]):
            assert lower <= higher * (1.0 + 1e-9)


class TestPredict:
    def test_zero_coefficients_return_intercept(self):
        model = PolyModel(degree=3, intercept=1.25, coefficients=np.zeros(3),
                          feature_scale=(0.0, 1.0))
        assert predict(model, 17.0) == 1.25

    def test_degree_one_line(self):
        model = PolyModel(degree=1, intercept=2.0, coefficients=np.array([3.0]),
                          feature_scale=(1.0, 2.0))
        # x=5 -> scaled 2 -> 2 + 3*2 = 8
        assert predict(model, 5.0) == 8.0

    def test_horner_matches_naive_power_sum(self):
        rng = np.random.default_rng(2)
        model = PolyModel(degree=6, intercept=float(rng.normal()),
                          coefficients=rng.normal(size=6),
                          feature_scale=(3.0, 7.0))
        xs = rng.uniform(-5.0, 20.0, size=20)
        horner = predict(model, xs)
        naive = np.array([naive_poly_eval(model, x) for x in xs])
        np.testing.assert_allclose(horner, naive, rtol=1e-12)

    def test_vectorized_and_scalar_agree(self):
        model = PolyModel(degree=2, intercept=0.5, coefficients=np.array([1.0, -2.0]),
                          feature_scale=(0.0, 4.0))
        xs = np.array([0.0, 2.0, 4.0])
        np.testing.assert_array_equal(predict(model, xs),
                                      [predict(model, x) for x in xs])


class TestDegreeSweep:
    def _cubic_data(self):
        xs = np.arange(30.0)
        ys = 0.001 * xs**3 - 0.05 * xs**2 + 0.2 * xs + 1.0
        return (xs[:24], ys[:24]), (xs[24:], ys[24:])

    def test_five_degree_table_shape(self):
        train, test = self._cubic_data()
        rows, _ = degree_sweep(train, test, [2, 4, 6, 9, 11])
        assert [row[0] for row in rows] == [2, 4, 6, 9, 11]
        assert all(mse >= 0 for _, mse in rows)

    def test_single_degree(self):
        train, test = self._cubic_data()
        rows, model = degree_sweep(train, test, [3])
        assert len(rows) == 1
        assert model.degree == 3

    def test_exact_cubic_wins_at_degree_three(self):
        train, test = self._cubic_data()
        rows, model = degree_sweep(train, test, [2, 3])
        assert model.degree == 3
        assert rows[1][0] == 3
        assert rows[1][1] < 1e-10

    def test_tie_breaks_to_lower_degree(self):
        # constant data is fitted exactly (mse 0.0) at every degree, so
        # the tie must resolve to the lower degree regardless of order
        xs = np.linspace(0, 1, 14)
        ys = np.full(14, 2.0)
        _, model = degree_sweep((xs[:10], ys[:10]), (xs[10:], ys[10:]), [4, 2])
        assert model.degree == 2
