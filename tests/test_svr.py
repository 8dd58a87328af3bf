import os
import signal
import warnings

import numpy as np
import pytest

from cryptobench import svr
from cryptobench.dataset import time_folds
from cryptobench.svr import (
    ConvergenceWarning,
    GridCell,
    KernelSpec,
    SvrConfig,
    SvrModel,
    fit,
    grid_search,
    gram_matrix,
    predict_batch,
)

from oracles import dual_objective, kernel_eval, qp_reference_solve, smo_reference_solve


def random_instance(seed, n=8, d=2, kind="rbf", gamma=0.5, spread=1.0):
    """Small regression problem with a PSD Gram for the chosen kernel.

    The sigmoid (tanh) kernel is not positive semidefinite in general,
    so those instances use near-orthogonal sample vectors (d = n): the
    Gram is then a small perturbation of a positive diagonal and stays
    PSD, keeping the dual convex so the projected-gradient oracle finds
    the same optimum the pairwise solver does.  PSD is asserted, not
    assumed.
    """
    rng = np.random.default_rng(seed)
    if kind == "sigmoid":
        d = n
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        X = 1.5 * q + 0.05 * rng.normal(size=(n, n))
    else:
        X = rng.normal(scale=spread, size=(n, d))
    y = rng.normal(scale=spread, size=n)
    spec = KernelSpec(kind=kind, gamma=gamma)
    K = gram_matrix(spec, X)
    min_eig = float(np.linalg.eigvalsh(K)[0])
    assert min_eig >= -1e-10, f"{kind} Gram not PSD for seed {seed}: {min_eig}"
    return X, y, spec


class TestKernelEval:
    def test_gram_matches_pointwise_eval(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 3))
        Z = rng.normal(size=(4, 3))
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7),
                     KernelSpec("sigmoid", gamma=0.3)):
            K = gram_matrix(spec, X, Z)
            for i in range(5):
                for j in range(4):
                    np.testing.assert_allclose(
                        K[i, j], kernel_eval(spec, X[i], Z[j]), rtol=1e-12)


class TestFit:
    def test_constant_targets_give_empty_model(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.full(6, 3.25)
        model = fit(X, y, SvrConfig(kernel=KernelSpec("rbf", gamma=0.5), epsilon=0.1))
        assert model.dual_coefs.size == 0
        assert model.bias == 3.25
        np.testing.assert_array_equal(predict_batch(model, X), 3.25)

    def test_exact_line_within_tube(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = 2.0 * X[:, 0] + 1.0
        cfg = SvrConfig(kernel=KernelSpec("linear"), c=1e3, epsilon=0.01, tol=1e-6)
        model = fit(X, y, cfg)
        preds = predict_batch(model, X)
        assert np.max((preds - y) ** 2) <= 1e-4

    def test_dual_feasibility_invariants(self):
        for seed in range(5):
            X, y, spec = random_instance(seed, kind="rbf")
            cfg = SvrConfig(kernel=spec, c=2.0, epsilon=0.05, tol=1e-6)
            model = fit(X, y, cfg)
            assert np.all(model.dual_coefs >= -cfg.c - 1e-12)
            assert np.all(model.dual_coefs <= cfg.c + 1e-12)
            assert abs(model.dual_coefs.sum()) <= 1e-12

    def test_tube_kkt_conditions(self):
        for seed in (11, 12, 13):
            X, y, spec = random_instance(seed, kind="linear")
            cfg = SvrConfig(kernel=spec, c=5.0, epsilon=0.2, tol=1e-6)
            model = fit(X, y, cfg)
            assert model.converged
            preds = predict_batch(model, X)
            resid = np.abs(preds - y)
            coefs = np.zeros(len(y))
            # map support coefficients back to sample positions
            for sv, coef in zip(model.support_vectors, model.dual_coefs):
                idx = np.where(np.all(np.isclose(X, sv), axis=1))[0][0]
                coefs[idx] = coef
            inside = resid < cfg.epsilon - cfg.tol
            assert np.all(coefs[inside] == 0.0)
            unbounded = (np.abs(coefs) > 0) & (np.abs(coefs) < cfg.c)
            assert np.all(np.abs(resid[unbounded] - cfg.epsilon) <= cfg.tol)

    def test_objective_matches_qp_oracle_each_kernel(self):
        for kind, gamma in (("linear", 1.0), ("rbf", 0.4), ("sigmoid", 0.2)):
            for seed in (1, 2):
                X, y, spec = random_instance(seed, n=7, kind=kind, gamma=gamma)
                cfg = SvrConfig(kernel=spec, c=4.0, epsilon=0.1, tol=1e-6,
                                max_iter=50_000)
                model = fit(X, y, cfg)
                K = gram_matrix(spec, X)
                beta = np.zeros(len(y))
                for sv, coef in zip(model.support_vectors, model.dual_coefs):
                    idx = np.where(np.all(np.isclose(X, sv), axis=1))[0][0]
                    beta[idx] = coef
                ours = dual_objective(K, y, beta, cfg.epsilon)
                _, reference = qp_reference_solve(K, y, cfg.c, cfg.epsilon)
                assert abs(ours - reference) <= 1e-6 * max(1.0, abs(reference))

    def test_not_converged_warns_but_returns_model(self):
        X, y, spec = random_instance(3, n=10, kind="rbf", gamma=1.0)
        cfg = SvrConfig(kernel=spec, c=100.0, epsilon=0.0, tol=1e-12, max_iter=3)
        with pytest.warns(ConvergenceWarning):
            model = fit(X, y, cfg)
        assert not model.converged
        assert model.kkt_violation > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit(np.array([[1.0]]), np.array([2.0]), SvrConfig(kernel=KernelSpec("linear")))


def time_feature_series(n, seed):
    """Min-max scaled random walk against t in [0, 1], like the sample run."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(size=n))
    y = (walk - walk.min()) / (walk.max() - walk.min())
    return (np.arange(n) / (n - 1)).reshape(-1, 1), y


class _RecordingGram(np.ndarray):
    """A Gram that records the (i, j) of each ``item`` read."""

    def item(self, *args):
        self.reads.append(args)
        return super().item(*args)


class TestSmoMatchesScalarReference:
    """The vectorized sweep reproduces the scalar loop bit for bit."""

    def _assert_identical(self, X, y, spec, c, epsilon=0.1, tol=1e-3, max_iter=None):
        K = np.ascontiguousarray(gram_matrix(spec, X))
        y = np.ascontiguousarray(y, dtype=np.float64)
        max_iter = 100 * len(y) if max_iter is None else max_iter
        args = (K, y, float(c), float(epsilon), float(tol), int(max_iter))
        beta, n_iter, violation, converged = svr._smo_solve(*args)
        ref_beta, ref_n_iter, ref_violation, ref_converged = smo_reference_solve(*args)
        assert np.array_equal(beta, ref_beta)
        assert n_iter == ref_n_iter
        assert violation == ref_violation
        assert converged == ref_converged
        return n_iter, converged

    @pytest.mark.parametrize("n", [38, 48])
    def test_capped_rbf_high_c(self, n):
        X, y = time_feature_series(n, seed=0)
        n_iter, converged = self._assert_identical(X, y, KernelSpec("rbf", gamma=1.0), c=1000.0)
        assert not converged and n_iter == 100 * n

    @pytest.mark.parametrize("seed", [1, 2])
    def test_linear_and_sigmoid(self, seed):
        for kind, gamma in (("linear", 1.0), ("sigmoid", 0.2)):
            X, y, spec = random_instance(seed, n=12, kind=kind, gamma=gamma)
            for c in (1.0, 100.0):
                self._assert_identical(X, y, spec, c=c, epsilon=0.05, tol=1e-6)

    def test_tiny_max_iter(self):
        X, y, spec = random_instance(3, n=10, kind="rbf", gamma=1.0)
        for max_iter in (0, 1, 3):
            n_iter, converged = self._assert_identical(
                X, y, spec, c=100.0, epsilon=0.0, tol=1e-12, max_iter=max_iter)
            assert n_iter == max_iter and not converged

    def test_seeded_sweep(self):
        # random sizes, kernels and C; every fourth instance repeats rows,
        # and small caps stop some solves short of tol
        rng = np.random.default_rng(12)
        outcomes = set()
        for case in range(40):
            n = int(rng.integers(5, 41))
            kind = ("linear", "rbf", "sigmoid")[case % 3]
            X = rng.normal(size=(n, int(rng.integers(1, 4))))
            y = rng.normal(size=n)
            if case % 4 == 0:
                X = np.concatenate([X, X[: n // 2]])
                y = np.concatenate([y, y[: n // 2]])
            spec = KernelSpec(kind, gamma=float(rng.choice([0.1, 1.0])))
            c = float(10.0 ** rng.integers(0, 4))
            epsilon = float(rng.choice([0.0, 0.05, 0.1]))
            max_iter = 100 * len(y) if case % 2 else int(rng.integers(5, 60))
            outcomes.add(self._assert_identical(X, y, spec, c, epsilon=epsilon,
                                                max_iter=max_iter)[1])
        assert outcomes == {True, False}

    def test_pair_cache_clears_when_full(self):
        # 83 distinct working pairs at n = 38, against a cache of at most
        # n pairs, so the fit empties it twice
        X, y = time_feature_series(38, seed=0)
        spec = KernelSpec("rbf", gamma=1.0)
        n_iter, converged = self._assert_identical(X, y, spec, c=100.0)
        assert converged and n_iter == 3369
        # the solver reads K[i, j] only for a pair it does not hold
        K = np.ascontiguousarray(gram_matrix(spec, X)).view(_RecordingGram)
        K.reads = []
        svr._smo_solve(K, y, 100.0, 0.1, 1e-3, 3800)
        # 83 pairs, 19 of them read again after a clear dropped them
        assert len(set(K.reads)) == 83 and len(K.reads) == 102

    def test_duplicated_rows_force_ties(self):
        X, y = time_feature_series(15, seed=4)
        X = np.concatenate([X, X, X[::2]])
        y = np.concatenate([y, y, y[::2]])
        for kind in ("rbf", "linear"):
            self._assert_identical(X, y, KernelSpec(kind, gamma=1.0), c=10.0)


class TestPredict:
    def test_empty_support_set_returns_bias(self):
        model = SvrModel(support_vectors=np.empty((0, 1)), dual_coefs=np.empty(0),
                         bias=1.5, kernel=KernelSpec("rbf", gamma=1.0))
        assert predict_batch(model, np.array([[42.0]])).tolist() == [1.5]

    def test_single_linear_support_vector(self):
        model = SvrModel(support_vectors=np.array([[2.0, 1.0]]),
                         dual_coefs=np.array([0.5]), bias=-1.0,
                         kernel=KernelSpec("linear"))
        x = np.array([[4.0, 3.0]])
        np.testing.assert_allclose(predict_batch(model, x), [0.5 * (2 * 4 + 1 * 3) - 1.0],
                                   rtol=1e-15)

    def test_matches_oracle_predictions(self):
        X, y, spec = random_instance(7, n=6, kind="rbf", gamma=0.6)
        cfg = SvrConfig(kernel=spec, c=3.0, epsilon=0.05, tol=1e-7, max_iter=200_000)
        model = fit(X, y, cfg)
        K = gram_matrix(spec, X)
        beta_ref, _ = qp_reference_solve(K, y, cfg.c, cfg.epsilon)
        # oracle bias from an unbounded support vector of its own solution
        interior = (np.abs(beta_ref) > 1e-6) & (np.abs(beta_ref) < cfg.c - 1e-6)
        assert np.any(interior)
        idx = int(np.where(interior)[0][0])
        bias_ref = y[idx] - K[idx] @ beta_ref - cfg.epsilon * np.sign(beta_ref[idx])
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.normal(size=(1, 2))
            ref = float(gram_matrix(spec, X, x)[:, 0] @ beta_ref + bias_ref)
            assert abs(predict_batch(model, x)[0] - ref) <= 1e-6

    def test_one_dimensional_x_is_refused(self):
        x = np.linspace(0.0, 1.0, 10)
        y = np.sin(3.0 * x)
        cfg = SvrConfig(kernel=KernelSpec("rbf", gamma=1.0), c=10.0, epsilon=0.01)
        message = r"^X must be an \(n, d\) array, got shape \(10,\)$"
        with pytest.raises(ValueError, match=message):
            fit(x, y, cfg)
        with pytest.raises(ValueError, match=message):
            grid_search(x, y, ("rbf",), (1.0,), (10.0,), folds=time_folds(len(y), 2))
        model = fit(x.reshape(-1, 1), y, cfg)
        with pytest.raises(ValueError, match=message):
            predict_batch(model, x)

    def test_dimension_mismatch(self):
        model = SvrModel(support_vectors=np.ones((2, 3)), dual_coefs=np.ones(2),
                         bias=0.0, kernel=KernelSpec("linear"))
        with pytest.raises(ValueError, match="dimension"):
            predict_batch(model, np.ones((1, 2)))


class TestGammaInvariance:
    GAMMAS = (0.001, 0.01, 0.1, 1.0)

    def _assert_same_fit(self, models):
        base = models[0]
        for other in models[1:]:
            np.testing.assert_array_equal(other.dual_coefs, base.dual_coefs)
            np.testing.assert_array_equal(other.support_vectors, base.support_vectors)
            assert other.n_iter == base.n_iter
            assert other.kkt_violation == base.kkt_violation
            assert other.bias == base.bias

    def test_linear_fit_identical_across_gammas(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 1))
        y = rng.normal(size=12)
        self._assert_same_fit([
            fit(X, y, SvrConfig(kernel=KernelSpec("linear", gamma=g), c=10.0))
            for g in self.GAMMAS
        ])

    def test_capped_linear_fit_identical_across_gammas(self):
        # grid_search scores linear cells once for all gammas, which holds
        # only if a fit stopped at the 100 * n cap ignores gamma as well
        X, y = time_feature_series(38, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            models = [
                fit(X, y, SvrConfig(kernel=KernelSpec("linear", gamma=g), c=1000.0))
                for g in self.GAMMAS
            ]
        assert not models[0].converged and models[0].n_iter == 100 * 38
        self._assert_same_fit(models)


class TestGridSearch:
    GAMMAS = (0.001, 0.01, 0.1, 1.0)
    CS = (1.0, 10.0, 100.0, 1000.0)

    def _data(self, n=30, seed=5):
        rng = np.random.default_rng(seed)
        t = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        y = 0.3 + 0.5 * t[:, 0] + 0.05 * rng.normal(size=n)
        return t, y

    def test_full_grid_has_48_cells_in_order(self):
        X, y = self._data()
        grid = grid_search(X, y, ("rbf", "sigmoid", "linear"), self.GAMMAS, self.CS,
                           folds=time_folds(len(y), 5), epsilon=0.1)
        assert len(grid.cells) == 48
        expected = [
            (kind, gamma, c)
            for kind in ("rbf", "sigmoid", "linear")
            for gamma in self.GAMMAS
            for c in self.CS
        ]
        assert [(c.kernel, c.gamma, c.c) for c in grid.cells] == expected
        assert all(c.cv_mse >= 0 for c in grid.cells)

    def test_linear_rows_bitwise_equal_across_gammas(self):
        X, y = self._data()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            grid = grid_search(X, y, ("linear",), self.GAMMAS, self.CS,
                               folds=time_folds(len(y), 5))
        by_c = {}
        for cell in grid.cells:
            by_c.setdefault(cell.c, []).append(cell.cv_mse)
        for c, mses in by_c.items():
            assert len(set(mses)) == 1, f"C={c} rows differ across gammas: {mses}"

    def test_each_distinct_fit_runs_once_per_fold(self, monkeypatch, tmp_path):
        X, y = self._data()
        calls = tmp_path / "fit_calls.txt"
        real_fit = svr.fit

        def counting_fit(X, y, cfg):
            # one line per call, appended from whichever process fits
            with open(calls, "a") as log:
                log.write(cfg.kernel.kind + "\n")
            return real_fit(X, y, cfg)

        monkeypatch.setattr(svr, "fit", counting_fit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            grid = grid_search(X, y, ("rbf", "sigmoid", "linear"), self.GAMMAS, self.CS,
                               folds=time_folds(len(y), 5))
        assert len(grid.cells) == 48
        kinds = calls.read_text().splitlines()
        # 16 rbf + 16 sigmoid + 4 linear (one per C) distinct cells
        assert len(kinds) == 36 * 5
        assert kinds.count("linear") == 4 * 5
        assert grid.fits == 36 * 5

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_one_cpu_grid_equals_pooled_grid(self, monkeypatch, cpus):
        # n = 40 time feature: capped folds are part of the comparison; an
        # odd worker count splits the chunked, reordered tasks unevenly
        X, y = time_feature_series(40, seed=0)
        kinds = ("rbf", "sigmoid", "linear")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            pooled = grid_search(X, y, kinds, self.GAMMAS, self.CS,
                                 folds=time_folds(len(y), 5))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
            serial = grid_search(X, y, kinds, self.GAMMAS, self.CS,
                                 folds=time_folds(len(y), 5))
        assert len(serial.cells) == 48
        for a, b in zip(serial.cells, pooled.cells):
            assert a == b
            assert np.float64(a.cv_mse).tobytes() == np.float64(b.cv_mse).tobytes()
        assert serial.best_index == pooled.best_index
        assert ((serial.fits, serial.smo_iterations, serial.capped_fits)
                == (pooled.fits, pooled.smo_iterations, pooled.capped_fits))
        assert serial.capped_fits > 0

    def test_queue_longer_than_a_pipe_buffer(self, monkeypatch):
        # 64 gammas x 64 Cs x 5 folds = 20,480 four-byte task indices,
        # more than the 16,384 that a 64 KiB pipe holds, so a queue written
        # before the workers exist blocks for ever: the alarm fails that
        def stub(task):
            _, _, (fit_at, eval_at), cfg = task
            return cfg.kernel.gamma * cfg.c + len(fit_at), True, int(eval_at[0])

        def deadlocked(signum, frame):
            raise TimeoutError("grid_search did not return within 60 s")

        monkeypatch.setattr(svr, "_fold_fit", stub)
        X, y = self._data()
        args = (X, y, ("rbf",), [2.0 ** -i for i in range(64)],
                [float(c) for c in range(1, 65)], time_folds(len(y), 5))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(60)
        try:
            forked = grid_search(*args)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = grid_search(*args)
        assert forked.fits == serial.fits == 20_480
        assert forked.cells == serial.cells
        assert forked.smo_iterations == serial.smo_iterations

    def test_every_cell_matches_its_own_fold_loop(self):
        # time feature at n = 40: the linear and rbf C = 1000 folds hit the
        # iteration cap, so shared capped scores and diagnostics are covered
        X, y = time_feature_series(40, seed=0)
        k = 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            grid = grid_search(X, y, ("rbf", "sigmoid", "linear"), self.GAMMAS, self.CS,
                               folds=time_folds(len(y), k))
            assert len(grid.cells) == 48
            distinct = {}
            for cell in grid.cells:
                cfg = SvrConfig(kernel=KernelSpec(cell.kernel, gamma=cell.gamma), c=cell.c)
                fold_mses, models = [], []
                blocks = np.array_split(np.arange(len(y)), k + 1)
                for i in range(k):
                    train, held = np.concatenate(blocks[: i + 1]), blocks[i + 1]
                    model = fit(X[train], y[train], cfg)
                    resid = predict_batch(model, X[held]) - y[held]
                    fold_mses.append(float(np.mean(resid * resid)))
                    models.append(model)
                assert cell.cv_mse == float(np.mean(fold_mses)), cell
                assert cell.converged_folds == sum(m.converged for m in models), cell
                assert cell.max_n_iter == max(m.n_iter for m in models), cell
                gamma = None if cell.kernel == "linear" else cell.gamma
                distinct[(cell.kernel, gamma, cell.c)] = models
        assert any(c.kernel == "linear" and c.converged_folds < k for c in grid.cells)
        fold_models = [m for models in distinct.values() for m in models]
        assert grid.fits == len(fold_models) == 36 * k
        assert grid.smo_iterations == sum(m.n_iter for m in fold_models)
        assert grid.capped_fits == sum(not m.converged for m in fold_models) > 0

    def test_one_summary_warning_names_capped_fits(self):
        X, y = time_feature_series(40, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grid = grid_search(X, y, ("rbf", "linear"), (0.1, 1.0), (1.0, 1000.0),
                               folds=time_folds(len(y), 5))
        assert len(caught) == 1
        assert caught[0].category is ConvergenceWarning
        assert caught[0].filename == __file__
        message = str(caught[0].message)
        assert "rbf gamma=1 C=1000 (3 of 5 folds)" in message
        assert "linear C=1000 (4 of 5 folds)" in message
        assert message.count("linear") == 1
        assert "C=1 " not in message
        assert [c.converged_folds for c in grid.cells if c.c == 1.0] == [5, 5, 5, 5]

    def test_exactly_linear_data_selects_linear_cell(self):
        # slope 25 exceeds the dual budget sum|beta_i| * max|x| at C=1,
        # so only the large-C linear cell can track the line
        n = 25
        t = np.linspace(0.0, 1.0, n).reshape(-1, 1)
        y = 0.2 + 25.0 * t[:, 0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            grid = grid_search(t, y, ("rbf", "linear"), (0.1,), (1.0, 1000.0),
                               folds=time_folds(len(y), 5), epsilon=0.001)
        best = grid.best
        assert best.kernel == "linear"
        assert best.c == 1000.0
        assert best.cv_mse < 1e-5
        worst = max(cell.cv_mse for cell in grid.cells)
        assert worst > 1.0

    def test_deterministic(self):
        X, y = self._data()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            a = grid_search(X, y, ("rbf", "linear"), (0.1, 1.0), (1.0, 10.0),
                            folds=time_folds(len(y), 3))
            b = grid_search(X, y, ("rbf", "linear"), (0.1, 1.0), (1.0, 10.0),
                            folds=time_folds(len(y), 3))
        assert a.cells == b.cells
        assert a.best_index == b.best_index

    def test_tie_break_prefers_grid_order(self):
        # constant targets make every cell identical (zero coefficients,
        # bias = mean); the first cell must win
        X = np.linspace(0, 1, 12).reshape(-1, 1)
        y = np.full(12, 0.5)
        grid = grid_search(X, y, ("rbf", "linear"), (0.1, 1.0), (1.0, 10.0),
                           folds=time_folds(len(y), 3))
        assert grid.best_index == 0


class TestDualObjective:
    def test_zero_beta_is_zero(self):
        K = np.eye(3)
        assert dual_objective(K, np.ones(3), np.zeros(3), 0.1) == 0.0

    def test_hand_value(self):
        K = np.array([[1.0, 0.5], [0.5, 1.0]])
        y = np.array([1.0, -1.0])
        beta = np.array([0.5, -0.5])
        # -0.5*(0.25) + 1.0*0.5 + ... worked by hand:
        # quad = b'Kb = 0.25+0.25-2*0.125 = 0.25 -> -0.125
        # y'b = 0.5+0.5 = 1.0 ; l1 = 0.1*1.0
        np.testing.assert_allclose(dual_objective(K, y, beta, 0.1),
                                   -0.125 + 1.0 - 0.1, rtol=1e-15)
