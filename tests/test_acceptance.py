"""Acceptance suite: the binding exit criteria for this package.

Each test prints one PASS line (visible with ``pytest -s`` or ``-rA``)
and pins its tolerance explicitly.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cryptobench
from cryptobench import dataset as ds
from cryptobench import evaluation
from cryptobench import lstm as lstm_mod
from cryptobench import polyreg
from cryptobench import svr as svr_mod
from cryptobench.cli import main
from cryptobench.lstm import AdamState, LstmParams, adam_step
from cryptobench.svr import ConvergenceWarning, KernelSpec, SvrConfig

from oracles import (central_difference_gradient, dual_objective, qp_reference_solve,
                     relative_mismatch)
from test_lstm import cell_step, forward, gradient
from test_svr import random_instance

SAMPLE = cryptobench.sample_data_path()

# Seed-controlled gradient-check instances (H, W) cycling through
# {2,3,5} x {2,4,8}; chosen so every gradient component sits well above
# the ~1e-10 absolute noise floor of central differences at step 1e-6.
GRADCHECK_SEEDS = [0, 1, 2, 9, 10, 11, 12, 23, 27, 31,
                   53, 58, 59, 67, 78, 120, 125, 132, 133, 142]
GRADCHECK_COMBOS = [(h, w) for h in (2, 3, 5) for w in (2, 4, 8)]


def _fixture_prepared():
    records = ds.clean(ds.parse_csv(SAMPLE.read_text()))
    n_train = ds.chronological_split(len(records), 0.8)
    closes = np.array([r.close for r in records])
    scaler = ds.fit_scaler(closes[:n_train])
    normalized = ds.scale(closes, scaler)
    return normalized, n_train, scaler


def test_criterion_1_lstm_gradient_check():
    """Analytic BPTT vs central differences: 1e-5 relative, < 10 s."""
    start = time.monotonic()
    worst = 0.0
    for seed in GRADCHECK_SEEDS:
        hidden, window_len = GRADCHECK_COMBOS[seed % len(GRADCHECK_COMBOS)]
        params = lstm_mod.init_params(1, hidden, np.random.default_rng(1000 + seed))
        window = np.random.default_rng(2000 + seed).normal(size=window_len) * 0.8
        target = float(np.random.default_rng(3000 + seed).normal())
        analytic = gradient(window, target, params).vec

        def loss(theta, _w=window, _t=target, _h=hidden):
            candidate = LstmParams(theta, 1, _h)
            pred = forward(_w, candidate)
            return (pred - _t) ** 2

        numeric = central_difference_gradient(loss, params.vec, step=1e-6)
        worst = max(worst, float(relative_mismatch(analytic, numeric).max()))
        assert worst < 1e-5, f"seed {seed}: worst relative mismatch {worst:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 1 PASS: 20-instance gradient check, worst mismatch "
          f"{worst:.2e} (tol 1e-5), {elapsed:.1f}s")


def test_criterion_2_zero_weight_identity():
    """All-zero parameters: gates exactly 0.5, cell and hidden exactly 0."""
    params = LstmParams.zeros(1, 7)
    h, c, (i, f, o, g) = cell_step(np.array([3.7]), params)
    assert np.all(i == 0.5)
    assert np.all(f == 0.5)
    assert np.all(o == 0.5)
    assert np.all(g == 0.0)
    assert np.all(c == 0.0)
    assert np.all(h == 0.0)
    print("\nACCEPTANCE 2 PASS: zero-weight cell gives gates 0.5, h = C = 0 exactly")


def test_criterion_3_adam_first_step():
    """Unit gradient from a fresh state moves by -0.001/(1+1e-8) +- 1e-12."""
    params = LstmParams.zeros(1, 1)
    grads = LstmParams(np.ones(params.n_params), 1, 1)
    updated, state = adam_step(params, grads, AdamState.fresh(params.n_params))
    delta = updated.vec
    expected = -0.001 / (1.0 + 1e-8)
    assert np.all(np.abs(delta - expected) <= 1e-12)
    assert state.t == 1
    print(f"\nACCEPTANCE 3 PASS: Adam first step delta {delta[0]!r} "
          f"matches {expected!r} within 1e-12")


def test_criterion_4_svr_oracle_equivalence():
    """SMO dual objective vs projected-gradient QP oracle: 1e-6, < 30 s."""
    start = time.monotonic()
    c_choices = (0.5, 2.0, 8.0, 32.0)
    eps_choices = (0.0, 0.05, 0.2)
    checked = 0
    worst_rel = 0.0
    for kind, gamma in (("linear", 1.0), ("rbf", 0.6), ("sigmoid", 0.2)):
        for draw in range(17):
            seed = 100 * checked + draw
            n = 4 + (draw % 7)
            X, y, spec = random_instance(seed, n=n, kind=kind, gamma=gamma)
            c_bound = c_choices[draw % len(c_choices)]
            epsilon = eps_choices[draw % len(eps_choices)]
            cfg = SvrConfig(kernel=spec, c=c_bound, epsilon=epsilon,
                            tol=1e-6, max_iter=200_000)
            model = svr_mod.fit(X, y, cfg)
            assert model.converged

            K = svr_mod.gram_matrix(spec, X)
            beta = np.zeros(n)
            for sv, coef in zip(model.support_vectors, model.dual_coefs):
                idx = int(np.where(np.all(X == sv, axis=1))[0][0])
                beta[idx] = coef

            # dual-bound and equality-constraint invariants at tol
            assert np.all(np.abs(beta) <= c_bound * (1.0 + 1e-12))
            assert abs(beta.sum()) <= cfg.tol

            # epsilon-tube KKT at tol
            preds = svr_mod.predict_batch(model, X)
            resid = np.abs(preds - y)
            inside = resid < epsilon - cfg.tol
            assert np.all(np.abs(beta[inside]) <= 1e-12)
            unbounded = (np.abs(beta) > 1e-9) & (np.abs(beta) < c_bound * (1 - 1e-9))
            assert np.all(np.abs(resid[unbounded] - epsilon) <= cfg.tol + 1e-12)

            ours = dual_objective(K, y, beta, epsilon)
            _, reference = qp_reference_solve(K, y, c_bound, epsilon)
            rel = abs(ours - reference) / max(1.0, abs(reference))
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-6, (
                f"{kind} seed {seed}: objective {ours!r} vs oracle {reference!r}")
            checked += 1
    elapsed = time.monotonic() - start
    assert checked == 51
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 4 PASS: {checked} instances across 3 kernels, worst "
          f"objective gap {worst_rel:.2e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_5_linear_gamma_invariance():
    """Full 48-cell grid on the fixture: linear rows bitwise equal over gamma."""
    normalized, split, _ = _fixture_prepared()
    n = normalized.size
    t = (np.arange(n) / (n - 1)).reshape(-1, 1)
    gammas = (0.001, 0.01, 0.1, 1.0)
    cs = (1.0, 10.0, 100.0, 1000.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        grid = svr_mod.grid_search(t[:split], normalized[:split],
                                   ("rbf", "sigmoid", "linear"), gammas, cs,
                                   folds=ds.time_folds(split, 5), epsilon=0.1)
    assert len(grid.cells) == 48
    linear = [c for c in grid.cells if c.kernel == "linear"]
    assert len(linear) == 16
    for c_value in cs:
        mses = [c.cv_mse for c in linear if c.c == c_value]
        assert len(mses) == len(gammas)
        assert all(m == mses[0] for m in mses), (
            f"linear C={c_value} rows differ across gamma: {mses}")
    print("\nACCEPTANCE 5 PASS: 48-cell grid built; linear-kernel MSE bitwise "
          "identical across all four gammas for every C")


def test_criterion_6_polynomial_recovery_and_nesting():
    """Exact degree-3 recovery below 1e-10; train MSE non-increasing."""
    xs = np.arange(40.0)
    ys = 0.002 * xs**3 - 0.04 * xs**2 + 0.5 * xs + 2.0
    model = polyreg.fit(xs[:32], ys[:32], 3)
    test_mse = evaluation.mse(ys[32:], polyreg.predict(model, xs[32:]))
    assert test_mse < 1e-10, f"cubic recovery test MSE {test_mse:.3e}"

    normalized, split, _ = _fixture_prepared()
    train_x = np.arange(split, dtype=np.float64)
    train_y = normalized[:split]
    train_mses = []
    for degree in (2, 4, 6, 9, 11):
        fitted = polyreg.fit(train_x, train_y, degree)
        train_mses.append(evaluation.mse(train_y, polyreg.predict(fitted, train_x)))
    for higher_degree_mse, lower_degree_mse in zip(train_mses[1:], train_mses[:-1]):
        assert higher_degree_mse <= lower_degree_mse * (1.0 + 1e-9), train_mses
    print(f"\nACCEPTANCE 6 PASS: degree-3 test MSE {test_mse:.2e} (< 1e-10); "
          f"train MSE non-increasing over degrees 2,4,6,9,11")


def test_criterion_7_mse_unit_relation():
    """Raw MSE equals (max - min)^2 times normalized MSE within 1e-9."""
    rng = np.random.default_rng(77)
    scaler = ds.ScalerParams(min=6953.25, max=9614.5)
    for _ in range(25):
        targets = rng.uniform(-0.3, 1.3, size=120)
        preds = targets + rng.normal(scale=rng.uniform(0.001, 0.3), size=120)
        m_norm = evaluation.mse(targets, preds)
        m_raw = evaluation.mse(ds.inverse_scale(targets, scaler),
                               ds.inverse_scale(preds, scaler))
        assert abs(m_raw - scaler.span**2 * m_norm) <= 1e-9 * m_raw
    print("\nACCEPTANCE 7 PASS: raw MSE = span^2 x normalized MSE within 1e-9 "
          "relative on 25 random prediction sets")


def test_criterion_8_structural_reproduction(tmp_path):
    """Default pipeline on the fixture: table shapes + bit-identical rerun."""
    start = time.monotonic()

    def run_pipeline(out_dir):
        base = ["--input", str(SAMPLE), "--out-dir", str(out_dir), "--seed", "42"]
        assert main(["prepare", *base]) == 0
        for model in ("lstm", "svr", "poly"):
            assert main(["run", model, *base]) == 0
        assert main(["compare", *base]) == 0

    def data_rows(path):
        lines = [l for l in Path(path).read_text().splitlines()
                 if l and not l.startswith("#")]
        return lines[1:]

    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        run_pipeline(out_a)
        run_pipeline(out_b)

    assert len(data_rows(out_a / "lstm_epochs.csv")) == 5
    assert len(data_rows(out_a / "svr_grid.csv")) == 48
    assert len(data_rows(out_a / "poly_degrees.csv")) == 5
    assert len(data_rows(out_a / "comparison.csv")) == 3

    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"pipeline pair took {elapsed:.1f} s"
    print(f"\nACCEPTANCE 8 PASS: 5-row epoch table, 48-cell grid, 5-row degree "
          f"table, 3-row comparison; two runs byte-identical; {elapsed:.1f}s total")


def test_price_scale_invariance(tmp_path):
    """Every price x2: selections and normalized MSEs keep their bits, and
    each raw MSE is exactly 4x.  Doubling is exact in binary floating
    point, and min-max scaling cancels it."""
    start = time.monotonic()
    header, *rows = SAMPLE.read_text().splitlines()
    doubled = tmp_path / "doubled.csv"
    lines = [header]
    for row in rows:
        date, *prices, volume = row.split(",")
        lines.append(",".join([date, *(repr(2.0 * float(p)) for p in prices), volume]))
    doubled.write_text("\n".join(lines) + "\n")

    outs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        for name, csv in (("a", SAMPLE), ("b", doubled)):
            out = tmp_path / name
            base = ["--input", str(csv), "--out-dir", str(out), "--seed", "42"]
            assert main(["prepare", *base]) == 0
            for model in ("lstm", "svr", "poly"):
                assert main(["run", model, *base]) == 0
            assert main(["compare", *base]) == 0
            outs.append(out)
    a, b = outs
    for name in ("prepared.csv", "lstm_epochs.csv", "svr_grid.csv", "poly_degrees.csv",
                 "lstm_history.csv", "svr_best.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    for model in ("lstm", "svr", "poly"):
        one, two = (json.loads((out / f"{model}_result.json").read_text()) for out in outs)
        assert one["mse_normalized"] == two["mse_normalized"], model
        assert two["mse_raw"] / one["mse_raw"] == 4.0, model

    elapsed = time.monotonic() - start
    print(f"\nPRICE SCALE PASS: prices x2 keep every selection and normalized MSE, "
          f"raw MSEs x4 exactly; {elapsed:.1f}s")


def test_criterion_9_reference_ranking():
    """The published per-model MSE trio ranks SVM < LSTM < Polynomial."""
    results = [
        evaluation.ModelResult("Long Short Term Memory", 97.91950725856172,
                               97.91950725856172),
        evaluation.ModelResult("Support Vector Machine", 0.02, 0.02),
        evaluation.ModelResult("Polynomial Regression", 51702001.51, 51702001.51),
    ]
    ranked = evaluation.compare(results)
    assert [r.model_name for r in ranked] == [
        "Support Vector Machine",
        "Long Short Term Memory",
        "Polynomial Regression",
    ]
    assert ranked[0].model_name == "Support Vector Machine"
    assert ranked[0].mse_normalized == 0.02
    print("\nACCEPTANCE 9 PASS: reference MSEs rank SVM < LSTM < Polynomial, "
          "winner SVM at 0.02")
