import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from cryptobench import lstm
from cryptobench.config import ConfigError, RunConfig
from cryptobench.dataset import make_windows
from cryptobench.lstm import (
    AdamState,
    LstmParams,
    adam_step,
    epoch_grid,
    init_params,
)

from oracles import (
    central_difference_gradient,
    lstm_params_as_lists,
    lstm_scalar_cell,
    lstm_scalar_sequence,
    relative_mismatch,
)

# Frozen scalar-oracle values for the D=H=1, all-weights-one cell:
# i = f = o = sigmoid(1), candidate = tanh(1), C = sigmoid(1)*tanh(1),
# h = sigmoid(1)*tanh(C).
SIG1 = 0.7310585786300049
TANH1 = 0.7615941559557649
CELL_C = 0.5567699411459397
CELL_H = 0.36960635293570576


def ones_params():
    p = LstmParams.zeros(1, 1)
    p.w[:, :-1] = 1.0
    return p


def random_params(input_dim, hidden, seed):
    return init_params(input_dim, hidden, np.random.default_rng(seed))


def cell_step(x, p, h0=None, c0=None):
    """One ``lstm._step`` at B = 1 from (h0, c0), zero by default: h_t,
    C_t and the i, f, o, g activations."""
    hidden = p.hidden_size
    h0 = np.zeros(hidden) if h0 is None else h0
    c0 = np.zeros(hidden) if c0 is None else c0
    h = np.empty((hidden, 1))
    z_t = np.concatenate((h0, x, [1.0]))[:, np.newaxis]
    act, c, _ = lstm._step(p.w, z_t, c0[:, np.newaxis], h)
    return h[:, 0], c[:, 0], lstm._gates(act[:, 0], hidden)


def forward(window, p):
    """The head output for one window of scalars or (T, D) features."""
    return lstm.predict_batch(p, window[np.newaxis])[0]


def gradient(window, target, p):
    """The gradient of (prediction - target)^2 for one window."""
    return lstm._batch_grads(lstm._time_major(window[np.newaxis]), np.array([target]), p)[0]


class TestCellForward:
    def test_zero_parameters_exact(self):
        p = LstmParams.zeros(2, 3)
        h, c, (i, f, o, g) = cell_step(np.array([1.0, -2.0]), p)
        np.testing.assert_array_equal(i, 0.5)
        np.testing.assert_array_equal(f, 0.5)
        np.testing.assert_array_equal(o, 0.5)
        np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_unit_scalar_cell_matches_oracle(self):
        h, c, (i, f, o, g) = cell_step(np.array([1.0]), ones_params())
        np.testing.assert_allclose(i, SIG1, rtol=1e-15)
        np.testing.assert_allclose(f, SIG1, rtol=1e-15)
        np.testing.assert_allclose(o, SIG1, rtol=1e-15)
        np.testing.assert_allclose(g, TANH1, rtol=1e-15)
        np.testing.assert_allclose(c, CELL_C, rtol=1e-14)
        np.testing.assert_allclose(h, CELL_H, rtol=1e-14)

    def test_matches_scalar_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for hidden in (1, 2, 4):
            p = random_params(2, hidden, seed=hidden)
            x = rng.normal(size=2)
            h0 = rng.normal(size=hidden) * 0.5
            c0 = rng.normal(size=hidden)
            h, c, (i, _, _, _) = cell_step(x, p, h0.copy(), c0.copy())
            oh, oc, gates = lstm_scalar_cell(
                x.tolist(), h0.tolist(), c0.tolist(), lstm_params_as_lists(p))
            np.testing.assert_allclose(h, oh, rtol=1e-12)
            np.testing.assert_allclose(c, oc, rtol=1e-12)
            np.testing.assert_allclose(i, gates["i"], rtol=1e-12)

    def test_gate_ranges(self):
        rng = np.random.default_rng(5)
        p = random_params(1, 6, seed=9)
        h, c = np.zeros(6), np.zeros(6)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=1)
            h, c, (i, f, o, g) = cell_step(x, p, h, c)
            for gate in (i, f, o):
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
            assert np.all(np.abs(g) < 1.0)
            assert np.all(np.abs(h) < 1.0)


class TestSequenceForward:
    def test_zero_params_returns_head_bias(self):
        p = LstmParams.zeros(1, 4)
        p.b_y = -2.5
        pred = forward(np.array([1.0, 2.0, 3.0]), p)
        assert pred == -2.5

    def test_single_step_equals_cell_step_plus_head(self):
        p = random_params(1, 3, seed=21)
        window = np.array([0.7])
        pred = forward(window, p)
        _, (_, _, _, cells) = lstm._unroll(lstm._time_major(window[np.newaxis]), p, keep=True)
        h, c, _ = cell_step(window[:1], p)
        np.testing.assert_allclose(pred, float(h @ p.w_y + p.b_y), rtol=1e-15)
        np.testing.assert_allclose(cells[1][:, 0], c, rtol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        for hidden in (1, 2, 3):
            p = random_params(1, hidden, seed=100 + hidden)
            window = rng.normal(size=3)
            pred = forward(window, p)
            oracle = lstm_scalar_sequence(
                [[v] for v in window.tolist()], lstm_params_as_lists(p))
            assert relative_mismatch(pred, oracle) < 1e-12

    def test_equals_manual_cell_loop(self):
        p = random_params(1, 5, seed=8)
        window = np.random.default_rng(0).normal(size=7)
        h, c = np.zeros(5), np.zeros(5)
        for v in window:
            h, c, _ = cell_step(np.array([v]), p, h, c)
        expected = float(h @ p.w_y + p.b_y)
        pred = forward(window, p)
        np.testing.assert_allclose(pred, expected, rtol=1e-14)

    def test_two_features_match_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for hidden in (1, 3):
            p = random_params(2, hidden, seed=200 + hidden)
            window = rng.normal(size=(5, 2))
            pred = forward(window, p)
            oracle = lstm_scalar_sequence(window.tolist(), lstm_params_as_lists(p))
            np.testing.assert_allclose(pred, oracle, rtol=1e-12)


class TestBpttGradients:
    def test_zero_residual_gives_zero_gradients(self):
        p = random_params(1, 3, seed=17)
        window = np.array([0.2, -0.4, 0.9])
        pred = forward(window, p)
        grads = gradient(window, pred, p)
        assert np.all(grads.vec == 0.0)

    def test_head_bias_gradient(self):
        p = random_params(1, 4, seed=2)
        window = np.array([0.5, 0.1])
        target = -0.3
        pred = forward(window, p)
        grads = gradient(window, target, p)
        np.testing.assert_allclose(grads.b_y, 2.0 * (pred - target), rtol=1e-14)

    def test_gradients_match_finite_differences(self):
        # central differences carry ~1e-10 absolute noise at step 1e-6,
        # so the instance is seed-controlled to keep every gradient
        # component well above that floor
        p = random_params(1, 3, seed=1031)
        window = np.random.default_rng(2031).normal(size=4) * 0.8
        target = float(np.random.default_rng(3031).normal())
        analytic = gradient(window, target, p).vec

        def loss(theta):
            q = LstmParams(theta, 1, 3)
            pred = forward(window, q)
            return (pred - target) ** 2

        numeric = central_difference_gradient(loss, p.vec, step=1e-6)
        assert float(relative_mismatch(analytic, numeric).max()) < 1e-5

    def test_batch_kernel_is_mean_of_per_sample(self):
        p = random_params(1, 4, seed=42)
        rng = np.random.default_rng(6)
        inputs = rng.normal(size=(5, 6))
        targets = rng.normal(size=5)
        grads, loss = lstm._batch_grads(lstm._time_major(inputs), targets, p)
        per_sample = np.mean(
            [gradient(inputs[k], targets[k], p).vec for k in range(5)],
            axis=0)
        np.testing.assert_allclose(grads.vec, per_sample, rtol=1e-12, atol=1e-15)
        preds = lstm.predict_batch(p, inputs)
        expected_loss = float(np.mean((preds - targets) ** 2))
        np.testing.assert_allclose(loss, expected_loss, rtol=1e-12)

    def test_two_feature_batch_is_mean_of_per_sample(self):
        # D = 2 exercises every x_t row of z_t = [h_{t-1}; x_t; 1]
        p = random_params(2, 4, seed=52)
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(6, 5, 2))
        targets = rng.normal(size=6)
        grads, _ = lstm._batch_grads(lstm._time_major(inputs), targets, p)
        per_sample = np.mean(
            [gradient(inputs[k], targets[k], p).vec for k in range(6)],
            axis=0)
        np.testing.assert_allclose(grads.vec, per_sample, rtol=1e-12, atol=1e-15)

    def test_two_feature_gradients_match_finite_differences(self):
        p = random_params(2, 3, seed=1033)
        window = np.random.default_rng(2033).normal(size=(4, 2)) * 0.8
        target = float(np.random.default_rng(3033).normal())
        analytic = gradient(window, target, p).vec

        def loss(theta):
            pred = forward(window, LstmParams(theta, 2, 3))
            return (pred - target) ** 2

        numeric = central_difference_gradient(loss, p.vec, step=1e-6)
        assert float(relative_mismatch(analytic, numeric).max()) < 1e-5

    def test_ragged_final_batch(self):
        # 37 windows in batches of 32 leave a final batch of 5
        p = random_params(1, 6, seed=13)
        rng = np.random.default_rng(37)
        inputs = rng.normal(size=(37, 8))
        targets = rng.normal(size=37)
        xs = lstm._time_major(inputs)
        for start in (0, 32):
            batch = slice(start, start + 32)
            grads, loss = lstm._batch_grads(xs[:, batch], targets[batch], p)
            preds = [forward(window, p) for window in inputs[batch]]
            expected_loss = float(np.mean((np.array(preds) - targets[batch]) ** 2))
            np.testing.assert_allclose(loss, expected_loss, rtol=1e-12)
            per_sample = np.mean(
                [gradient(window, target, p).vec
                 for window, target in zip(inputs[batch], targets[batch])], axis=0)
            np.testing.assert_allclose(grads.vec, per_sample,
                                       rtol=1e-12, atol=1e-15)


class TestPredictBatch:
    def test_chunked_prediction_matches_per_window(self):
        n = 2 * lstm._PREDICT_CHUNK + 5
        p = random_params(1, 5, seed=23)
        inputs = np.random.default_rng(29).normal(size=(n, 7))
        preds = lstm.predict_batch(p, inputs)
        expected = [forward(inputs[k], p) for k in range(n)]
        assert preds.shape == (n,)
        # the head sums terms of order 0.1, so a prediction near zero
        # carries ~1e-18 absolute rounding that rtol alone would magnify
        np.testing.assert_allclose(preds, expected, rtol=1e-12, atol=1e-15)

    def test_prediction_does_not_depend_on_the_batch(self):
        # a window scored with any other windows, or fewer, gives the
        # bits of the full pass
        p = random_params(1, 50, seed=31)
        rng = np.random.default_rng(37)
        inputs = rng.normal(size=(200, 10))
        full = lstm.predict_batch(p, inputs)
        for m in range(1, len(inputs)):
            np.testing.assert_array_equal(lstm.predict_batch(p, inputs[:m]), full[:m])
        np.testing.assert_array_equal(lstm.predict_batch(p, inputs[77:]), full[77:])
        subset = np.sort(rng.choice(len(inputs), size=37, replace=False))
        np.testing.assert_array_equal(lstm.predict_batch(p, inputs[subset]), full[subset])


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = random_params(1, 3, seed=1)
        state = AdamState.fresh(p.n_params)
        updated, new_state = adam_step(p, LstmParams.zeros(1, 3), state)
        np.testing.assert_array_equal(updated.vec, p.vec)
        assert new_state.t == 1

    def test_first_step_delta(self):
        p = LstmParams.zeros(1, 2)
        grads = LstmParams(np.ones(p.n_params), 1, 2)
        state = AdamState.fresh(p.n_params)
        updated, new_state = adam_step(p, grads, state)
        delta = updated.vec - p.vec
        np.testing.assert_allclose(delta, -0.001 / (1.0 + 1e-8), atol=1e-12)
        assert np.all(new_state.v >= 0.0)

    def test_first_step_bias_correction_recovers_gradient(self):
        rng = np.random.default_rng(12)
        g = rng.normal(scale=3.0, size=11)
        state = AdamState.fresh(11)
        beta1 = lstm._BETA1
        m = beta1 * state.m + (1 - beta1) * g
        m_hat = m / (1 - beta1 ** 1)
        np.testing.assert_allclose(m_hat, g, rtol=1e-15)

    def test_two_steps_use_the_published_constants(self):
        # Kingma & Ba's beta1 0.9, beta2 0.999 and eps 1e-8, written out:
        # the config hash does not cover them, so this test pins them
        p = LstmParams.zeros(1, 2)
        rng = np.random.default_rng(3)
        g1, g2 = rng.normal(size=(2, p.n_params))
        p1, state = adam_step(p, LstmParams(g1, 1, 2), AdamState.fresh(p.n_params))
        p2, state = adam_step(p1, LstmParams(g2, 1, 2), state)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        step2 = m / (1 - 0.9 ** 2) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
        np.testing.assert_allclose(p2.vec - p1.vec, -0.001 * step2, rtol=1e-9)

    def test_negated_gradient_negates_update_exactly(self):
        # observe the raw step by updating zero parameters: delta is
        # -lr * m_hat / (sqrt(v_hat) + eps), which negates bitwise with g
        p = LstmParams.zeros(1, 3)
        g = np.random.default_rng(9).normal(size=p.n_params)
        grads_pos = LstmParams(g, 1, 3)
        grads_neg = LstmParams(-g, 1, 3)
        up_pos, _ = adam_step(p, grads_pos, AdamState.fresh(p.n_params))
        up_neg, _ = adam_step(p, grads_neg, AdamState.fresh(p.n_params))
        np.testing.assert_array_equal(up_pos.vec, -up_neg.vec)


def constant_dataset(value, n=60, window=5):
    return make_windows(np.full(n, value), window)


class TestTrain:
    def test_deterministic_for_fixed_seed(self):
        data = make_windows(np.sin(np.linspace(0, 6, 40)), 6)
        cfg = RunConfig(lstm_hidden_size=6)
        rows_a, snaps_a, hist_a = epoch_grid(data, data, [3], cfg=replace(cfg, seed=7))
        rows_b, snaps_b, hist_b = epoch_grid(data, data, [3], cfg=replace(cfg, seed=7))
        assert rows_a == rows_b and hist_a == hist_b
        np.testing.assert_array_equal(snaps_a[3].params.vec,
                                      snaps_b[3].params.vec)

    def test_seed_changes_history(self):
        data = make_windows(np.sin(np.linspace(0, 6, 40)), 6)
        cfg = RunConfig(lstm_hidden_size=6)
        _, _, hist_a = epoch_grid(data, data, [2], cfg=replace(cfg, seed=7))
        _, _, hist_b = epoch_grid(data, data, [2], cfg=replace(cfg, seed=8))
        assert hist_a != hist_b

    def test_history_shape(self):
        data = constant_dataset(0.3, n=20, window=4)
        rows, _, history = epoch_grid(data, data, [4], cfg=RunConfig(lstm_hidden_size=4, seed=0))
        assert len(history) == 4
        assert all(loss >= 0 for loss in history) and rows[0][1] >= 0

    def test_constant_series_converges(self):
        # analytic optimum is predicting the constant; 100 epochs must
        # drive test MSE below 1e-4
        data = constant_dataset(0.5)
        rows, _, _ = epoch_grid(data, data, [100], cfg=RunConfig(lstm_hidden_size=16, seed=3))
        assert rows[0][1] < 1e-4

    def test_empty_dataset_rejected(self):
        data = constant_dataset(0.5)
        empty = lstm.WindowedDataset(np.empty((0, 5)), np.empty(0), 5)
        with pytest.raises(ValueError, match="training dataset is empty"):
            epoch_grid(empty, data, [1], cfg=RunConfig(seed=0))


class TestEpochGrid:
    def test_rows_follow_requested_order(self):
        data = make_windows(np.cos(np.linspace(0, 4, 30)), 5)
        cfg = RunConfig(lstm_hidden_size=4)
        rows, snapshots, history = epoch_grid(data, data, [3, 1, 2], cfg=replace(cfg, seed=2))
        assert [r[0] for r in rows] == [3, 1, 2]
        assert sorted(snapshots) == [1, 2, 3]
        assert len(history) == 3

    def test_history_is_the_batch_size_weighted_batch_loss(self, monkeypatch):
        # 45 windows in batches of 8: the last batch holds 5
        series = np.cos(np.linspace(0, 6, 50))
        data = make_windows(series, 5)
        cfg = RunConfig(lstm_hidden_size=4, lstm_batch_size=8)
        losses = []
        real_grads = lstm._batch_grads

        def recording_grads(xs, targets, params):
            grads, loss = real_grads(xs, targets, params)
            losses.append((loss, len(targets)))
            return grads, loss

        monkeypatch.setattr(lstm, "_batch_grads", recording_grads)
        _, _, history = epoch_grid(data, data, [2], cfg=replace(cfg, seed=5))
        assert len(data) == 45
        assert [size for _, size in losses] == [8, 8, 8, 8, 8, 5] * 2
        expected = []
        for epoch in range(2):
            total = 0.0
            for loss, size in losses[6 * epoch:6 * (epoch + 1)]:
                total += loss * size
            expected.append(total / 45)
        assert history == expected

    def test_snapshot_predictions_score_the_test_mse(self):
        series = np.cos(np.linspace(0, 6, 70))
        train_ds = make_windows(series[:45], 5)
        test_ds = make_windows(series[40:], 5)
        cfg = RunConfig(lstm_hidden_size=4, lstm_batch_size=8)
        rows, snapshots, _ = epoch_grid(train_ds, test_ds, [1, 3], cfg=replace(cfg, seed=5))
        for epoch, mse in rows:
            diff = snapshots[epoch].test_predictions - test_ds.targets
            assert float(np.mean(diff * diff)) == mse
            np.testing.assert_array_equal(
                snapshots[epoch].test_predictions,
                lstm.predict_batch(snapshots[epoch].params, test_ds.inputs))

    def test_only_the_grid_epochs_score_the_test_windows(self, monkeypatch):
        series = np.sin(np.linspace(0, 9, 143)) * np.linspace(0.5, 1.0, 143)
        train_ds = make_windows(series[:107], 6)
        test_ds = make_windows(series[101:], 6)
        cfg = RunConfig(lstm_hidden_size=16, lstm_batch_size=16)
        parent = os.getpid()
        calls = []
        real_predict = lstm.predict_batch

        def counting_predict(params, inputs):
            calls.append((os.getpid() == parent, len(inputs)))
            return real_predict(params, inputs)

        monkeypatch.setattr(lstm, "predict_batch", counting_predict)
        _, snapshots, history = epoch_grid(train_ds, test_ds, [4, 1, 3], cfg=replace(cfg, seed=3))
        # one call per grid epoch, in this process, on the test windows alone
        assert calls == [(True, len(test_ds))] * 3
        assert sorted(snapshots) == [1, 3, 4] and len(history) == 4

    def test_grid_rows_equal_independent_runs(self):
        data = make_windows(np.cos(np.linspace(0, 4, 30)), 5)
        cfg = RunConfig(lstm_hidden_size=4)
        rows, snapshots, _ = epoch_grid(data, data, [1, 3], cfg=replace(cfg, seed=11))
        for count, mse in rows:
            alone_rows, alone, _ = epoch_grid(data, data, [count], cfg=replace(cfg, seed=11))
            assert alone_rows == [(count, mse)]
            np.testing.assert_array_equal(
                snapshots[count].params.vec, alone[count].params.vec)


class TestParamsLayout:
    def test_init_draws_checkpoint_names_in_order(self):
        # a seed gives the weights it gave when the checkpoint stored
        # these per-gate names: each drawn in turn, in its own shape
        d, h = 2, 3
        k = 1.0 / math.sqrt(h)
        for seed in range(3):
            params = init_params(d, h, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            expected = {}
            for name in ("w_ix", "w_fx", "w_cx", "w_ox", "w_ih", "w_fh", "w_ch", "w_oh", "w_y"):
                shape = {"x": (d, h), "h": (h, h), "y": (h,)}[name[-1]]
                expected[name] = rng.uniform(-k, k, size=shape).tolist()
            expected |= {"b_i": [0.0] * h, "b_f": [1.0] * h,
                         "b_c": [0.0] * h, "b_o": [0.0] * h, "b_y": 0.0}
            assert lstm_params_as_lists(params) == expected

    def test_checkpoint_fields_are_w_w_y_and_b_y(self):
        params = random_params(2, 3, 0)
        params.b_y = 0.25
        fields = json.loads(json.dumps(params.to_fields()))
        assert fields == {"w": params.w.tolist(), "w_y": params.w_y.tolist(), "b_y": 0.25}
        vec = np.concatenate([np.ravel(fields["w"]), fields["w_y"], [fields["b_y"]]])
        assert vec.tobytes() == params.vec.tobytes()


# the range each [lstm] setting must lie in, as RunConfig's error message says
_CONFIG_RANGES = {"hidden_size": ">= 1", "batch_size": ">= 1",
                  "learning_rate": "finite and > 0"}


@pytest.mark.parametrize("field, value", [
    ("hidden_size", 0), ("hidden_size", -3), ("batch_size", 0), ("batch_size", -1),
    ("learning_rate", math.nan), ("learning_rate", 0.0), ("learning_rate", math.inf),
])
def test_config_rejects_sizes_below_one(field, value):
    message = f"{field} must be {_CONFIG_RANGES[field]}, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        RunConfig(**{f"lstm_{field}": value})


def test_config_accepts_range_edges():
    cfg = RunConfig(lstm_learning_rate=5e-324)
    p = LstmParams.zeros(1, 3)
    grads = LstmParams(np.random.default_rng(4).normal(size=p.n_params), 1, 3)
    updated, state = adam_step(p, grads, AdamState.fresh(p.n_params), cfg)
    assert np.all(np.isfinite(updated.vec)) and np.all(np.isfinite(state.v))
