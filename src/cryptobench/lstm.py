"""From-scratch single-layer LSTM regressor trained by BPTT + Adam.

The recurrence, gates-major: with z_t = [h_{t-1}; x_t; 1] of length
H+D+1 and one weight matrix W of shape (4H, H+D+1),

    [a_i; a_f; a_o; a_g] = W . z_t
    i_t = sigmoid(a_i)   f_t = sigmoid(a_f)   o_t = sigmoid(a_o)   g_t = tanh(a_g)
    C_t = f_t * C_{t-1} + i_t * g_t
    h_t = o_t * tanh(C_t)

with a linear scalar head pred = h_T . w_y + b_y and per-sample loss
(pred - target)^2.  The row blocks of W are the gates in i, f, o, g
order and its columns are [h | x | 1], so the three sigmoid gates are one
contiguous 3H-row block, tanh runs on the last H rows, and a batch of B
windows keeps z_t as (H+D+1, B) columns: a step is one product W . z_t,
and the reverse pass accumulates the gradient of W as one product per
step.  W is stored as it is multiplied: as the head of the flat
parameter vector (``LstmParams``), and as its 4H rows in the checkpoint.
Everything runs in float64 numpy.

``epoch_grid`` is the one training entry point: mini-batch Adam over the
training windows in time order (no shuffling), one Adam step per batch,
deterministic for a fixed seed, scored at the grid epochs.
``predict_batch`` scores each window independently of the windows passed
with it, so a checkpoint reloaded and scored on the test windows alone
reproduces its recorded MSE bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import RunConfig
from .dataset import WindowedDataset
from .evaluation import mse

__all__ = [
    "LstmParams",
    "AdamState",
    "Snapshot",
    "init_params",
    "adam_step",
    "epoch_grid",
    "predict_batch",
]

# Windows per forward pass in ``predict_batch``, which pads a short last
# chunk to this width, because OpenBLAS can round a column of ``W @ z``
# differently for a different column count.  It also bounds the live z_t
# stack and (4H, B) arrays whatever the number of windows.  Predicting
# 800 windows of 30 steps at H = 50 (2-vCPU Xeon, OpenBLAS on 2 threads,
# best of 40) took 23-25 ms and raised peak RSS by 1.1 MB in chunks of
# 64, against 23-32 ms and 2.5 MB in chunks of 128, 26-35 ms and 4.8 MB
# in chunks of 256, and 26-30 ms and 14.6 MB in one pass.
_PREDICT_CHUNK = 64


def _vector_size(d: int, h: int) -> int:
    return 4 * h * (d + h + 1) + h + 1


class LstmParams:
    """All gate weights plus the scalar output head, in one flat vector.

    ``vec`` holds W (4H, H+D+1) in C order, gate rows i, f, o, g and
    columns [h | x | 1] as the module docstring lays out, then w_y (H)
    and b_y.  ``w`` and ``w_y`` are views into it, so writing through
    either updates ``vec``.  Also serves as the container for gradients,
    which share the layout.
    """

    def __init__(self, vec: np.ndarray, input_dim: int, hidden_size: int):
        d, h = input_dim, hidden_size
        if min(d, h) < 1 or vec.shape != (_vector_size(d, h),):
            raise ValueError(f"vector length {vec.size} does not match D={d}, H={h}")
        self.vec = vec
        self.input_dim = d
        self.hidden_size = h
        self.w = vec[:-h - 1].reshape(4 * h, h + d + 1)
        self.w_y = vec[-h - 1:-1]

    @property
    def b_y(self) -> float:
        return float(self.vec[-1])

    @b_y.setter
    def b_y(self, value: float):
        self.vec[-1] = value

    @property
    def n_params(self) -> int:
        return self.vec.size

    def to_fields(self) -> dict:
        """``w`` as 4H rows of H+D+1 floats, ``w_y`` and ``b_y``: the
        ``params`` of the checkpoint."""
        return {"w": self.w.tolist(), "w_y": self.w_y.tolist(), "b_y": self.b_y}

    @classmethod
    def zeros(cls, input_dim: int, hidden_size: int) -> "LstmParams":
        return cls(np.zeros(_vector_size(input_dim, hidden_size)), input_dim, hidden_size)


@dataclass
class AdamState:
    """Adam moment accumulators over the flattened parameter vector and
    the step count; the constants are the ``lstm_*`` fields of a
    ``RunConfig``."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


@dataclass(frozen=True)
class Snapshot:
    """The model after one epoch of the grid and its test predictions,
    the ones the epoch's test MSE was computed from."""

    params: LstmParams
    test_predictions: np.ndarray


def init_params(input_dim: int, hidden_size: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-k, k) init with k = 1/sqrt(H); forget bias starts at 1.

    The draws keep the order of the v1 checkpoint's per-gate fields, so
    a seed gives the weights it always gave: W's x columns, then its h
    columns, gates i, f, g, o within each, every block drawn in its
    transposed (D, H) or (H, H) shape; then w_y.
    """
    d, h = input_dim, hidden_size
    k = 1.0 / math.sqrt(h)
    params = LstmParams.zeros(d, h)
    for cols in (slice(h, h + d), slice(0, h)):
        for gate in (0, 1, 3, 2):  # row blocks of i, f, g, o
            block = params.w[gate * h:(gate + 1) * h, cols]
            block[...] = rng.uniform(-k, k, size=block.T.shape).T
    params.w_y[...] = rng.uniform(-k, k, size=h)
    params.w[h:2 * h, -1] = 1.0
    return params


# --- gates-major kernels (layout in the module docstring) --------------
# Windows are time-major, xs (T, B, D).

def _gates(act: np.ndarray, h: int):
    """The i, f, o, g row blocks of a (4H, B) array, as views."""
    return act[:h], act[h:2 * h], act[2 * h:3 * h], act[3 * h:]


def _step(w: np.ndarray, z_t: np.ndarray, c_prev: np.ndarray, h_out: np.ndarray):
    """One cell step for a batch: z_t is [h_{t-1}; x_t; 1] (H+D+1, B).

    Writes h_t into ``h_out`` and returns the (4H, B) gate activations,
    C_t and tanh(C_t).
    """
    h = len(c_prev)
    act = w @ z_t
    sig = act[:3 * h]
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    np.tanh(act[3 * h:], out=act[3 * h:])
    i, f, o, g = _gates(act, h)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    np.multiply(o, tc, out=h_out)
    return act, c, tc


def _unroll(xs: np.ndarray, params: LstmParams, keep: bool = False):
    """Run the cell over time-major windows from a zero state.

    Returns the head output (B,) and what the reverse pass reads: the
    (T+1, H+D+1, B) stack of z_t (``z[T, :H]`` is h_T) and, with
    ``keep``, the per-step gate activations and tanh(C_t) and the cell
    states with the zero initial state first (``cs[t]`` is C_{t-1}).
    """
    steps, batch, d = xs.shape
    h = params.hidden_size
    z = np.ones((steps + 1, h + d + 1, batch))
    z[0, :h] = 0.0
    z[:-1, h:h + d] = xs.transpose(0, 2, 1)
    c = np.zeros((h, batch))
    acts, tcs, cs = [], [], [c]
    for t in range(steps):
        act, c, tc = _step(params.w, z[t], c, z[t + 1, :h])
        if keep:
            acts.append(act)
            tcs.append(tc)
            cs.append(c)
    return params.w_y @ z[-1, :h] + params.b_y, (z, acts, tcs, cs)


def _batch_grads(xs: np.ndarray, targets: np.ndarray, params: LstmParams):
    """Mean gradient of the squared error over a batch, plus the mean loss.

    Only gates and states are kept across the window; the gradient of W
    accumulates step by step as delta_t . z_t^T, in place in ``grads.w``.
    """
    _, batch, d = xs.shape
    h = params.hidden_size
    pred, (z, acts, tcs, cs) = _unroll(xs, params, keep=True)
    resid = pred - targets
    dpred = 2.0 * resid
    grads = LstmParams.zeros(d, h)
    grads.w_y[...] = z[-1, :h] @ dpred
    grads.b_y = dpred.sum()

    w_h_t = params.w[:, :h].T
    dh = np.outer(params.w_y, dpred)
    dc = np.zeros_like(dh)
    da = np.empty((4 * h, batch))
    for t in range(len(acts) - 1, -1, -1):
        act, tc = acts[t], tcs[t]
        i, f, o, g = _gates(act, h)
        dc += dh * o * (1.0 - tc * tc)
        # d loss / d gate activation, times the activation's derivative:
        # a(1 - a) for the sigmoid gates, 1 - g^2 for the tanh candidate
        np.concatenate((dc * g, dc * cs[t], dh * tc, dc * i), out=da)
        sig = act[:3 * h]
        da[:3 * h] *= sig * (1.0 - sig)
        da[3 * h:] *= 1.0 - g * g
        grads.w += da @ z[t].T
        dh = w_h_t @ da
        dc *= f

    inv = 1.0 / batch
    grads.vec *= inv
    return grads, float(resid @ resid) * inv


def _time_major(inputs) -> np.ndarray:
    """(n, T) scalar windows or (n, T, D) windows as a contiguous (T, n, D) array."""
    xs = np.asarray(inputs, dtype=np.float64)
    if xs.ndim == 2:
        xs = xs[:, :, np.newaxis]
    return np.ascontiguousarray(xs.transpose(1, 0, 2))


def adam_step(
    params: LstmParams, grads: LstmParams, state: AdamState,
    cfg: RunConfig = RunConfig(),
) -> tuple[LstmParams, AdamState]:
    """One Adam update with bias-corrected moments and the step size,
    betas and eps of ``cfg``'s ``lstm_*`` fields; returns new objects."""
    g = grads.vec
    if g.shape != params.vec.shape:
        raise ValueError("gradient layout does not match parameter layout")
    t = state.t + 1
    beta1, beta2 = cfg.lstm_beta1, cfg.lstm_beta2
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    theta = params.vec - cfg.lstm_learning_rate * m_hat / (np.sqrt(v_hat) + cfg.lstm_adam_eps)
    new_params = LstmParams(theta, params.input_dim, params.hidden_size)
    return new_params, AdamState(m=m, v=v, t=t)


def predict_batch(params: LstmParams, inputs: np.ndarray) -> np.ndarray:
    """Head output for each window in ``inputs`` (n, W) or (n, W, D).

    Every product runs over exactly ``_PREDICT_CHUNK`` windows, the last
    chunk padded with zero windows, so that a window's prediction does
    not depend on the other windows passed with it, to the last bit.
    """
    xs = _time_major(inputs)
    steps, n, d = xs.shape
    preds = np.empty(n)
    for start in range(0, n, _PREDICT_CHUNK):
        chunk = xs[:, start:start + _PREDICT_CHUNK]
        width = chunk.shape[1]
        if width < _PREDICT_CHUNK:
            pad = np.zeros((steps, _PREDICT_CHUNK - width, d))
            chunk = np.concatenate((chunk, pad), axis=1)
        preds[start:start + width] = _unroll(chunk, params)[0][:width]
    return preds


def epoch_grid(
    data: WindowedDataset,
    test: WindowedDataset,
    epoch_counts: Sequence[int],
    seed: int,
    cfg: RunConfig = RunConfig(),
) -> tuple[list[tuple[int, float]], dict[int, Snapshot], list[float]]:
    """Train up to the largest epoch count in the grid; return the test
    MSE at each count, a snapshot of the model and its test predictions
    at each count, and the training loss of every epoch.

    Training is full-pass mini-batch Adam, deterministic for a fixed
    seed: the windows are visited in time order (no shuffling), one Adam
    step per batch of ``cfg.lstm_batch_size``, with the hidden size and
    Adam constants of ``cfg``'s other ``lstm_*`` fields.  A run of N
    epochs therefore passes through exactly the states the shorter runs
    end on, so one pass with snapshots reproduces the independent
    per-count runs bit for bit.

    Only the grid epochs are scored, by ``predict_batch`` over the test
    windows.  An epoch's training loss is the mean of its batch losses,
    weighted by batch size, each taken before its batch's Adam step; it
    is not the MSE of the epoch's final model on the training windows.
    """
    counts = [int(e) for e in epoch_counts]
    if len(data) == 0:
        raise ValueError("training dataset is empty")

    rng = np.random.default_rng(seed)
    params = init_params(1, cfg.lstm_hidden_size, rng)
    adam = AdamState.fresh(params.n_params)

    xs_all = _time_major(data.inputs)
    ys_all = np.asarray(data.targets, dtype=np.float64)
    n = len(data)
    wanted = set(counts)
    snapshots: dict[int, Snapshot] = {}
    history: list[float] = []
    for epoch in range(1, max(counts) + 1):
        total = 0.0
        for start in range(0, n, cfg.lstm_batch_size):
            stop = start + cfg.lstm_batch_size
            targets = ys_all[start:stop]
            grads, loss = _batch_grads(xs_all[:, start:stop], targets, params)
            params, adam = adam_step(params, grads, adam, cfg)
            total += loss * len(targets)
        history.append(total / n)
        if epoch in wanted:
            # adam_step returns fresh parameters, so these stay as they are
            snapshots[epoch] = Snapshot(params, predict_batch(params, test.inputs))
    rows = [(e, mse(test.targets, snapshots[e].test_predictions)) for e in counts]
    return rows, snapshots, history
