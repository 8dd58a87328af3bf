"""From-scratch single-layer LSTM regressor trained by BPTT + Adam.

The recurrence uses the x_t . W (row-vector times matrix) convention with
the four gates fused in the i, f, g, o column order of cuDNN and PyTorch's
``nn.LSTM``:

    [a_i a_f a_g a_o] = x_t.W_x + h_{t-1}.W_h + b     W_x (D, 4H), W_h (H, 4H)
    i_t = sigmoid(a_i)   f_t = sigmoid(a_f)   g_t = tanh(a_g)   o_t = sigmoid(a_o)
    C_t = f_t * C_{t-1} + i_t * g_t
    h_t = o_t * tanh(C_t)

with a linear scalar head pred = h_T . w_y + b_y and per-sample loss
(pred - target)^2.  Everything runs in float64 numpy.  One forward pass
and one reverse pass serve every caller: a minibatch of B windows is
unrolled as (B, H) matrix products, and the per-sample operations
(``cell_forward``, ``sequence_forward``, ``bptt_gradients``) run the same
code with B = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .dataset import WindowedDataset

__all__ = [
    "LstmParams",
    "LstmState",
    "GateCache",
    "AdamState",
    "TrainRecord",
    "LstmConfig",
    "init_params",
    "cell_forward",
    "sequence_forward",
    "bptt_gradients",
    "adam_step",
    "train",
    "epoch_grid",
    "predict_batch",
]

# Per-gate names of the weights, in the order ``init_params`` draws them;
# also the field names of the v1 checkpoint.
_WEIGHT_FIELDS = (
    "w_ix", "w_fx", "w_cx", "w_ox",
    "w_ih", "w_fh", "w_ch", "w_oh",
    "b_i", "b_f", "b_c", "b_o",
    "w_y",
)

# Windows per forward pass in ``predict_batch``; bounds the live (B, 4H)
# arrays whatever the number of windows.  Predicting 800 windows of 30
# steps at H = 50 (2-vCPU Xeon, OpenBLAS on 2 threads) took 49 ms and
# raised peak RSS by 1.4 MB in chunks of 64, against 71 ms and 9.1 MB in
# one pass; chunks of 128 and 256 were slower than either.
_PREDICT_CHUNK = 64


def _vector_size(d: int, h: int) -> int:
    return 4 * h * (d + h + 1) + h + 1


def _gate_view(block: str, k: int) -> property:
    def view(self):
        h = self.hidden_size
        return getattr(self, block)[..., k * h:(k + 1) * h]

    return property(view, doc=f"gate {'ifgo'[k]} columns of ``{block}`` (a view)")


class LstmParams:
    """All gate weights plus the scalar output head, in one flat vector.

    ``vec`` is laid out as W_x (D, 4H), W_h (H, 4H), b (4H), w_y (H) and
    b_y.  ``w_x``, ``w_h``, ``b`` and ``w_y`` are views into it, and so
    are the per-gate names (``w_ix`` is ``w_x[:, :H]``, ...); writing
    through any of them updates ``vec``.  Also serves as the container
    for gradients, which share the layout.
    """

    w_ix, w_fx, w_cx, w_ox = (_gate_view("w_x", k) for k in range(4))
    w_ih, w_fh, w_ch, w_oh = (_gate_view("w_h", k) for k in range(4))
    b_i, b_f, b_c, b_o = (_gate_view("b", k) for k in range(4))

    def __init__(self, vec: np.ndarray, input_dim: int, hidden_size: int):
        d, h = input_dim, hidden_size
        if vec.shape != (_vector_size(d, h),):
            raise ValueError(f"vector length {vec.size} does not match D={d}, H={h}")
        self.vec = vec
        self.input_dim = d
        self.hidden_size = h
        wh_start = 4 * d * h
        b_start = wh_start + 4 * h * h
        self.w_x = vec[:wh_start].reshape(d, 4 * h)
        self.w_h = vec[wh_start:b_start].reshape(h, 4 * h)
        self.b = vec[b_start:b_start + 4 * h]
        self.w_y = vec[b_start + 4 * h:-1]

    @property
    def b_y(self) -> float:
        return float(self.vec[-1])

    @b_y.setter
    def b_y(self, value: float):
        self.vec[-1] = value

    @property
    def n_params(self) -> int:
        return self.vec.size

    def to_vector(self) -> np.ndarray:
        """A copy of the flat parameter vector."""
        return self.vec.copy()

    @classmethod
    def from_vector(cls, vec: np.ndarray, input_dim: int, hidden_size: int) -> "LstmParams":
        return cls(np.array(vec, dtype=np.float64), input_dim, hidden_size)

    def to_fields(self) -> dict:
        """The named per-gate arrays of ``_WEIGHT_FIELDS`` plus ``b_y``, as
        lists: the ``params`` of the v1 checkpoint."""
        fields = {name: getattr(self, name).tolist() for name in _WEIGHT_FIELDS}
        return fields | {"b_y": self.b_y}

    @classmethod
    def from_fields(cls, fields: Mapping) -> "LstmParams":
        """Build from the output of ``to_fields``; the inverse, bit for bit."""
        d, h = np.shape(fields["w_ix"])
        params = cls.zeros(d, h)
        for name in _WEIGHT_FIELDS:
            value = np.asarray(fields[name], dtype=np.float64)
            view = getattr(params, name)
            if value.shape != view.shape:
                raise ValueError(f"{name} must have shape {view.shape}")
            view[...] = value
        params.b_y = float(fields["b_y"])
        return params

    @classmethod
    def zeros(cls, input_dim: int, hidden_size: int) -> "LstmParams":
        return cls(np.zeros(_vector_size(input_dim, hidden_size)), input_dim, hidden_size)


@dataclass
class LstmState:
    """Hidden and cell state vectors, both length H."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_size: int) -> "LstmState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


@dataclass
class GateCache:
    """Per-step activations needed by the reverse pass."""

    input_gate: np.ndarray
    forget_gate: np.ndarray
    candidate: np.ndarray
    output_gate: np.ndarray
    cell: np.ndarray


@dataclass
class AdamState:
    """Adam moment accumulators over the flattened parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, n_params: int, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0,
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    train_mse: float
    test_mse: float


@dataclass(frozen=True)
class LstmConfig:
    """Trainer hyperparameters (architecture and optimizer constants)."""

    hidden_size: int = 50
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def init_params(input_dim: int, hidden_size: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-k, k) init with k = 1/sqrt(H); forget bias starts at 1."""
    k = 1.0 / math.sqrt(hidden_size)
    params = LstmParams.zeros(input_dim, hidden_size)
    for name in _WEIGHT_FIELDS:
        if not name.startswith("b_"):
            view = getattr(params, name)
            view[...] = rng.uniform(-k, k, size=view.shape)
    params.b_f[...] = 1.0
    return params


# --- batched kernels ---------------------------------------------------
# Windows are time-major, xs (T, B, D), so each step reads one contiguous
# (B, D) slice.

def _gates(act: np.ndarray, h: int):
    """The i, f, g, o column blocks of a (B, 4H) array, as views."""
    return act[:, :h], act[:, h:2 * h], act[:, 2 * h:3 * h], act[:, 3 * h:]


def _step(x_t, h_prev, c_prev, params: LstmParams):
    """One cell step for a batch; returns the (B, 4H) gate activations,
    C_t, tanh(C_t) and h_t."""
    h = params.hidden_size
    # np.dot, not @: with one input feature (D = 1) numpy's matmul takes a
    # slow path for (B, 1) @ (1, 4H); np.dot gives the same bits ~4x faster
    act = np.dot(x_t, params.w_x) + h_prev @ params.w_h + params.b
    g = np.tanh(act[:, 2 * h:3 * h])
    act = _sigmoid(act)
    act[:, 2 * h:3 * h] = g
    i, f, _, o = _gates(act, h)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return act, c, tc, o * tc


def _unroll(xs: np.ndarray, params: LstmParams, keep: bool = False):
    """Run the cell over time-major windows from a zero state.

    Returns the head output (B,) and, with ``keep``, the lists the reverse
    pass reads: gate activations and tanh(C_t) per step, and cell and
    hidden states with the zero initial state first (``cs[t]`` is C_{t-1}).
    """
    _, batch, _ = xs.shape
    h = np.zeros((batch, params.hidden_size))
    c = np.zeros_like(h)
    acts, tcs, cs, hs = [], [], [c], [h]
    for x_t in xs:
        act, c, tc, h = _step(x_t, h, c, params)
        if keep:
            acts.append(act)
            tcs.append(tc)
            cs.append(c)
            hs.append(h)
    return h @ params.w_y + params.b_y, (acts, tcs, cs, hs)


def _batch_grads(xs: np.ndarray, targets: np.ndarray, params: LstmParams):
    """Mean gradient of the squared error over a batch, plus the mean loss.

    Only gates and states are kept across the window; weight gradients
    accumulate step by step as h_{t-1}^T . delta_t.
    """
    _, batch, d = xs.shape
    h = params.hidden_size
    pred, (acts, tcs, cs, hs) = _unroll(xs, params, keep=True)
    resid = pred - targets
    dpred = 2.0 * resid
    grads = LstmParams.zeros(d, h)
    grads.w_y[...] = dpred @ hs[-1]
    grads.b_y = dpred.sum()

    w_h_t = np.ascontiguousarray(params.w_h.T)
    dh = np.outer(dpred, params.w_y)
    dc = np.zeros_like(dh)
    da = np.empty((batch, 4 * h))
    for t in range(len(acts) - 1, -1, -1):
        act, tc = acts[t], tcs[t]
        i, f, g, o = _gates(act, h)
        dc += dh * o * (1.0 - tc * tc)
        # d loss / d gate activation, times the activation's derivative:
        # a(1 - a) for the sigmoid gates, 1 - g^2 for the tanh candidate
        np.concatenate((dc * g, dc * cs[t], dc * i, dh * tc), axis=1, out=da)
        deriv = act * (1.0 - act)
        deriv[:, 2 * h:3 * h] = 1.0 - g * g
        da *= deriv
        grads.w_x += xs[t].T @ da
        grads.w_h += hs[t].T @ da
        grads.b += da.sum(axis=0)
        dh = da @ w_h_t
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


def _as_sequence(window, input_dim: int) -> np.ndarray:
    """Coerce one window of scalars (or a (T, D) array) to a (T, 1, D) batch."""
    xs = np.asarray(window, dtype=np.float64)
    if xs.ndim == 1:
        xs = xs.reshape(-1, 1)
    if xs.ndim != 2:
        raise ValueError("window must be 1-D scalars or a (T, D) array")
    if xs.shape[0] == 0:
        raise ValueError("window must not be empty")
    if xs.shape[1] != input_dim:
        raise ValueError(f"window feature dim {xs.shape[1]} != input_dim {input_dim}")
    return xs[:, np.newaxis, :]


def _gate_cache(act: np.ndarray, c: np.ndarray, h: int) -> GateCache:
    i, f, g, o = _gates(act, h)
    return GateCache(input_gate=i[0], forget_gate=f[0], candidate=g[0],
                     output_gate=o[0], cell=c[0])


def cell_forward(
    x_t: np.ndarray, state: LstmState, params: LstmParams
) -> tuple[LstmState, GateCache]:
    """One recurrence step; the cache holds i, f, candidate, o and C_t."""
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_t.shape != (params.input_dim,):
        raise ValueError(
            f"x_t shape {x_t.shape} does not match input_dim {params.input_dim}"
        )
    if state.h.shape != (params.hidden_size,) or state.c.shape != (params.hidden_size,):
        raise ValueError("state shapes do not match hidden_size")
    act, c, _, h = _step(x_t[np.newaxis], state.h[np.newaxis], state.c[np.newaxis], params)
    return LstmState(h=h[0], c=c[0]), _gate_cache(act, c, params.hidden_size)


def sequence_forward(window, params: LstmParams) -> tuple[float, list[GateCache]]:
    """Unroll the cell over the window from a zero state and apply the head."""
    xs = _as_sequence(window, params.input_dim)
    pred, (acts, _, cs, _) = _unroll(xs, params, keep=True)
    caches = [_gate_cache(act, c, params.hidden_size) for act, c in zip(acts, cs[1:])]
    return float(pred[0]), caches


def bptt_gradients(window, target: float, params: LstmParams) -> LstmParams:
    """Exact gradient of (prediction - target)^2 w.r.t. every parameter."""
    xs = _as_sequence(window, params.input_dim)
    grads, _ = _batch_grads(xs, np.array([float(target)]), params)
    return grads


def adam_step(
    params: LstmParams, grads: LstmParams, state: AdamState
) -> tuple[LstmParams, AdamState]:
    """One Adam update with bias-corrected moments; returns new objects."""
    g = grads.vec
    if g.shape != params.vec.shape:
        raise ValueError("gradient layout does not match parameter layout")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    theta = params.vec - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_params = LstmParams(theta, params.input_dim, params.hidden_size)
    return new_params, replace(state, m=m, v=v, t=t)


def predict_batch(params: LstmParams, inputs: np.ndarray) -> np.ndarray:
    """Head output for each window in ``inputs`` (n, W) or (n, W, D)."""
    xs = _time_major(inputs)
    preds = np.empty(xs.shape[1])
    for start in range(0, len(preds), _PREDICT_CHUNK):
        stop = start + _PREDICT_CHUNK
        preds[start:stop] = _unroll(xs[:, start:stop], params)[0]
    return preds


def _dataset_mse(params: LstmParams, data: WindowedDataset) -> float:
    preds = predict_batch(params, data.inputs)
    diff = preds - data.targets
    return float(np.mean(diff * diff))


def _train_loop(data, test, epochs, seed, hyper, snapshot_epochs):
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if len(data) == 0:
        raise ValueError("training dataset is empty")

    rng = np.random.default_rng(seed)
    params = init_params(1, hyper.hidden_size, rng)
    adam = AdamState.fresh(params.n_params, lr=hyper.learning_rate,
                           beta1=hyper.beta1, beta2=hyper.beta2,
                           eps=hyper.adam_eps)

    xs_all = _time_major(data.inputs)
    ys_all = np.asarray(data.targets, dtype=np.float64)
    n = len(data)
    batch = max(1, hyper.batch_size)

    wanted = set(int(e) for e in snapshot_epochs)
    snapshots: dict[int, LstmParams] = {}
    history: list[TrainRecord] = []
    for epoch in range(1, epochs + 1):
        for start in range(0, n, batch):
            stop = start + batch
            grads, _ = _batch_grads(xs_all[:, start:stop], ys_all[start:stop], params)
            params, adam = adam_step(params, grads, adam)
        history.append(TrainRecord(
            epoch=epoch,
            train_mse=_dataset_mse(params, data),
            test_mse=_dataset_mse(params, test),
        ))
        if epoch in wanted:
            # adam_step returns fresh parameters, so this one stays as is
            snapshots[epoch] = params
    return params, history, snapshots


def train(
    data: WindowedDataset,
    test: WindowedDataset,
    epochs: int,
    seed: int,
    hyper: LstmConfig = LstmConfig(),
) -> tuple[LstmParams, list[TrainRecord]]:
    """Full-pass mini-batch training, deterministic for a fixed seed.

    Samples are visited in time order (no shuffling); one Adam step per
    batch of ``hyper.batch_size``.  The history holds train/test MSE
    measured after each epoch.
    """
    params, history, _ = _train_loop(data, test, epochs, seed, hyper, ())
    return params, history


def epoch_grid(
    data: WindowedDataset,
    test: WindowedDataset,
    epoch_counts: Sequence[int],
    seed: int,
    hyper: LstmConfig = LstmConfig(),
) -> tuple[list[tuple[int, float]], dict[int, LstmParams], list[TrainRecord]]:
    """Test MSE after each epoch count in the grid, plus model snapshots.

    Training is deterministic and batches are visited in a fixed order,
    so a run of N epochs passes through exactly the states the shorter
    runs end on; one pass with snapshots therefore reproduces the
    independent per-count runs bit for bit.
    """
    counts = [int(e) for e in epoch_counts]
    if not counts or any(e < 1 for e in counts):
        raise ValueError("epoch grid must be non-empty positive integers")
    top = max(counts)
    _, history, snapshots = _train_loop(data, test, top, seed, hyper,
                                        sorted(set(counts)))
    return [(e, history[e - 1].test_mse) for e in counts], snapshots, history
