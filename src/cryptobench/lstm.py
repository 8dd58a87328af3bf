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
step.  W is stored as it is multiplied, as the head of the flat
parameter vector (``LstmParams``).  Everything runs in float64 numpy.

``epoch_grid`` is the one training entry point: mini-batch Adam over the
training windows in time order (no shuffling), one Adam step per batch,
deterministic for a fixed seed, scored after every epoch.
``predict_batch`` scores each window independently of the windows passed
with it, so a checkpoint reloaded and scored on the test windows alone
reproduces its recorded MSE bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import WindowedDataset
from .evaluation import mse

__all__ = [
    "LstmParams",
    "AdamState",
    "TrainRecord",
    "Snapshot",
    "LstmConfig",
    "init_params",
    "adam_step",
    "epoch_grid",
    "predict_batch",
]

# Per-gate names of the weights, in the order ``init_params`` draws them;
# also the field names of the v1 checkpoint.  "c" is the candidate g.
_WEIGHT_FIELDS = (
    "w_ix", "w_fx", "w_cx", "w_ox",
    "w_ih", "w_fh", "w_ch", "w_oh",
    "b_i", "b_f", "b_c", "b_o",
    "w_y",
)

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


def _gate_view(name: str) -> property:
    # name[2] is the gate, so the row block of w; the rest picks the columns
    k = "ifoc".index(name[2])

    def view(self):
        h = self.hidden_size
        rows = self.w[k * h:(k + 1) * h]
        return {"h": rows[:, :h].T, "x": rows[:, h:-1].T, "": rows[:, -1]}[name[3:]]

    return property(view, doc=f"``{name}``, a view of its block of ``w``")


class LstmParams:
    """All gate weights plus the scalar output head, in one flat vector.

    ``vec`` holds W (4H, H+D+1) in C order, gate rows i, f, o, g and
    columns [h | x | 1] as the module docstring lays out, then w_y (H)
    and b_y.  ``w`` and ``w_y`` are views into it, and so are the
    per-gate checkpoint names of ``_WEIGHT_FIELDS`` (``w_cx`` is
    ``w[3H:4H, H:H+D].T``, ``b_f`` is ``w[H:2H, -1]``, ...); writing
    through any of them updates ``vec``.  Also serves as the container
    for gradients, which share the layout.
    """

    (w_ix, w_fx, w_cx, w_ox, w_ih, w_fh, w_ch, w_oh,
     b_i, b_f, b_c, b_o) = (_gate_view(name) for name in _WEIGHT_FIELDS[:-1])

    def __init__(self, vec: np.ndarray, input_dim: int, hidden_size: int):
        d, h = input_dim, hidden_size
        if vec.shape != (_vector_size(d, h),):
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
class AdamState:
    """Adam moment accumulators over the flattened parameter vector and
    the step count; the constants are ``LstmConfig``'s."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params), t=0)


@dataclass(frozen=True)
class TrainRecord:
    epoch: int
    train_mse: float
    test_mse: float


@dataclass(frozen=True)
class Snapshot:
    """The model after one epoch of the grid and its test predictions,
    the ones the epoch's test MSE was computed from."""

    params: LstmParams
    test_predictions: np.ndarray


@dataclass(frozen=True)
class LstmConfig:
    """Trainer hyperparameters (architecture and optimizer constants)."""

    hidden_size: int = 50
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 32

    def __post_init__(self):
        for name in ("hidden_size", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # beta = 1 zeroes a divisor of Adam's bias correction, and a step
        # size or eps that is not finite and positive gives nan or no descent
        for name in ("learning_rate", "adam_eps"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")


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
    hyper: LstmConfig = LstmConfig(),
) -> tuple[LstmParams, AdamState]:
    """One Adam update with bias-corrected moments and the step size,
    betas and eps of ``hyper``; returns new objects."""
    g = grads.vec
    if g.shape != params.vec.shape:
        raise ValueError("gradient layout does not match parameter layout")
    t = state.t + 1
    beta1, beta2 = hyper.beta1, hyper.beta2
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    theta = params.vec - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + hyper.adam_eps)
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


def _serve_scores(conn, parent_end, inputs, hidden_size):
    """The scorer process: for each request received, a start index
    ahead of a parameter vector, send back ``predict_batch`` of
    ``inputs[start:]``, until the parent closes its end."""
    parent_end.close()  # the inherited copy would keep the pipe open
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            request = np.frombuffer(conn.recv_bytes())
            params = LstmParams(request[1:], 1, hidden_size)
            conn.send_bytes(predict_batch(params, inputs[int(request[0]):]))


class _ForkedScorer:
    """``predict_batch`` of fixed windows, from a given one on, in one
    forked process, which inherits the windows; the caller collects
    each result before it sends the next request."""

    def __init__(self, inputs, hidden_size):
        # imported here, so that importing the package does not load it
        import multiprocessing

        # forked, not spawned: the child starts with numpy loaded and the
        # windows in memory, where a spawned one would first start an
        # interpreter and import numpy
        fork = multiprocessing.get_context("fork")
        self._conn, child_end = fork.Pipe()
        self._proc = fork.Process(target=_serve_scores,
                                  args=(child_end, self._conn, inputs, hidden_size))
        self._proc.start()
        child_end.close()

    def send(self, start: int, vec: np.ndarray):
        """Ask for the predictions of the windows from ``start`` on."""
        try:
            self._conn.send_bytes(np.concatenate(([start], vec)))
        except OSError:
            self._died()

    def collect(self) -> np.ndarray:
        try:
            return np.frombuffer(self._conn.recv_bytes())
        except (EOFError, OSError):
            self._died()

    def _died(self):
        self._proc.join()
        raise ChildProcessError(
            f"the LSTM scorer process exited with code {self._proc.exitcode}") from None

    def close(self):
        """Stop the process: it returns once it has sent any result in
        hand, and finds the pipe closed."""
        self._conn.close()
        self._proc.join()


def epoch_grid(
    data: WindowedDataset,
    test: WindowedDataset,
    epoch_counts: Sequence[int],
    seed: int,
    hyper: LstmConfig = LstmConfig(),
) -> tuple[list[tuple[int, float]], dict[int, Snapshot], list[TrainRecord]]:
    """Train up to the largest epoch count in the grid; return the test
    MSE at each count, a snapshot of the model and its test predictions
    at each count, and the train/test MSE history of every epoch.

    Training is full-pass mini-batch Adam, deterministic for a fixed
    seed: the windows are visited in time order (no shuffling), one Adam
    step per batch of ``hyper.batch_size``.  A run of N epochs therefore
    passes through exactly the states the shorter runs end on, so one
    pass with snapshots reproduces the independent per-count runs bit
    for bit.

    Each epoch is scored by ``predict_batch`` over the train and test
    windows together, split at the train count.  No later epoch reads
    it, so with more than one usable CPU (``os.sched_getaffinity``) and
    more than one epoch, a forked scorer process scores each epoch but
    the last while this process trains the next one; this process
    collects epoch e's predictions before it sends epoch e + 1.  The
    last epoch has nothing to overlap with, so this process scores the
    first half of its windows and the scorer the rest, and the two
    halves are joined.  On one CPU it scores every epoch itself.  A
    window's prediction does not depend on the windows scored with it,
    so the predictions, and so the history, are the same bit for bit
    either way.  Code that wraps ``predict_batch`` in this process, such
    as perfbench's ``lstm.*`` spans, then sees only this process's share
    of the last epoch.
    """
    counts = [int(e) for e in epoch_counts]
    if not counts or any(e < 1 for e in counts):
        raise ValueError("epoch grid must be non-empty positive integers")
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    epochs = max(counts)

    rng = np.random.default_rng(seed)
    params = init_params(1, hyper.hidden_size, rng)
    adam = AdamState.fresh(params.n_params)

    xs_all = _time_major(data.inputs)
    ys_all = np.asarray(data.targets, dtype=np.float64)
    n = len(data)
    eval_inputs = np.concatenate((data.inputs, test.inputs))
    eval_targets = np.concatenate((ys_all, test.targets))
    split = len(eval_inputs) // 2  # where the last epoch's scoring splits

    wanted = set(counts)
    snapshots: dict[int, Snapshot] = {}
    history: list[TrainRecord] = []

    def record(epoch, params, preds):
        history.append(TrainRecord(
            epoch=epoch,
            train_mse=mse(eval_targets[:n], preds[:n]),
            test_mse=mse(eval_targets[n:], preds[n:]),
        ))
        if epoch in wanted:
            # adam_step returns fresh parameters, so these stay as they are
            snapshots[epoch] = Snapshot(params, preds[n:])

    scorer = None
    if epochs > 1 and len(os.sched_getaffinity(0)) > 1:
        scorer = _ForkedScorer(eval_inputs, hyper.hidden_size)
    in_flight = None
    try:
        for epoch in range(1, epochs + 1):
            for start in range(0, n, hyper.batch_size):
                stop = start + hyper.batch_size
                grads, _ = _batch_grads(xs_all[:, start:stop], ys_all[start:stop], params)
                params, adam = adam_step(params, grads, adam, hyper)
            if in_flight:
                record(*in_flight, scorer.collect())
            if scorer and epoch < epochs:
                scorer.send(0, params.vec)
                in_flight = (epoch, params)
            elif scorer:
                scorer.send(split, params.vec)
                head = predict_batch(params, eval_inputs[:split])
                record(epoch, params, np.concatenate((head, scorer.collect())))
            else:
                record(epoch, params, predict_batch(params, eval_inputs))
    finally:
        if scorer:
            scorer.close()
    return [(e, history[e - 1].test_mse) for e in counts], snapshots, history
