"""Epsilon-insensitive support vector regression with kernel grid search.

The dual is solved in the beta = alpha - alpha* parametrization

    minimize  J(beta) = 1/2 beta'K beta - y'beta + eps * sum|beta_i|
    subject to sum(beta_i) = 0,  -C <= beta_i <= C

by SMO-style pairwise updates: each step picks the maximal violating
pair (first-order working-set selection) and solves the two-variable
subproblem exactly by enumerating the breakpoints of its piecewise
quadratic.  Pair moves preserve the equality constraint, so feasibility
holds throughout.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
import signal
import warnings
from dataclasses import dataclass
from typing import BinaryIO, NoReturn, Sequence

import numpy as np

from .evaluation import mse

__all__ = [
    "KernelSpec",
    "SvrConfig",
    "SvrModel",
    "GridCell",
    "SvrGrid",
    "ConvergenceWarning",
    "gram_matrix",
    "fit",
    "predict_batch",
    "grid_search",
]


class ConvergenceWarning(UserWarning):
    """SMO hit its iteration cap; the returned model is the best iterate."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind and its scale gamma, checked by ``RunConfig``:
    linear x.z, rbf exp(-gamma ||x - z||^2), sigmoid tanh(gamma x.z).
    ``linear`` ignores gamma; the sigmoid's offset is LIBSVM's default,
    0 (Chang & Lin, ACM TIST 2(3), 2011)."""

    kind: str
    gamma: float = 1.0


@dataclass(frozen=True)
class SvrConfig:
    kernel: KernelSpec
    c: float = 1.0
    epsilon: float = 0.1
    tol: float = 1e-3  # LIBSVM's default; the QP-oracle tests fit tighter
    max_iter: int | None = None  # defaults to 100 * n_samples at fit time


@dataclass
class SvrModel:
    """Kernel expansion f(x) = sum_i coef_i K(sv_i, x) + bias."""

    support_vectors: np.ndarray  # (n_sv, d)
    dual_coefs: np.ndarray  # (n_sv,)
    bias: float
    kernel: KernelSpec
    converged: bool = True
    n_iter: int = 0
    kkt_violation: float = 0.0


@dataclass(frozen=True)
class GridCell:
    kernel: str
    gamma: float
    c: float
    cv_mse: float
    converged_folds: int  # folds whose SMO solve met tol within the cap
    max_n_iter: int  # largest SMO iteration count over the folds


@dataclass
class SvrGrid:
    cells: list[GridCell]
    best_index: int
    fits: int  # fold fits run: distinct fits x folds
    smo_iterations: int  # SMO iterations summed over those fits
    capped_fits: int  # fold fits that stopped short of tol

    @property
    def best(self) -> GridCell:
        return self.cells[self.best_index]


def gram_matrix(spec: KernelSpec, X, Z=None) -> np.ndarray:
    """Dense kernel matrix K[i, j] = K(X[i], Z[j]) (Z defaults to X)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Z = X if Z is None else np.atleast_2d(np.asarray(Z, dtype=np.float64))
    if X.shape[1] != Z.shape[1]:
        raise ValueError(f"dimension mismatch: {X.shape[1]} vs {Z.shape[1]}")
    inner = X @ Z.T
    if spec.kind == "linear":
        return inner
    if spec.kind == "rbf":
        sq = (X * X).sum(axis=1)[:, None] + (Z * Z).sum(axis=1)[None, :] - 2.0 * inner
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-spec.gamma * sq)
    return np.tanh(spec.gamma * inner)


def _margins(c_bound):
    """Tolerances that treat rounding residue as sitting on a bound or kink.

    Pair updates leave entries within ~1e-13 of a box bound or of the L1
    kink at zero.  Those must count as exactly at the bound/kink during
    selection, otherwise they are re-selected forever with only phantom
    room to move.
    """
    return 1e-10 * max(1.0, c_bound), 1e-12 * max(1.0, c_bound)


def _smo_solve(K, y, c_bound, eps, tol, max_iter):
    """Pairwise maximal-violation descent on the beta-form dual.

    Returns (beta, n_iter, violation, converged).  beta starts at zero
    and every pair move keeps sum(beta) exactly zero and each entry in
    [-C, C].

    Each iteration is O(n) vector work.  The selection scores are
    ``g + a_up`` and ``g + a_down`` with ``g = F - y``; the offsets hold
    the L1 sign term (+-eps) and mask entries at their box bound with
    +-inf, so only the two moved entries change per step.  ``F`` moves by
    ``delta * (K[:, i] - K[:, j])``.  SMO keeps revisiting a few working
    pairs, so each fit keeps a dict from the ordered pair (i, j) to its
    curvature ``eta`` and that Gram-column difference, computed once with
    the same expressions; it holds at most n rows, one Gram's worth, and
    is emptied when full.  The first occurrence that ``argmin``/``argmax``
    return is the strict-comparison scan order, and the pair subproblem
    runs on Python floats, so the iterates match the scalar reference in
    ``tests/oracles.py`` bit for bit.
    """
    n = y.shape[0]
    bound_margin, zero_margin = _margins(c_bound)
    upper = c_bound - bound_margin
    lower = -c_bound + bound_margin
    inf = float("inf")

    # the selection offsets at beta = 0 (on the kink)
    a_up = np.full(n, eps if upper > 0.0 else inf)
    a_down = np.full(n, -eps if lower < 0.0 else -inf)
    # the smooth pieces of the pair subproblem: signs of beta_i and beta_j
    # and the L1 term's shift of the vertex
    pieces = [(s1, s2, eps * (s1 - s2)) for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)]
    beta = [0.0] * n
    diag = K.diagonal().tolist()
    Kt_rows = list(np.ascontiguousarray(K.T))  # Kt_rows[i] is column i of K
    F = np.zeros(n)  # K @ beta, maintained incrementally
    g = np.empty(n)
    up = np.empty(n)
    down = np.empty(n)
    step = np.empty(n)
    # at small n the per-call overhead dominates: look the ufuncs and
    # methods up once, pass out arrays positionally, and pass the step
    # length as a 0-d array, which a ufunc takes faster than a float
    delta = np.empty(())
    subtract = np.subtract
    add = np.add
    multiply = np.multiply
    up_argmin = up.argmin
    down_argmax = down.argmax
    up_item = up.item
    down_item = down.item
    g_item = g.item
    # working pair i * n + j -> (eta, Kt_rows[i] - Kt_rows[j])
    pairs = {}
    it = 0
    while True:
        # first-order working-set selection: the steepest feasible
        # increase candidate and decrease candidate
        subtract(F, y, g)
        add(g, a_up, up)
        add(g, a_down, down)
        i = int(up_argmin())
        j = int(down_argmax())
        min_up = up_item(i)
        max_down = down_item(j)
        violation = max_down - min_up
        if min_up == inf or max_down == -inf or i == j or violation <= tol:
            return np.array(beta), it, violation, True
        if it >= max_iter:
            return np.array(beta), it, violation, False
        pair = pairs.get(i * n + j)
        if pair is None:
            if len(pairs) == n:
                pairs.clear()
            pair = pairs[i * n + j] = (diag[i] + diag[j] - 2.0 * K.item(i, j),
                                       subtract(Kt_rows[i], Kt_rows[j]))
        eta, diff = pair
        bi = beta[i]
        bj = beta[j]
        # move delta from j to i; J restricted to the move is piecewise
        # quadratic in delta with kinks where beta_i or beta_j crosses 0
        g0 = g_item(i) - g_item(j)
        lo = -c_bound - bi
        lo2 = bj - c_bound
        if lo2 > lo:
            lo = lo2
        hi = c_bound - bi
        hi2 = bj + c_bound
        if hi2 < hi:
            hi = hi2

        cands = [lo, hi]
        for brk in (-bi, bj):
            if lo < brk < hi:
                cands.append(brk)
        # interior vertex of each smooth piece (eta > 0 makes pieces convex)
        if eta > 1e-300:
            for s1, s2, shift in pieces:
                d = -(g0 + shift) / eta
                if lo <= d <= hi:
                    # keep only vertices lying on their own piece
                    sign_i = 1.0 if bi + d >= 0.0 else -1.0
                    sign_j = 1.0 if bj - d > 0.0 else -1.0
                    if sign_i == s1 and sign_j == s2 and len(cands) < 7:
                        cands.append(d)

        best_delta = 0.0
        best_change = 0.0
        half_eta = 0.5 * eta
        abs_bi = abs(bi)
        abs_bj = abs(bj)
        for d in cands:
            change = (d * g0 + half_eta * d * d
                      + eps * (abs(bi + d) - abs_bi + abs(bj - d) - abs_bj))
            if change < best_change:
                best_change = change
                best_delta = d
        if best_change >= -1e-15:
            # numerically stalled (possible for indefinite kernels)
            return np.array(beta), it, violation, False
        beta[i] = bi = bi + best_delta
        beta[j] = bj = bj - best_delta
        # up: +inf at the upper bound, else the sign term of a step up;
        # down: -inf at the lower bound, else that of a step down
        a_up[i] = (eps if bi >= -zero_margin else -eps) if bi < upper else inf
        a_down[i] = (eps if bi > zero_margin else -eps) if bi > lower else -inf
        a_up[j] = (eps if bj >= -zero_margin else -eps) if bj < upper else inf
        a_down[j] = (eps if bj > zero_margin else -eps) if bj > lower else -inf
        delta[()] = best_delta
        multiply(diff, delta, step)
        add(F, step, F)
        it += 1


def _compute_bias(F, y, beta, c_bound, eps):
    """Average over unbounded support vectors, else the KKT-window midpoint."""
    bound_margin, zero_margin = _margins(c_bound)
    interior = (np.abs(beta) > zero_margin) & (np.abs(beta) < c_bound - bound_margin)
    if np.any(interior):
        estimates = y[interior] - F[interior] - eps * np.sign(beta[interior])
        return float(estimates.mean())
    g = F - y
    up = np.where(beta >= -zero_margin, g + eps, g - eps)
    down = np.where(beta > zero_margin, g + eps, g - eps)
    can_up = beta < c_bound - bound_margin
    can_down = beta > -c_bound + bound_margin
    lo = down[can_down].max() if np.any(can_down) else None
    hi = up[can_up].min() if np.any(can_up) else None
    if lo is None and hi is None:
        return float(np.mean(y - F))
    if lo is None:
        return float(-hi)
    if hi is None:
        return float(-lo)
    return float(-(hi + lo) / 2.0)


def _rows(X) -> np.ndarray:
    """X as a float64 (n, d) array; any other shape is refused."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be an (n, d) array, got shape {X.shape}")
    return X


def fit(X, y, cfg: SvrConfig) -> SvrModel:
    """Train on (X, y); X is (n, d) and y (n,)."""
    X, y = _rows(X), np.ascontiguousarray(y, dtype=np.float64)
    n = y.shape[0]
    if X.shape[0] != n:
        raise ValueError(f"X has {X.shape[0]} rows but y has {n}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")

    K = np.ascontiguousarray(gram_matrix(cfg.kernel, X))
    max_iter = cfg.max_iter if cfg.max_iter is not None else 100 * n
    beta, n_iter, violation, converged = _smo_solve(
        K, y, float(cfg.c), float(cfg.epsilon), float(cfg.tol), int(max_iter))
    if not converged:
        warnings.warn(
            f"SMO stopped after {n_iter} iterations with KKT violation "
            f"{violation:.3e} (tol {cfg.tol:.1e}); returning best iterate",
            ConvergenceWarning,
            stacklevel=2,
        )
    F = K @ beta
    bias = _compute_bias(F, y, beta, cfg.c, cfg.epsilon)
    keep = np.abs(beta) > 1e-12
    return SvrModel(
        support_vectors=X[keep].copy(),
        dual_coefs=beta[keep].copy(),
        bias=bias,
        kernel=cfg.kernel,
        converged=bool(converged),
        n_iter=int(n_iter),
        kkt_violation=float(violation) if np.isfinite(violation) else 0.0,
    )


def predict_batch(model: SvrModel, X) -> np.ndarray:
    """Kernel expansion plus bias at each row of X; X is (n, d)."""
    X = _rows(X)
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    if X.shape[1] != model.support_vectors.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects {model.support_vectors.shape[1]} "
            f"features, got {X.shape[1]}")
    K = gram_matrix(model.kernel, model.support_vectors, X)
    return K.T @ model.dual_coefs + model.bias


def _fold_fit(task) -> tuple[float, bool, int]:
    """Fit one distinct config on a fold's fit indices and score it on its
    eval indices: (fold MSE, converged, SMO iterations)."""
    X, y, (fit_at, eval_at), cfg = task
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        model = fit(X[fit_at], y[fit_at], cfg)
    fold_mse = mse(y[eval_at], predict_batch(model, X[eval_at]))
    return fold_mse, model.converged, model.n_iter


def _serve(tasks, queue_in: BinaryIO, queue_out: BinaryIO, result_write: int) -> NoReturn:
    """A forked grid worker's whole life: run ``_fold_fit`` on each 4-byte
    task index read from the queue until EOF, then pickle ``(None,
    [(index, result), ...])``, or ``(exception, None)`` if a task raised,
    to its result pipe and exit.  It never returns into the caller's
    stack, so a failure anywhere, pickling included, still ends it, and
    with exit status 1."""
    code = 1
    try:
        queue_out.close()  # else the queue never reaches EOF
        done, error = [], None
        try:
            while record := queue_in.read(4):
                index = int.from_bytes(record, "little")
                done.append((index, _fold_fit(tasks[index])))
        except Exception as exc:
            done, error = None, exc
        with open(result_write, "wb") as sink:
            sink.write(pickle.dumps((error, done)))
        code = 0
    finally:
        os._exit(code)


def _run_forked(tasks, workers: int) -> list:
    """``_fold_fit`` of every task, in task order, computed by ``workers``
    forked processes; the calling process runs none.

    The workers inherit ``tasks`` through the fork and take task indices
    from one pipe, so the queue balances itself.  The queue is written
    only after every fork, since a queue longer than the pipe's buffer
    (16,384 indices) would block a write made before, and in chunks of
    ``select.PIPE_BUF`` bytes, which a pipe writes whole, so no index is
    split, not even by a signal.  Each worker sends its results once,
    through its own pipe.  An exception a task raised reaches the caller
    unchanged, a worker that exits without sending all its results raises
    ``ChildProcessError``, and any worker not yet reaped when this
    returns or raises is killed and reaped.
    """
    # SMO iterations grow with C, so the costliest tasks go first
    order = sorted(range(len(tasks)), key=lambda index: -tasks[index][3].c)
    queue = b"".join(index.to_bytes(4, "little") for index in order)
    step = select.PIPE_BUF // 4 * 4
    read_end, write_end = os.pipe()
    queue_in, queue_out = open(read_end, "rb", buffering=0), open(write_end, "wb", buffering=0)
    children: dict[int, BinaryIO] = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks, queue_in, queue_out, write_end)
            except BaseException:
                os.close(read_end)
                raise
            finally:
                os.close(write_end)
            children[pid] = open(read_end, "rb")
        queue_in.close()
        # a worker whose task raised stops reading; if all have stopped,
        # their payloads say why
        with contextlib.suppress(BrokenPipeError):
            for start in range(0, len(queue), step):
                queue_out.write(queue[start:start + step])
        queue_out.close()
        results = [None] * len(tasks)
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            # a worker exits 0 only after sending its whole payload, so
            # this also catches one killed part-way through sending it
            if status:
                raise ChildProcessError(
                    f"an SVR grid worker died (pid {pid}) before sending its results")
            error, done = pickle.loads(payload)
            if error is not None:
                raise error
            for index, result in done:
                results[index] = result
        return results
    finally:
        queue_in.close()
        queue_out.close()
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def grid_search(
    X,
    y,
    kernels: Sequence[str],
    gammas: Sequence[float],
    cs: Sequence[float],
    folds: Sequence[tuple[np.ndarray, np.ndarray]],
    epsilon: float = 0.1,
) -> SvrGrid:
    """Exhaustive kernel x gamma x C sweep scored by cross-validation MSE
    over ``folds``, the (fit_indices, eval_indices) pairs that
    ``dataset.time_folds`` cuts, each fit stopping at ``SvrConfig``'s
    default tol.  The best cell is the argmin of cv_mse with ties
    resolved by grid order (kernel, then gamma, then C as listed).

    Each distinct fit is cross-validated once, keyed by (kind, gamma,
    C).  The linear kernel ignores gamma, so its key drops gamma: the
    first gamma row's config runs the fold fits of each C and the
    other gamma rows reuse those scores, bit for bit, while each cell
    keeps its own gamma.  Every (distinct fit, fold) task runs through
    ``fit`` and ``predict_batch``.

    The tasks share nothing, so ``_run_forked`` runs them on one forked
    worker process per usable CPU (``os.sched_getaffinity``, capped at
    the task count), or this process runs them when only one CPU is
    usable.  The workers take the tasks by C descending, grid order
    within a C: SMO iterations grow with C, so the iteration-capped fits
    start first instead of leaving one worker busy at the end.  There is
    no knob: the results are put back in grid order and averaged exactly
    as a serial loop would, so the grid is bit-identical either way.  An
    exception raised in a worker reaches the caller unchanged; a worker
    that dies raises ``ChildProcessError``.  Python >= 3.12 warns when
    it forks a process whose BLAS threads are alive.  Code that wraps
    ``fit`` in the calling process, such as perfbench's ``svr.*`` spans,
    sees only the fits made there (on several CPUs, none of the grid's),
    so the grid returns its own work totals.

    Non-converged folds keep their best-iterate score, so the table
    always fills.  The per-fold ConvergenceWarnings are suppressed in
    favour of one summary ConvergenceWarning naming the fits with
    non-converged folds; each cell records ``converged_folds`` and
    ``max_n_iter``, and the grid records its total fold fits, SMO
    iterations and capped fold fits.
    """
    X, y = _rows(X), np.ascontiguousarray(y, dtype=np.float64)
    k = len(folds)
    fits: dict[tuple, SvrConfig] = {}
    cell_keys: list[tuple[str, float, float, tuple]] = []
    for kind in kernels:
        for gamma in gammas:
            spec = KernelSpec(kind=kind, gamma=float(gamma))
            for c in cs:
                key = (kind, None if kind == "linear" else float(gamma), float(c))
                if key not in fits:
                    fits[key] = SvrConfig(kernel=spec, c=float(c), epsilon=epsilon)
                cell_keys.append((kind, float(gamma), float(c), key))

    tasks = [(X, y, fold, cfg) for cfg in fits.values() for fold in folds]
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers > 1:
        results = _run_forked(tasks, workers)
    else:
        results = list(map(_fold_fit, tasks))

    scores: dict[tuple, tuple[float, int, int]] = {}
    for index, key in enumerate(fits):
        scored = results[index * k:(index + 1) * k]
        scores[key] = (float(np.mean([fold_mse for fold_mse, _, _ in scored])),
                       sum(converged for _, converged, _ in scored),
                       max(n_iter for _, _, n_iter in scored))
    cells = [GridCell(kind, gamma, c, *scores[key]) for kind, gamma, c, key in cell_keys]
    capped = [
        f"{kind}{'' if gamma is None else f' gamma={gamma:g}'} C={c:g} "
        f"({k - converged_folds} of {k} folds)"
        for (kind, gamma, c), (_, converged_folds, _) in scores.items()
        if converged_folds < k
    ]
    if capped:
        warnings.warn(
            "SMO stopped short of tol in " + ", ".join(capped)
            + "; those folds are scored at the best iterate",
            ConvergenceWarning,
            stacklevel=2,
        )
    best = int(np.argmin([cell.cv_mse for cell in cells]))
    return SvrGrid(cells=cells, best_index=best, fits=len(results),
                   smo_iterations=sum(n_iter for _, _, n_iter in results),
                   capped_fits=sum(not converged for _, converged, _ in results))
