"""Independent reference implementations used to pin expected values.

Everything here is deliberately written against different primitives
or algorithms than the package under test: scalar ``math`` loops
instead of numpy kernels for the LSTM, finite differences instead of
backprop, ``math.fsum`` instead of vectorized accumulation, and an SVR
kernel taken one pair of points at a time instead of as a Gram matrix.
The SVR dual oracle is vectorized numpy like the package; its independence
comes from its algorithm and form instead: projected gradient with
momentum over the 2n-variable (alpha, alpha*) dual, where the package
runs pairwise SMO over the n coefficients alpha - alpha*, and it shares
no code with it.  Keep it that way -- these are the oracles.

The one exception is :func:`smo_reference_solve`, the package's SMO
sweep as scalar loops.  It is not an independent oracle but a pin: the
vectorized solver must reproduce its iterates bit for bit.
"""

import math

import numpy as np


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def lstm_params_as_lists(params) -> dict:
    """The per-gate weights of an LstmParams-like object as nested python
    lists: for each gate ("c" is the candidate g) its input weights
    ``w_<gate>x`` (D, H), recurrent weights ``w_<gate>h`` (H, H) and bias
    ``b_<gate>``, sliced from ``params.w``, whose row blocks are the gates
    i, f, o, g and whose columns are [h | x | 1]; plus ``w_y`` and ``b_y``."""
    h = params.hidden_size
    p = {"w_y": params.w_y.tolist(), "b_y": float(params.b_y)}
    for k, gate in enumerate("ifoc"):
        rows = params.w[k * h:(k + 1) * h]
        p[f"w_{gate}x"] = rows[:, h:-1].T.tolist()
        p[f"w_{gate}h"] = rows[:, :h].T.tolist()
        p[f"b_{gate}"] = rows[:, -1].tolist()
    return p


def lstm_scalar_cell(x, h_prev, c_prev, p):
    """One LSTM step in pure scalar arithmetic.

    ``x``, ``h_prev``, ``c_prev`` are python lists; ``p`` is a dict of
    nested lists (see :func:`lstm_params_as_lists`).  Returns
    (h, c, gates) where gates is a dict of the four activation lists.
    """
    D = len(p["w_ix"])
    H = len(p["b_i"])

    def preact(wx, wh, b, j):
        s = b[j]
        for d in range(D):
            s += x[d] * wx[d][j]
        for k in range(H):
            s += h_prev[k] * wh[k][j]
        return s

    i = [_sigmoid(preact(p["w_ix"], p["w_ih"], p["b_i"], j)) for j in range(H)]
    f = [_sigmoid(preact(p["w_fx"], p["w_fh"], p["b_f"], j)) for j in range(H)]
    g = [math.tanh(preact(p["w_cx"], p["w_ch"], p["b_c"], j)) for j in range(H)]
    o = [_sigmoid(preact(p["w_ox"], p["w_oh"], p["b_o"], j)) for j in range(H)]
    c = [f[j] * c_prev[j] + i[j] * g[j] for j in range(H)]
    h = [o[j] * math.tanh(c[j]) for j in range(H)]
    return h, c, {"i": i, "f": f, "g": g, "o": o}


def lstm_scalar_sequence(xs, p):
    """Scalar unroll over a window plus the linear head; returns pred."""
    H = len(p["b_i"])
    h = [0.0] * H
    c = [0.0] * H
    for x in xs:
        h, c, _ = lstm_scalar_cell(x, h, c, p)
    pred = p["b_y"]
    for j in range(H):
        pred += h[j] * p["w_y"][j]
    return pred


def central_difference_gradient(loss, theta, step=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.empty_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += step
        down = theta.copy()
        down[k] -= step
        grad[k] = (loss(up) - loss(down)) / (2.0 * step)
    return grad


def relative_mismatch(a, b, floor=1e-8):
    """Elementwise |a-b| / max(floor, |a|+|b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(floor, np.abs(a) + np.abs(b))


def fsum_mse(y_true, y_pred):
    """Mean square error accumulated with math.fsum (exact rounding)."""
    terms = [(float(t) - float(p)) ** 2 for t, p in zip(y_true, y_pred)]
    return math.fsum(terms) / len(terms)


# --- epsilon-SVR dual QP oracle ---------------------------------------
# Solves the dual in the 2n-variable (alpha, alpha*) form, where the
# objective is a smooth quadratic, by projected gradient with Nesterov
# momentum (FISTA).  The feasible set is the box [0, C]^{2n} intersected
# with the hyperplane sum(alpha) - sum(alpha*) = 0.  With s = (+1^n, -1^n)
# the projection of v onto it is z = clip(v - tau*s, 0, C), where tau is
# the root of g(tau) = s.z.  g is nonincreasing and piecewise linear, with
# breakpoints s_k*v_k and s_k*(v_k - C); it is evaluated at all of them at
# once and the root is interpolated on the segment where g changes sign,
# which makes the projection exact up to rounding.


def _project_box_hyperplane(v, c_bound, n):
    """Project v onto {z in [0,C]^{2n} : sum(z[:n]) - sum(z[n:]) = 0}."""
    s = np.ones(v.shape[0])
    s[n:] = -1.0
    sv = s * v
    knots = np.concatenate((sv, sv - s * c_bound))
    g = np.minimum(np.maximum(v - knots[:, None] * s, 0.0), c_bound) @ s
    pos = g > 0.0
    lo = np.where(pos, knots, -np.inf).argmax()
    hi = np.where(pos, np.inf, knots).argmin()
    if pos[lo] and g[hi] < 0.0:
        tau = knots[lo] + g[lo] * (knots[hi] - knots[lo]) / (g[lo] - g[hi])
    else:  # g is zero at knots[hi] (or everywhere, when C = 0)
        tau = knots[hi]
    return np.minimum(np.maximum(v - tau * s, 0.0), c_bound)


def _qp_objective(K, y, z, eps, n):
    beta = z[:n] - z[n:]
    return beta @ (0.5 * (K @ beta) - y) + eps * z.sum()


def _qp_solve(K, y, c_bound, eps, lipschitz, max_iter):
    n = y.shape[0]
    m = 2 * n
    z = np.zeros(m)
    momentum = np.zeros(m)
    step = 1.0 / lipschitz
    t_acc = 1.0
    best = np.zeros(m)
    best_obj = _qp_objective(K, y, z, eps, n)
    since_improved = 0
    for it in range(max_iter):
        # gradient of the smooth quadratic at the momentum point
        k_beta = K @ (momentum[:n] - momentum[n:])
        grad = np.concatenate((k_beta + eps - y, eps + y - k_beta))
        z_next = _project_box_hyperplane(momentum - step * grad, c_bound, n)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = z_next + ((t_acc - 1.0) / t_next) * (z_next - z)
        z = z_next
        t_acc = t_next
        obj = _qp_objective(K, y, z, eps, n)
        if obj < best_obj - 1e-15 * (1.0 + abs(best_obj)):
            best_obj = obj
            best = z
            since_improved = 0
        else:
            since_improved += 1
            if obj > best_obj + 1e-10 * (1.0 + abs(best_obj)):
                # momentum overshot: restart from the best point seen
                momentum = best
                z = best
                t_acc = 1.0
            if since_improved > 3000:
                break
    return best, best_obj


def qp_reference_solve(K, y, c_bound, eps, max_iter=120_000):
    """Brute-force dual solution: (alpha - alpha*) coefficients and the
    maximized dual objective value."""
    K = np.ascontiguousarray(K, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    eigs = np.linalg.eigvalsh(K)
    lipschitz = max(2.0 * float(eigs[-1]), 1e-8)
    z, obj_min = _qp_solve(K, y, float(c_bound), float(eps), lipschitz, max_iter)
    n = y.shape[0]
    beta = z[:n] - z[n:]
    return beta, -float(obj_min)


# --- SVR kernel and dual objective, point by point -----------------
# The kernel of one pair of points, against the package's whole-matrix
# gram_matrix, and the beta-form dual objective that fit's coefficients
# are scored by against qp_reference_solve's optimum.


def kernel_eval(spec, x, z) -> float:
    """K(x, z) for a KernelSpec ``spec``.  linear: x.z; rbf:
    exp(-gamma ||x-z||^2); sigmoid: tanh(gamma x.z + coef0)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {z.shape}")
    if spec.kind == "linear":
        return float(x @ z)
    if spec.kind == "rbf":
        diff = x - z
        return float(np.exp(-spec.gamma * (diff @ diff)))
    return float(np.tanh(spec.gamma * (x @ z) + spec.coef0))


def dual_objective(K, y, beta, epsilon: float) -> float:
    """Maximized dual value -1/2 b'Kb + y'b - eps ||b||_1 at ``beta``."""
    K = np.asarray(K, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(-0.5 * beta @ K @ beta + y @ beta - epsilon * np.abs(beta).sum())


# --- epsilon-SVR SMO reference -------------------------------------
# The scalar-loop SMO sweep that cryptobench.svr._smo_solve vectorizes:
# the same selection rule, pair subproblem and stopping logic, one
# element at a time.


def smo_reference_solve(K, y, c_bound, eps, tol, max_iter):
    """Pairwise maximal-violation descent on the beta-form dual.

    Returns (beta, n_iter, violation, converged).  beta starts at zero
    and every pair move keeps sum(beta) exactly zero and each entry in
    [-C, C].
    """
    n = y.shape[0]
    beta = np.zeros(n)
    F = np.zeros(n)  # K @ beta, maintained incrementally
    # Rounding residue from pair updates leaves entries within ~1e-13 of
    # a box bound or of the L1 kink at zero.  Those must be treated as
    # exactly at the bound/kink during selection, otherwise they are
    # re-selected forever with only phantom room to move.
    bound_margin = 1e-10 * max(1.0, c_bound)
    zero_margin = 1e-12 * max(1.0, c_bound)
    it = 0
    converged = False
    violation = np.inf
    while True:
        # first-order working-set selection: the steepest feasible
        # increase candidate and decrease candidate
        min_up = np.inf
        i_up = -1
        max_down = -np.inf
        i_down = -1
        for k in range(n):
            g = F[k] - y[k]
            if beta[k] < c_bound - bound_margin:
                up = g + (eps if beta[k] >= -zero_margin else -eps)
                if up < min_up:
                    min_up = up
                    i_up = k
            if beta[k] > -c_bound + bound_margin:
                down = g + (eps if beta[k] > zero_margin else -eps)
                if down > max_down:
                    max_down = down
                    i_down = k
        violation = max_down - min_up
        if i_up < 0 or i_down < 0 or i_up == i_down or violation <= tol:
            converged = True
            break
        if it >= max_iter:
            break
        i = i_up
        j = i_down
        bi = beta[i]
        bj = beta[j]
        # move delta from j to i; J restricted to the move is piecewise
        # quadratic in delta with kinks where beta_i or beta_j crosses 0
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        g0 = (F[i] - y[i]) - (F[j] - y[j])
        lo = max(-c_bound - bi, bj - c_bound)
        hi = min(c_bound - bi, bj + c_bound)

        cands = np.empty(7)
        n_c = 0
        cands[n_c] = lo
        n_c += 1
        cands[n_c] = hi
        n_c += 1
        for brk in (-bi, bj):
            if lo < brk < hi:
                cands[n_c] = brk
                n_c += 1
        # interior vertex of each smooth piece (eta > 0 makes pieces convex)
        if eta > 1e-300:
            for s1 in (-1.0, 1.0):
                for s2 in (-1.0, 1.0):
                    d = -(g0 + eps * (s1 - s2)) / eta
                    if lo <= d <= hi:
                        # keep only vertices lying on their own piece
                        sign_i = 1.0 if bi + d >= 0.0 else -1.0
                        sign_j = 1.0 if bj - d > 0.0 else -1.0
                        if sign_i == s1 and sign_j == s2 and n_c < 7:
                            cands[n_c] = d
                            n_c += 1

        best_delta = 0.0
        best_change = 0.0
        for kc in range(n_c):
            d = cands[kc]
            change = (d * g0 + 0.5 * eta * d * d
                      + eps * (abs(bi + d) - abs(bi) + abs(bj - d) - abs(bj)))
            if change < best_change:
                best_change = change
                best_delta = d
        if best_change >= -1e-15:
            # numerically stalled (possible for indefinite kernels)
            break
        beta[i] = bi + best_delta
        beta[j] = bj - best_delta
        for k in range(n):
            F[k] += best_delta * (K[k, i] - K[k, j])
        it += 1
    return beta, it, violation, converged
