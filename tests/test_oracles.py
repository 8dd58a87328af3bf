import numpy as np
import pytest

from cryptobench.svr import KernelSpec

from oracles import _project_box_hyperplane, kernel_eval

RBF_E_MINUS_1 = 0.36787944117144233  # exp(-0.1 * 10)


def _tau_interval(v, z, c_bound, n):
    """Range of tau for which clip(v - tau*s, 0, C) reproduces z.

    Coordinate k pins s_k*tau to v_k - z_k when 0 < z_k < C, bounds it
    below by v_k when z_k = 0 and above by v_k - C when z_k = C.
    """
    s = np.ones(v.shape[0])
    s[n:] = -1.0
    lo, hi = -np.inf, np.inf
    for vk, zk, sk in zip(v, z, s):
        if zk == 0.0:
            u_lo, u_hi = vk, np.inf
        elif zk == c_bound:
            u_lo, u_hi = -np.inf, vk - c_bound
        else:
            u_lo = u_hi = vk - zk
        t_lo, t_hi = (u_lo, u_hi) if sk > 0 else (-u_hi, -u_lo)
        lo, hi = max(lo, t_lo), min(hi, t_hi)
    return lo, hi


@pytest.mark.parametrize("seed", range(40))
def test_projection_is_feasible_and_single_threshold(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    c_bound = float(rng.uniform(0.05, 10.0))
    v = rng.normal(scale=rng.uniform(0.1, 3.0) * c_bound, size=2 * n)
    z = _project_box_hyperplane(v, c_bound, n)
    assert z.shape == v.shape
    assert np.all(z >= 0.0) and np.all(z <= c_bound)
    assert abs(z[:n].sum() - z[n:].sum()) <= 1e-9
    lo, hi = _tau_interval(v, z, c_bound, n)
    assert lo <= hi + 1e-9 * max(1.0, c_bound)


@pytest.mark.parametrize("seed", range(20))
def test_feasible_point_is_fixed(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(1, 13))
    c_bound = float(rng.uniform(0.05, 10.0))
    alpha = rng.uniform(0.0, c_bound, size=n)
    alpha[rng.random(n) < 0.3] = 0.0
    alpha[rng.random(n) < 0.3] = c_bound
    v = np.concatenate((alpha, rng.permutation(alpha)))
    np.testing.assert_allclose(_project_box_hyperplane(v, c_bound, n), v,
                               rtol=0.0, atol=1e-12)


class TestKernelEval:
    def test_rbf_at_identical_points(self):
        x = np.array([1.0, -2.0, 3.0])
        for gamma in (0.001, 0.1, 10.0):
            assert kernel_eval(KernelSpec("rbf", gamma=gamma), x, x) == 1.0

    def test_sigmoid_orthogonal_points(self):
        spec = KernelSpec("sigmoid", gamma=0.5)
        assert kernel_eval(spec, np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 0.0

    def test_rbf_hand_value(self):
        # gamma 0.1 and squared distance 10 gives exp(-1)
        spec = KernelSpec("rbf", gamma=0.1)
        x = np.zeros(10)
        z = np.ones(10)
        np.testing.assert_allclose(kernel_eval(spec, x, z), RBF_E_MINUS_1, rtol=1e-15)

    def test_linear_is_dot_product(self):
        x = np.array([1.0, 2.0])
        z = np.array([3.0, -1.0])
        assert kernel_eval(KernelSpec("linear"), x, z) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kernel_eval(KernelSpec("linear"), np.ones(2), np.ones(3))
