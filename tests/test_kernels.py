"""Kernel family: frozen high-precision values and exact reduction identities.

The frozen constants were produced with mpmath at 30 digits from the defining
integrals; they pin the 2/sqrt(pi) normalization shared by every kernel.
"""
import math

import numpy as np
import pytest

from kramers.kernels import SQRT_PI, KernelSuite, UnsupportedOrder

# mpmath (30 digits) reference values
T1_AT_1 = 0.336452969998926
T2_AT_3 = 0.0643542453623056
L_AT_1 = 0.242127843858688
PHI0_FWD_AT_10 = -1.19814858435995e-4
PHI0_INV_AT_2 = -0.0152390486126303
J_AT_1_2 = 0.140020210235249
J3_AT_1_2 = 0.0491081899409193
S_FWD_AT_1_1 = 0.0270937723441663
S_INV_AT_2_07 = -0.0163221806336044


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20260826)


class TestMoments:
    def test_values_at_zero(self, kern):
        # Gaussian moments: T_n(0) = (2/sqrt(pi)) * Gamma((n+1)/2) / 2
        assert kern.t_n(1, 0.0) == pytest.approx(1.0 / SQRT_PI, abs=1e-12)
        assert kern.t_n(2, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert kern.t_n(3, 0.0) == pytest.approx(1.0 / SQRT_PI, abs=1e-12)
        assert kern.t_n(4, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_frozen_values(self, kern):
        assert kern.t_n(1, 1.0) == pytest.approx(T1_AT_1, abs=1e-12)
        assert kern.t_n(2, 3.0) == pytest.approx(T2_AT_3, abs=1e-12)
        assert kern.big_l(1.0) == pytest.approx(L_AT_1, abs=1e-12)

    def test_strictly_decreasing(self, kern):
        k = np.linspace(0.0, 20.0, 200)
        for n in range(1, 6):
            vals = kern.t_n(n, k)
            assert np.all(np.diff(vals) < 0)
            assert np.all(vals > 0)

    def test_unsupported_order(self, kern):
        with pytest.raises(UnsupportedOrder):
            kern.t_n(6, 1.0)
        with pytest.raises(UnsupportedOrder):
            kern.j_n(4, 1.0, 2.0)

    def test_finite_at_extreme_k(self, kern):
        for k in (1e3, 1e6):
            assert math.isfinite(kern.t_n(1, k))
            assert math.isfinite(kern.j_kernel(k, k))
            assert math.isfinite(kern.s_fwd(k, k))
            assert math.isfinite(kern.s_inv(k, k))


class TestReductionIdentities:
    def test_half_minus_k2t4(self, kern, rng):
        # T_2(k) = 1/2 - k^2 T_4(k)
        for k in rng.uniform(0.0, 10.0, 20):
            assert kern.t_n(2, k) == pytest.approx(0.5 - k * k * kern.t_n(4, k), abs=1e-10)

    def test_partial_fractions(self, kern, rng):
        # J(k,k1) (k1^2 - k^2) = k1^2 T_1(k1) - k^2 T_1(k), off the diagonal
        count = 0
        while count < 20:
            k, k1 = rng.uniform(0.0, 10.0, 2)
            if abs(k - k1) <= 1e-3:
                continue
            lhs = kern.j_kernel(k, k1) * (k1 * k1 - k * k)
            rhs = k1 * k1 * kern.t_n(1, k1) - k * k * kern.t_n(1, k)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            count += 1

    def test_difference_identity(self, kern, rng):
        # T_1(k) - T_1(k1) = (k1^2 - k^2) J_3(k,k1)
        for _ in range(20):
            k, k1 = rng.uniform(0.0, 10.0, 2)
            lhs = kern.t_n(1, k) - kern.t_n(1, k1)
            assert lhs == pytest.approx((k1 * k1 - k * k) * kern.j_n(3, k, k1), abs=1e-10)

    def test_j_at_zero(self, kern):
        for k in (0.0, 0.5, 2.0):
            assert kern.j_kernel(k, 0.0) == pytest.approx(kern.t_n(1, k), abs=1e-12)
        assert kern.j_kernel(0.0, 0.0) == pytest.approx(1.0 / SQRT_PI, abs=1e-12)
        for k in (0.0, 1.0):
            assert kern.j_n(3, k, 0.0) == pytest.approx(kern.t_n(3, k), abs=1e-12)
        assert kern.j_n(5, 0.0, 0.0) == pytest.approx(2.0 / SQRT_PI, abs=1e-12)

    def test_symmetry(self, kern, rng):
        for _ in range(10):
            k, k1 = rng.uniform(0.0, 10.0, 2)
            assert kern.j_kernel(k, k1) == pytest.approx(kern.j_kernel(k1, k), abs=1e-13)
            assert kern.j_n(3, k, k1) == pytest.approx(kern.j_n(3, k1, k), abs=1e-13)
            assert kern.j_n(5, k, k1) == pytest.approx(kern.j_n(5, k1, k), abs=1e-13)


class TestIterationKernels:
    def test_frozen_values(self, kern):
        assert kern.j_kernel(1.0, 2.0) == pytest.approx(J_AT_1_2, abs=1e-12)
        assert kern.j_n(3, 1.0, 2.0) == pytest.approx(J3_AT_1_2, abs=1e-12)
        assert kern.s_fwd(1.0, 1.0) == pytest.approx(S_FWD_AT_1_1, abs=1e-12)
        assert kern.s_inv(2.0, 0.7) == pytest.approx(S_INV_AT_2_07, abs=1e-12)
        assert kern.phi0_fwd(10.0) == pytest.approx(PHI0_FWD_AT_10, abs=1e-12)
        assert kern.phi0_inv(2.0) == pytest.approx(PHI0_INV_AT_2, abs=1e-12)

    def test_s_fwd_factorization(self, kern, rng):
        # k^2 s_fwd(k,k1) = J(k,k1) - sqrt(pi) T_1(k) T_1(k1)
        for _ in range(20):
            k, k1 = rng.uniform(0.0, 10.0, 2)
            lhs = k * k * kern.s_fwd(k, k1)
            rhs = kern.j_kernel(k, k1) - SQRT_PI * kern.t_n(1, k) * kern.t_n(1, k1)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_s_inv_factorization(self, kern, rng):
        # k^2 s_inv(k,k1) = 2 T_1(k1) T_2(k) - J(k,k1)
        for _ in range(20):
            k, k1 = rng.uniform(0.0, 10.0, 2)
            lhs = k * k * kern.s_inv(k, k1)
            rhs = 2.0 * kern.t_n(1, k1) * kern.t_n(2, k) - kern.j_kernel(k, k1)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_phi0_pole_removal(self, kern, rng):
        # k^2 phi0_fwd = T_2 - (sqrt(pi)/2) T_1 and the inverse analogue
        for k in rng.uniform(0.0, 10.0, 10):
            assert k * k * kern.phi0_fwd(k) == pytest.approx(
                kern.t_n(2, k) - 0.5 * SQRT_PI * kern.t_n(1, k), abs=1e-10
            )
            assert k * k * kern.phi0_inv(k) == pytest.approx(
                (2.0 / SQRT_PI) * kern.t_n(2, k) - kern.t_n(1, k), abs=1e-10
            )

    def test_s_inv_at_k_zero(self, kern):
        # T_4(0) = 3/4, so s_inv(0,k1) = T_3(k1) - (3/2) T_1(k1)
        for k1 in (0.3, 1.0, 4.0):
            assert kern.s_inv(0.0, k1) == pytest.approx(
                kern.t_n(3, k1) - 1.5 * kern.t_n(1, k1), abs=1e-12
            )

    def test_vectorized_matches_scalar(self, kern):
        k1 = np.array([0.2, 1.0, 5.0])
        vec = kern.s_fwd(1.5, k1)
        for i, v in enumerate(k1):
            assert vec[i] == pytest.approx(kern.s_fwd(1.5, float(v)), abs=1e-14)
        # outer shape of a row-valued operator integrand: rows in k, points in k1
        k = np.array([0.0, 0.3, 2.0, 40.0])
        kernels = {
            "s_fwd": kern.s_fwd,
            "s_inv": kern.s_inv,
            "j_3": lambda a, b: kern.j_n(3, a, b),
            "j_5": lambda a, b: kern.j_n(5, a, b),
        }
        for name, fn in kernels.items():
            outer = fn(k[:, None], k1)
            assert outer.shape == (k.size, k1.size), name
            for i, a in enumerate(k):
                for j, b in enumerate(k1):
                    assert outer[i, j] == pytest.approx(fn(float(a), float(b)), abs=1e-14), name
