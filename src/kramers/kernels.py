"""Special functions of the characteristic system.

Everything here is a Gaussian moment integral in disguise:

    T_n(k)      = (2/sqrt(pi)) int_0^oo exp(-t^2) t^n / (1 + k^2 t^2) dt
    J(k, k1)    = (2/sqrt(pi)) int_0^oo exp(-t^2) t   / ((1+k^2 t^2)(1+k1^2 t^2)) dt
    J_n(k, k1)  = (2/sqrt(pi)) int_0^oo exp(-t^2) t^n / ((1+k^2 t^2)(1+k1^2 t^2)) dt

plus the dispersion function L(k) = k^2 T_2(k), the pole-free forcing terms
phi0 and the iteration kernels S of the forward and inverse series.  All J_n
carry the 2/sqrt(pi) prefactor uniformly; that choice is the only one
consistent with the algebraic identities

    J(k,k1) - sqrt(pi) T_1(k) T_1(k1)     = k^2 k1^2 [J_5(k,k1) - T_3(k)T_3(k1)]
    T_1(k)  - T_1(k1)                     = (k1^2 - k^2) J_3(k,k1)

which the test suite pins at randomized arguments.

Evaluation is by a fixed Gauss-Legendre rule with the exp(-t^2) weight folded
into the weights; panels shrink geometrically toward t = 0 so the near-pole
structure at t ~ 1/k stays resolved up to k of a few hundred.  All evaluators
broadcast over numpy arrays in k and k1.  On that rule both iteration kernels
are separable (A(k, t) = 1/(1 + k^2 t^2), wt_n = weights times t^n):

    S(k, k1)    = (2/sqrt(pi)) m(k1) sum_t L(k, t) A(k1, t)
    L_fwd(k, t) = wt_5 A(k, t) - sqrt(pi) T_3(k) wt_3,   m = k1^2
    L_inv(k, t) = wt_3 A(k, t) - 2 T_4(k) wt_1,          m = 1

``s_fwd_factors``/``s_inv_factors`` define L and m once; ``s_fwd``/``s_inv``
contract them, and the iteration operator sums over k1 before it applies L.
"""
from __future__ import annotations

import math

import numpy as np

from .quadrature import QuadratureSpec, gauss_weighted_nodes

__all__ = ["KernelSuite", "UnsupportedOrder", "SQRT_PI"]

SQRT_PI = math.sqrt(math.pi)

_ORDERS = (1, 2, 3, 4, 5)

# geometric refinement toward t=0 keeps the rule accurate for large k
_DEFAULT_SPEC = QuadratureSpec(
    node_count=64,
    mapping="gauss_weighted_halfline",
    rel_tol=1e-12,
    abs_tol=1e-14,
    split_points=(1.0 / 64, 1.0 / 16, 0.25, 1.0, 4.0),
)


class UnsupportedOrder(Exception):
    """Moment order outside the implemented range."""


class KernelSuite:
    """Vectorized evaluators for the kernel family, sharing one fixed rule.

    Parameters
    ----------
    spec : QuadratureSpec, optional
        Rule controlling the t-integration.  The default resolves all
        kernels to near machine precision for k up to a few hundred.
    """

    def __init__(self, spec: QuadratureSpec | None = None):
        self.spec = spec or _DEFAULT_SPEC
        t, w = gauss_weighted_nodes(self.spec)
        self._t2 = t * t
        # weights premultiplied by t^n for each supported moment
        self._wt = {n: w * t**n for n in _ORDERS}

    # -- moment integrals --------------------------------------------------

    def t_n(self, n: int, k):
        """T_n(k); strictly positive and strictly decreasing in k."""
        if n not in _ORDERS:
            raise UnsupportedOrder(f"T_n supports n in {_ORDERS}, got {n}")
        karr = np.asarray(k, dtype=float)
        denom = 1.0 + np.multiply.outer(karr * karr, self._t2)
        res = (2.0 / SQRT_PI) * (self._wt[n] / denom).sum(axis=-1)
        return float(res) if np.ndim(k) == 0 else res

    def big_l(self, k):
        """Dispersion function L(k) = k^2 T_2(k)."""
        karr = np.asarray(k, dtype=float)
        res = karr * karr * self.t_n(2, karr)
        return float(res) if np.ndim(k) == 0 else res

    def pole(self, k):
        """A(k, t) = 1/(1 + k^2 t^2) on the t-rule, shape ``(*k.shape, N_t)``."""
        a = np.multiply.outer(np.square(k, dtype=float), self._t2)
        a += 1.0
        return np.reciprocal(a, out=a)

    def _contract(self, left, weight, k, k1):
        """(2/sqrt(pi)) m(k1) sum_t left[..., t] A(k1, t), m = ``weight``, k1
        broadcast against k; einsum never forms the broadcast product."""
        k1arr = np.asarray(k1, dtype=float)
        res = (2.0 / SQRT_PI) * weight(k1arr) * np.einsum("...t,...t->...", left, self.pole(k1arr))
        return float(res) if np.ndim(k) == 0 and np.ndim(k1) == 0 else res

    def j_kernel(self, k, k1):
        """J(k, k1); symmetric, positive, J(k, 0) = T_1(k)."""
        return self._contract(self._wt[1] * self.pole(k), np.ones_like, k, k1)

    def j_n(self, n: int, k, k1):
        """J_n(k, k1) for n in {3, 5}; symmetric, J_n(k, 0) = T_n(k)."""
        if n not in (3, 5):
            raise UnsupportedOrder(f"J_n supports n in (3, 5), got {n}")
        return self._contract(self._wt[n] * self.pole(k), np.ones_like, k, k1)

    # -- forcing terms and iteration kernels -------------------------------

    def phi0_fwd(self, k):
        """Forward forcing (sqrt(pi)/2) T_3 - T_4; equals the pole-removed
        numerator: k^2 phi0_fwd(k) = T_2(k) - (sqrt(pi)/2) T_1(k)."""
        return 0.5 * SQRT_PI * self.t_n(3, k) - self.t_n(4, k)

    def phi0_inv(self, k):
        """Inverse-problem forcing T_3 - (2/sqrt(pi)) T_4; satisfies
        k^2 phi0_inv(k) = (2/sqrt(pi)) T_2(k) - T_1(k)."""
        return self.t_n(3, k) - (2.0 / SQRT_PI) * self.t_n(4, k)

    def s_fwd_factors(self, k):
        """L_fwd(k, t) and m(k1) = k1^2 of the forward kernel (module docstring)."""
        left = self._wt[5] * self.pole(k)
        left -= np.multiply.outer(SQRT_PI * self.t_n(3, k), self._wt[3])
        return left, np.square

    def s_inv_factors(self, k):
        """L_inv(k, t) and m(k1) = 1 of the inverse kernel (module docstring)."""
        left = self._wt[3] * self.pole(k)
        left -= np.multiply.outer(2.0 * self.t_n(4, k), self._wt[1])
        return left, np.ones_like

    def s_fwd(self, k, k1):
        """Forward iteration kernel k1^2 [J_5(k,k1) - sqrt(pi) T_3(k) T_3(k1)].

        Factorizes the pole: k^2 s_fwd(k,k1) = J(k,k1) - sqrt(pi) T_1(k) T_1(k1);
        the sqrt(pi) on the product term is forced by that identity once all
        J_n carry the uniform 2/sqrt(pi) prefactor.
        """
        return self._contract(*self.s_fwd_factors(k), k, k1)

    def s_inv(self, k, k1):
        """Inverse iteration kernel J_3(k,k1) - 2 T_1(k1) T_4(k).

        Factorizes the pole: k^2 s_inv(k,k1) = 2 T_1(k1) T_2(k) - J(k,k1).
        """
        return self._contract(*self.s_inv_factors(k), k, k1)
