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

Evaluation is by a fixed Gauss-Legendre rule, the t-rule, with the exp(-t^2)
weight folded into the weights; panels shrink geometrically toward t = 0 so
the near-pole structure at t ~ 1/k stays resolved up to k of a few hundred.
The rule lives here, and this module imports no other module of the
package; its one setting, ``QuadratureSpec.node_count``, also sets the
k-grid and the density rule of a series build (``kramers.forward``).  All
evaluators broadcast over numpy arrays in k and k1.  On that rule both
iteration kernels are separable (A(k, t) = 1/(1 + k^2 t^2), wt_n = weights
times t^n):

    S(k, k1)    = (2/sqrt(pi)) m(k1) sum_t L(k, t) A(k1, t)
    L_fwd(k, t) = wt_5 A(k, t) - sqrt(pi) T_3(k) wt_3,   m = k1^2
    L_inv(k, t) = wt_3 A(k, t) - 2 T_4(k) wt_1,          m = 1

``s_fwd_factors``/``s_inv_factors`` define L and m once; ``s_fwd``/``s_inv``
contract them, and the iteration operator sums over k1 before it applies L.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["KernelSuite", "UnsupportedOrder", "QuadratureSpec", "gauss_weighted_nodes", "SQRT_PI"]

SQRT_PI = math.sqrt(math.pi)

_ORDERS = (1, 2, 3, 4, 5)

# panel edges of the t-rule: geometric refinement toward t = 0 keeps it
# accurate for large k, and exp(-t^2) < 3e-36 past t = 9
_T_PANELS = (0.0, 1.0 / 64, 1.0 / 16, 0.25, 1.0, 4.0, 9.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """The t-rule's one setting: ``node_count``, the Gauss-Legendre nodes
    per panel, an integer >= 8."""

    node_count: int = 64

    def __post_init__(self):
        if not isinstance(self.node_count, numbers.Integral) or self.node_count < 8:
            raise ValueError(f"node_count must be an integer >= 8, got {self.node_count!r}")

    def doubled(self) -> "QuadratureSpec":
        """Same spec with twice the nodes per panel (self-convergence runs)."""
        return QuadratureSpec(2 * self.node_count)


def _legendre(n: int, theta: np.ndarray):
    """P_n and x P_n - P_{n-1} at x = cos(theta), for theta in (0, pi/2].

    The recurrence runs on 1 - x and on the differences P_j - P_{j-1}, so x
    itself is never rounded; near x = 1 a rounded x would shift P_n by
    about n^2/2 ulp.
    """
    y = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - x
    p, d = 1.0 - y, -y  # P_1 and P_1 - P_0
    for j in range(2, n + 1):
        d = ((j - 1) * d - (2 * j - 1) * y * p) / j
        p = p + d
    return p, d - y * p


@lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n(cos theta) from Tricomi's guesses finds the
    nodes in [0, 1); the rest are their mirror images.  The weights
    w = 2 sin^2(theta) / (n (x P_n - P_{n-1}))^2 keep 1 - x^2 exact near the
    ends of the interval.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    guess = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    theta = np.arccos(guess)
    for _ in range(10):
        p, dp = _legendre(n, theta)
        step = p * np.sin(theta) / (n * dp)
        theta = theta - step
        if np.all(np.abs(step) <= np.finfo(float).eps * theta):
            break
    p, dp = _legendre(n, theta)
    x = np.cos(theta)
    w = 2.0 * (np.sin(theta) / (n * dp)) ** 2
    if n % 2:
        x[-1] = 0.0  # the middle node of an odd rule
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


@lru_cache(maxsize=256)
def _panel_rule(edges: tuple[float, ...], n: int):
    """Concatenated Gauss-Legendre nodes/weights for consecutive panels."""
    x0, w0 = _gauss_legendre(n)
    xs, ws = [], []
    for a, b in zip(edges, edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * x0)
        ws.append(half * w0)
    return np.concatenate(xs), np.concatenate(ws)


def gauss_weighted_nodes(spec: QuadratureSpec):
    """Fixed nodes ``t`` and weights ``w`` (Gauss weight folded in) so that
    ``int_0^oo exp(-t^2) f(t) dt ~= w @ f(t)``, ``spec.node_count`` nodes on
    each panel of the t-rule.

    The kernel evaluators use the rule itself rather than a one-shot integral.
    """
    x, w = _panel_rule(_T_PANELS, spec.node_count)
    return x, w * np.exp(-x * x)


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
        self.spec = spec or QuadratureSpec()
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
