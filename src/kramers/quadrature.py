"""Semi-infinite quadrature for the integral families of the solver.

All integrals live on [0, oo).  Two flavours are needed:

* Gaussian-weighted integrals  ``int_0^oo exp(-t^2) f(t) dt``  (the fixed
  moment rule behind the kernel functions),
* plain half-line integrals of algebraically decaying spectral functions.

The engine is composite Gauss-Legendre on a split interval with node-doubling
error control plus an algebraic power-law tail estimate.  The cosine
transforms of the profile are exact for the stored densities and live with
them, in ``kramers.spectral``.

A half-line integrand may also return a stack of rows, one integrand per row
evaluated at the same points, or the rows of ``left @ g`` for a fixed matrix;
each row gets its own integral under the scalar rule.  The iteration operator
integrates every k-value with one set of k1 evaluations this way.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .series import NumericalFailure

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "NonFiniteIntegrand",
    "ToleranceNotMet",
    "TailDivergence",
    "integrate_halfline",
    "gauss_weighted_nodes",
]

# exp(-t^2) < 3e-36 beyond this point; everything past it is noise
_GAUSS_CUTOFF = 9.0
# node-doubling rounds before giving up (node_count .. 8*node_count)
_MAX_ROUNDS = 4


class QuadratureError(NumericalFailure):
    """Base class for integration failures."""


class NonFiniteIntegrand(QuadratureError):
    """The integrand returned NaN or infinity at a quadrature node."""


class ToleranceNotMet(QuadratureError):
    """Refinement stalled before reaching the requested tolerance."""


class TailDivergence(QuadratureError):
    """The integrand decays too slowly (exponent >= -1) for a finite tail."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts, tolerances and panel boundaries for one integral family.

    The function that takes the spec picks the treatment:
    gauss_weighted_nodes or integrate_halfline.

    Parameters
    ----------
    node_count : int
        Gauss-Legendre nodes per panel, an integer >= 8.
    rel_tol, abs_tol : float
        Acceptance tolerances for the node-doubling error estimate, in (0, 1).
    split_points : tuple of float
        Strictly increasing, positive and finite interior panel boundaries.
        The last entry is where the algebraic tail estimate takes over.
    """

    node_count: int = 64
    rel_tol: float = 1e-10
    abs_tol: float = 1e-13
    split_points: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0)

    def __post_init__(self):
        if not isinstance(self.node_count, numbers.Integral) or self.node_count < 8:
            raise ValueError(f"node_count must be an integer >= 8, got {self.node_count!r}")
        if not (0.0 < self.rel_tol < 1.0) or not (0.0 < self.abs_tol < 1.0):
            raise ValueError("tolerances must lie in (0, 1)")
        pts = tuple(float(s) for s in self.split_points)
        if len(pts) == 0 or not all(0.0 < s < math.inf for s in pts):
            raise ValueError("split_points must be positive and finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("split_points must be strictly increasing")
        object.__setattr__(self, "split_points", pts)

    def doubled(self) -> "QuadratureSpec":
        """Same spec with twice the nodes per panel (self-convergence runs)."""
        return replace(self, node_count=2 * self.node_count)

    def _tol(self, value):
        """Acceptance threshold for ``value``; elementwise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * abs(value))


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


def _eval(f, x: np.ndarray) -> np.ndarray:
    """Integrand values at the points ``x``: shape ``x.shape``, or
    ``(rows, x.size)`` for a row-valued integrand."""
    vals = np.asarray(f(x), dtype=float)
    if vals.shape != x.shape and (vals.ndim != 2 or vals.shape[1:] != x.shape):
        vals = np.broadcast_to(vals, x.shape)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand returned a non-finite value")
    return vals


def _scalar_or_rows(value: np.ndarray) -> float | np.ndarray:
    return float(value) if np.ndim(value) == 0 else value


def _refine(f, edges: tuple[float, ...], spec: QuadratureSpec, left=None) -> float | np.ndarray:
    """Panel rule on ``edges`` with node doubling until the change between
    two rounds is within ``spec._tol``.

    A row-valued integrand gets one value per row: each row is accepted at
    its own first converged doubling and keeps that value while the other
    rows go on refining.  ``left`` is that of integrate_halfline.
    """
    n = spec.node_count
    prev = None
    for _ in range(_MAX_ROUNDS):
        x, w = _panel_rule(edges, n)
        vals = _eval(f, x)
        # a row sums exactly as it would alone; with ``left`` the points sum first
        cur = (vals * w).sum(axis=-1) if left is None else left @ (vals @ w)
        if prev is None:
            # NaN marks a row not yet accepted; _eval has rejected NaN values
            result = np.full(cur.shape, np.nan)
        else:
            accept = np.isnan(result) & (np.abs(cur - prev) <= spec._tol(cur))
            result = np.where(accept, cur, result)
            if not np.isnan(result).any():
                return _scalar_or_rows(result)
        prev = cur
        n *= 2
    raise ToleranceNotMet(
        f"no convergence on {edges} after {_MAX_ROUNDS} node doublings"
    )


def gauss_weighted_nodes(spec: QuadratureSpec):
    """Fixed nodes ``t`` and weights ``w`` (Gauss weight folded in) so that
    ``int_0^oo exp(-t^2) f(t) dt ~= w @ f(t)``, on the panels of
    ``spec.split_points`` below the cutoff t = 9; the tolerances are not used.

    The kernel evaluators use the rule itself rather than a one-shot integral.
    """
    inner = [s for s in spec.split_points if s < _GAUSS_CUTOFF]
    x, w = _panel_rule((0.0, *inner, _GAUSS_CUTOFF), spec.node_count)
    return x, w * np.exp(-x * x)


def _tail_estimate(g, a: float, b: float, spec: QuadratureSpec, left=None):
    """Closed-form tail ``int_b^oo c k^-p dk`` from a two-point power fit
    on [a, b], one per row of a row-valued integrand or of ``left @ g``.

    A sign change, or a fitted tail no larger than ``spec.abs_tol``, yields
    a zero tail; decay slower than 1/k raises TailDivergence.
    """
    vals = _eval(g, np.array([a, b]))
    if left is not None:
        vals = left @ vals
    ga, gb = vals[..., 0], vals[..., 1]
    # no clean power law to fit on a sign change; the last-panel magnitude
    # bounds the tail
    fit = (ga != 0.0) & ((ga > 0) == (gb > 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.log(np.abs(ga) / np.abs(gb)) / math.log(b / a)
        slow = fit & (p <= 1.0)
        if np.any(slow):
            raise TailDivergence(
                f"decay exponent {-np.min(p[slow]):.3f} >= -1 measured on [{a}, {b}]"
            )
        tail = np.where(fit, gb * b / (p - 1.0), 0.0)
    return _scalar_or_rows(np.where(np.abs(tail) > spec.abs_tol, tail, 0.0))


def integrate_halfline(g, spec: QuadratureSpec, left=None) -> float | np.ndarray:
    """``int_0^oo g(k) dk`` for continuous g with O(k^-2) decay.

    Panels continue geometrically for two decades past the last split point
    before the power-law fit takes over; extrapolating from the split point
    itself is accurate only to ~|g| * split/k^2 and would dominate the error
    budget.

    ``g`` maps an array of n points to n values, and the result is a float.
    It may instead return a ``(rows, n)`` array: then the result is an array
    of ``rows`` integrals that share every evaluation of ``g``.  Each row
    follows the scalar rule on its own, with its own node-doubling
    acceptance and its own tail; ``NonFiniteIntegrand``, ``TailDivergence``
    and ``ToleranceNotMet`` are raised when any row trips them.

    With a fixed ``(rows, m)`` matrix ``left``, ``g`` returns ``(m, n)``
    factor values and row i, under the same rule, integrates ``left[i] @ g``;
    each round sums over the n points before it multiplies by ``left``.
    """
    last = spec.split_points[-1]
    extension = (4.0 * last, 16.0 * last, 64.0 * last)
    edges = (0.0, *spec.split_points, *extension)
    main = _refine(g, edges, spec, left)
    return main + _tail_estimate(g, extension[-2], extension[-1], spec, left)
