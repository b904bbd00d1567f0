"""The density half-line rule: ``int_0^oo g(k) dk`` for the spectral densities.

The densities decay algebraically, like k^-2.  The rule is composite
Gauss-Legendre on fixed panels that end at the density grid's ``k_max``,
with node-doubling error control plus an algebraic power-law tail estimate;
its one setting is the nodes per panel, which a series build takes from its
t-rule (``kramers.kernels``).  The cosine transforms of the profile are
exact for the stored densities and live with them, in ``kramers.spectral``.

A half-line integrand may also return a stack of rows, one integrand per row
evaluated at the same points, or the rows of ``left @ g`` for a fixed matrix;
each row gets its own integral under the scalar rule.  The iteration operator
integrates every k-value with one set of k1 evaluations this way.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import _panel_rule
from .series import NumericalFailure, finite_result

__all__ = [
    "QuadratureError",
    "NonFiniteIntegrand",
    "ToleranceNotMet",
    "TailDivergence",
    "integrate_halfline",
]

# node-doubling rounds before giving up (node_count .. 8*node_count)
_MAX_ROUNDS = 4
# acceptance tolerances of the node-doubling estimate; spline integrands are
# only piecewise smooth and stall the estimate near 1e-11
_REL_TOL, _ABS_TOL = 1e-8, 1e-11
# inner panel edges, those below k_max are used; the last panel ends at k_max
_PANELS = (1.0, 4.0, 16.0, 64.0, 256.0)


class QuadratureError(NumericalFailure):
    """Base class for integration failures."""


class NonFiniteIntegrand(QuadratureError):
    """The integrand returned NaN or infinity at a quadrature node."""


class ToleranceNotMet(QuadratureError):
    """Refinement stalled before reaching the requested tolerance."""


class TailDivergence(QuadratureError):
    """The integrand decays too slowly (exponent >= -1) for a finite tail."""


def _finite(values):
    """``values``, a float or an array, if all of it is finite; else the
    ``finite_result`` failure of its first inf or nan."""
    bad = ~np.isfinite(values)
    if bad.any():
        finite_result(float(np.asarray(values)[bad][0]))
    return values


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


def _refine(f, edges: tuple[float, ...], n: int, left=None) -> float | np.ndarray:
    """Panel rule on ``edges`` from ``n`` nodes per panel, with node doubling
    until the change between two rounds is within max(1e-11, 1e-8 |value|).

    A row-valued integrand gets one value per row: each row is accepted at
    its own first converged doubling and keeps that value while the other
    rows go on refining.  ``left`` is that of integrate_halfline.
    """
    prev = None
    for _ in range(_MAX_ROUNDS):
        x, w = _panel_rule(edges, n)
        vals = _eval(f, x)
        # a row sums exactly as it would alone; with ``left`` the points sum first
        cur = _finite((vals * w).sum(axis=-1) if left is None else left @ (vals @ w))
        if prev is None:
            # NaN marks a row not yet accepted; _eval has rejected NaN values
            result = np.full(cur.shape, np.nan)
        else:
            tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(cur))
            accept = np.isnan(result) & (np.abs(cur - prev) <= tol)
            result = np.where(accept, cur, result)
            if not np.isnan(result).any():
                return _scalar_or_rows(result)
        prev = cur
        n *= 2
    raise ToleranceNotMet(
        f"no convergence on {edges} after {_MAX_ROUNDS} node doublings"
    )


def _tail_estimate(g, a: float, b: float, left=None):
    """Closed-form tail ``int_b^oo c k^-p dk`` from a two-point power fit
    on [a, b], one per row of a row-valued integrand or of ``left @ g``.

    A sign change, or a fitted tail no larger than 1e-11, yields
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
    return _scalar_or_rows(np.where(np.abs(tail) > _ABS_TOL, tail, 0.0))


def integrate_halfline(g, k_max: float, node_count: int, left=None) -> float | np.ndarray:
    """``int_0^oo g(k) dk`` for continuous g with O(k^-2) decay, by the rule
    of ``node_count`` nodes per panel on a density grid that ends at ``k_max``.

    The panels end at 1, 4, 16, 64 and 256, those below ``k_max``, and at
    ``k_max``, so the power-law tail estimate starts where the sampled data
    stops.  They continue to 4, 16 and 64 ``k_max`` before the power-law fit
    takes over; extrapolating from ``k_max`` itself is accurate only to
    ~|g| * k_max/k^2 and would dominate the error budget.

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
    if not 0.0 < k_max < math.inf:
        raise ValueError(f"k_max must be positive and finite, got {k_max!r}")
    extension = (4.0 * k_max, 16.0 * k_max, 64.0 * k_max)
    edges = (0.0, *(s for s in _PANELS if s < k_max), k_max, *extension)
    main = _refine(g, edges, node_count, left)
    return main + _tail_estimate(g, extension[-2], extension[-1], left)
