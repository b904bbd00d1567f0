"""Grid-sampled spectral densities and their exact cosine transform.

The continuous spectral variable k is discretized on a geometric grid; the
finite k -> 0 limit of each density is stored separately (after pole removal
the densities are regular at the origin).  Between nodes the density is a
not-a-knot cubic spline; beyond the last node it continues as the power law
fitted on the last decade of samples, so a density behaves as an even
callable of k and can be fed straight to the half-line integrator.  A
weighted sum of iterates on one grid is again a density (``weighted_sum``),
and every density has an exact cosine transform (``cosine_transform``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _gauss_legendre
from .quadrature import TailDivergence, _finite
# SeriesExpansion and ProblemConfig stay importable from here
from .series import NumericalFailure, ProblemConfig, SeriesExpansion

__all__ = [
    "SpectralGrid",
    "SpectralDensity",
    "SeriesExpansion",
    "ProblemConfig",
    "GridTooCoarse",
    "weighted_sum",
    "cosine_transform",
]

# x values per block of cosine_transform: its memory does not grow with the x count
_X_BLOCK = 256
# the power-law tail's asymptotic series starts at phase kx >= 40 and sums 24
# terms; for decay k^p with -3 <= p < -1 the last is at most 1e-12 of the first
_SERIES_PHASE = 40.0
_SERIES_TERMS = 24
# Gauss-Legendre nodes of a doubling tail panel, whose phase spans at most 40
_TAIL_NODES = 64
# terms in w = (x h)^2 of a knot piece's small-phase series; at x h <= 1 the
# first omitted one is at most 1/20! ~ 4e-19 of the piece
_SMALL_PHASE_TERMS = 10


class GridTooCoarse(NumericalFailure):
    """The interpolation self-check failed on a coarsened grid."""


@dataclass(frozen=True)
class SpectralGrid:
    """Strictly increasing k-nodes on (0, k_max]; k = 0 is held out."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 8:
            raise ValueError("grid needs at least 8 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing and positive")
        object.__setattr__(self, "nodes", nodes)

    @property
    def k_max(self) -> float:
        return float(self.nodes[-1])

    @classmethod
    def geometric(cls, count: int = 320):
        """``count`` geometric nodes on [1e-3, 2000]."""
        # k_max is generous because the densities decay only like k^-2 with
        # logarithmic corrections; truncating earlier costs ~1e-3 in the
        # velocity corrections
        return cls(np.geomspace(1e-3, 2000.0, count))


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic spline through ``(x, y)``, at least 4 points.

    Returns power-basis coefficients ``c`` of shape ``(4, x.size - 1)``: on
    [x_i, x_{i+1}] the spline is ``((c[0] t + c[1]) t + c[2]) t + c[3]``
    with t = k - x_i.  The slopes at the knots solve a tridiagonal system
    (one Thomas sweep); the not-a-knot end rows are written so that the
    system stays tridiagonal, as in scipy's CubicSpline.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = [0.0, *dx[1:].tolist(), d1]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    sup = [d0, *dx[:-1].tolist(), 0.0]
    rhs = [
        ((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
        *(3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
        (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1,
    ]
    for i in range(1, len(diag)):
        m = sub[i] / diag[i - 1]
        diag[i] -= m * sup[i - 1]
        rhs[i] -= m * rhs[i - 1]
    s = rhs  # back substitution in place
    s[-1] /= diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / diag[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _spline_eval(knots: np.ndarray, coef: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The spline with coefficients ``coef`` (``(4, intervals)``) at the 1-D
    points k; the end pieces extrapolate."""
    i = np.clip(np.searchsorted(knots, k, side="right") - 1, 0, knots.size - 2)
    t = k - knots[i]
    c = coef[:, i]
    return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]


class SpectralDensity:
    """One Neumann iterate E_n(k), or a ``weighted_sum`` of them, on a SpectralGrid.

    Parameters
    ----------
    grid : SpectralGrid
    values : array of samples aligned with ``grid.nodes``
    value_at_zero : float
        The finite limit at k = 0 (computed analytically, not extrapolated).

    Past k_max the density is the sum of the power laws ``c (k/k_max)^p`` in
    ``tails``: none where the last decade of samples is negligible or
    changes sign, else the one fitted there.  Samples so near the double
    limit that the spline's slopes overflow raise NumericalFailure.
    """

    def __init__(self, grid: SpectralGrid, values, value_at_zero: float):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.nodes.shape:
            raise ValueError("values must align with grid nodes")
        if not (np.all(np.isfinite(values)) and math.isfinite(value_at_zero)):
            raise ValueError("density samples must be finite")
        self.grid = grid
        self.values = values
        self.value_at_zero = float(value_at_zero)
        self._knots = np.concatenate(([0.0], grid.nodes))
        # samples near the double limit can overflow the spline's slopes
        with np.errstate(over="ignore", invalid="ignore"):
            self._coef = _finite(_spline_coefficients(
                self._knots, np.concatenate(([self.value_at_zero], values))
            ))
        self.tails = self._fit_tail()

    def _fit_tail(self) -> tuple[tuple[float, float], ...]:
        k = self.grid.nodes
        mask = k >= self.grid.k_max / 10.0
        kk, vv = k[mask], self.values[mask]
        # signs, not products: a product of samples can overflow or underflow
        if np.max(np.abs(vv)) < 1e-14 or np.any(np.sign(vv) * np.sign(vv[-1]) <= 0):
            return ()
        slope, _ = np.polyfit(np.log(kk), np.log(np.abs(vv) + 1e-300), 1)
        # anchor the power law at the last sample so the tail is continuous
        return ((float(self.values[-1]), float(slope)),)

    def __call__(self, k):
        """E(|k|): a float for a scalar k, else an array of k's shape; NaN k is a ValueError."""
        k = np.asarray(k, dtype=float)
        if np.isnan(k).any():
            raise ValueError("k must not be NaN")
        flat = np.abs(k).ravel()
        # k clipped at k_max: the end cubic overflows from about k = 1e103,
        # and the tail below overwrites those entries anyway
        out = _spline_eval(self._knots, self._coef, np.minimum(flat, self._knots[-1]))
        past = flat > self._knots[-1]
        if past.any():
            base = flat[past] / self._knots[-1]
            out[past] = sum(c * base**p for c, p in self.tails)
        return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)

    def self_check(self):
        """Interpolate from every other node and compare on the held-out ones.

        Raises GridTooCoarse when the cubic interpolation error exceeds
        1e-5 relative to the density's overall scale.
        """
        k_full = self._knots
        v_full = np.concatenate(([self.value_at_zero], self.values))
        coarse = _spline_coefficients(k_full[::2], v_full[::2])
        err = np.max(np.abs(_spline_eval(k_full[::2], coarse, k_full[1::2]) - v_full[1::2]))
        scale = max(np.max(np.abs(v_full)), 1e-30)
        if err > 1e-5 * scale:
            raise GridTooCoarse(f"interpolation self-check error {err / scale:.2e} exceeds 1e-5")


def weighted_sum(densities, weights) -> SpectralDensity:
    """``sum_n weights[n] E_n(k)`` as one density on the grid of ``densities``.

    A spline is linear in its samples, so the samples, the value at zero and
    the spline coefficients add up as they are, without a new spline solve;
    the tails join, each scaled by its weight.  One density of weight 1 is
    itself bit for bit.  Raises ValueError for no densities, a weight count
    that does not match, a non-finite weight or densities on different grids,
    and NumericalFailure for a sum that overflows.
    """
    densities, weights = list(densities), [float(w) for w in weights]
    if not densities or len(weights) != len(densities) or not all(map(math.isfinite, weights)):
        raise ValueError(f"need one finite weight per density, got {weights} for {len(densities)}")
    first = densities[0]
    if any(not np.array_equal(d.grid.nodes, first.grid.nodes) for d in densities[1:]):
        raise ValueError("the densities must share one grid")
    total = object.__new__(SpectralDensity)
    total.grid, total._knots = first.grid, first._knots
    # an overflowing term is inf, and two of opposite signs add up to nan
    with np.errstate(over="ignore", invalid="ignore"):
        total.values = _finite(sum(w * d.values for w, d in zip(weights, densities)))
        total._coef = _finite(sum(w * d._coef for w, d in zip(weights, densities)))
    # finite: the same sum, in the same order, is _coef[3, 0]
    total.value_at_zero = sum(w * d.value_at_zero for w, d in zip(weights, densities))
    total.tails = tuple((w * c, p) for w, d in zip(weights, densities)
                        for c, p in d.tails if w * c != 0.0)
    return total


def cosine_transform(density: SpectralDensity, x) -> float | np.ndarray:
    """``int_0^oo E(k) cos(kx) dk``, exact for the stored ``density`` at
    every finite x >= 0.

    x = 0 is the exact integral of the cubics.  At x > 0 a knot piece
    [a, a + h] with x h > 1 is integration by parts,
    ``[s sin/x + s' cos/x^2 - s'' sin/x^3 - s''' cos/x^4]`` over its ends
    (Filon, Proc. R. Soc. Edinburgh 49, 1928, 38), and one with x h <= 1 is
    ``cos(xa) C - sin(xa) S``, where C and S are the Taylor series of its
    moments against cos(x(k - a)) and sin(x(k - a)) (``_small_phase_tables``).
    Each power law c (k/K)^p of the tail past K = k_max adds its closed
    form (``_power_tail``).

    ``x`` may be a scalar, which gives a float, or an array, which gives an
    array of the same shape; every x gets the same arithmetic whatever else
    is in the array.  The positive x go in fixed-size blocks, so memory
    does not grow with their number, and a block evaluates the series only
    on the pieces its smallest x needs.  Raises ValueError for an x that is
    negative, non-finite, subnormal or so large that k_max x overflows, and
    TailDivergence for a tail with p >= -1.
    """
    knots = density._knots
    xs = np.asarray(x, dtype=float)
    # a subnormal x carries too few bits for its phases kx, and kx must stay finite
    x_min, x_max = np.finfo(float).tiny, np.finfo(float).max / knots[-1]
    if not np.all((xs == 0.0) | ((xs >= x_min) & (xs <= x_max))):
        raise ValueError(f"x must be nonnegative and finite: 0, or in [{x_min:.4g}, "
                         f"{x_max:.4g}] for k_max = {knots[-1]:g}")
    slow = [p for _, p in density.tails if p >= -1.0]
    if slow:
        raise TailDivergence(f"tail decay exponent {max(slow):.3f} >= -1")

    h = np.diff(knots)
    c0, c1, c2, c3 = density._coef
    flat = xs.ravel()
    out = np.empty(flat.size)
    zero = flat == 0.0
    if zero.any():
        out[zero] = np.sum(h * (c3 + h * (c2 / 2.0 + h * (c1 / 3.0 + h * c0 / 4.0))))
        for c, p in density.tails:
            out[zero] += _power_tail(c, p, knots[-1], flat[zero])
    positive = np.flatnonzero(~zero)
    if not positive.size:
        return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)

    # s, s', s'' and s''' at the two ends of each piece
    left = (c3, c2, 2.0 * c1, 6.0 * c0)
    right = (((c0 * h + c1) * h + c2) * h + c3, (3.0 * c0 * h + 2.0 * c1) * h + c2,
             6.0 * c0 * h + 2.0 * c1, 6.0 * c0)
    cos_table, sin_table = _small_phase_tables(h, density._coef)

    def ends(s, sin, cos, r):
        return r * ((s[0] - s[2] * r * r) * sin + r * (s[1] - s[3] * r * r) * cos)

    for start in range(0, positive.size, _X_BLOCK):
        block = positive[start:start + _X_BLOCK]
        xb = flat[block]
        col = xb[:, None]
        r = 1.0 / np.maximum(col, 1.0 / h.max())  # 1/x wherever a piece takes the parts
        sin, cos = np.sin(col * knots), np.cos(col * knots)
        terms = ends(right, sin[:, 1:], cos[:, 1:], r) - ends(left, sin[:, :-1], cos[:, :-1], r)
        # past the last piece with xb.min() h <= 1 every x of the block takes the parts
        small = np.flatnonzero(xb.min() * h <= 1.0)
        m = small[-1] + 1 if small.size else 0
        z = col * h[:m]
        w = z * z
        even, odd = cos_table[-1, :m], sin_table[-1, :m]
        for a, b in zip(cos_table[-2::-1, :m], sin_table[-2::-1, :m]):
            even, odd = even * w + a, odd * w + b
        series = cos[:, :m] * even - sin[:, :m] * (z * odd)
        terms[:, :m] = np.where(z > 1.0, terms[:, :m], series)
        total = terms.sum(axis=-1)
        for c, p in density.tails:
            total += _power_tail(c, p, knots[-1], xb)
        out[block] = total
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _small_phase_tables(h: np.ndarray, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horner tables in w = z^2, z = x h, of each knot piece's moments.

    On a piece of width h with cubic ``s(t) = sum_p b_p t^p`` (``coef`` is
    ``(b_3, b_2, b_1, b_0)``), t = h u gives
    ``int_0^h s(t) cos(xt) dt = sum_m C[m] w^m`` and
    ``int_0^h s(t) sin(xt) dt = z sum_m S[m] w^m`` with

        C[m] = (-1)^m / (2m)! sum_p b_p h^(p+1) / (2m + p + 1),
        S[m] = (-1)^m / (2m+1)! sum_p b_p h^(p+1) / (2m + p + 2),

    the Taylor series of ``int_0^1 u^p cos(zu) du`` and its sine.  Both
    tables are ``(_SMALL_PHASE_TERMS, pieces)``; at z <= 1 the first omitted
    term is at most 1/(2 _SMALL_PHASE_TERMS)! of the piece.
    """
    moments = np.stack([b * h ** (p + 1) for p, b in enumerate(coef[::-1])])
    m, p = np.arange(_SMALL_PHASE_TERMS)[:, None], np.arange(4)
    sign = np.where(m % 2 == 0, 1.0, -1.0)
    factorial = np.array([[math.factorial(2 * n)] for n in range(_SMALL_PHASE_TERMS)], dtype=float)
    cos_weights = sign / (factorial * (2 * m + p + 1))
    sin_weights = sign / (factorial * (2 * m + 1) * (2 * m + p + 2))
    return cos_weights @ moments, sin_weights @ moments


def _power_tail(c: float, p: float, k_max: float, x: np.ndarray) -> np.ndarray:
    """``int_K^oo c (k/K)^p cos(kx) dk`` with K = k_max and p < -1, at each x.

    With v = k/K and a = Kx this is ``c K int_1^oo v^p cos(av) dv``, and
    c K / (-p - 1) at x = 0.  Otherwise Gauss-Legendre panels [v, 2v] double
    from v = 1 until av >= 40, and the asymptotic series of repeated
    integration by parts goes on from there.
    """
    out = np.full(x.shape, c * k_max / (-p - 1.0))
    pos = x > 0.0
    if not pos.any():
        return out
    a = k_max * x[pos]
    doublings = np.maximum(0, np.ceil(np.log2(_SERIES_PHASE / a))).astype(int)
    v0 = np.ldexp(1.0, doublings)
    # int_v0^oo v^p cos(av) dv = v0^p/a (cos(a v0) (b1 - b3 + ..) - sin(a v0) (b0 - b2 + ..))
    # with b_m = (-1)^m p (p-1) .. (p-m+1) / (a v0)^m
    phase = a * v0
    b, sums = np.ones_like(a), [np.ones_like(a), np.zeros_like(a)]
    for m in range(1, _SERIES_TERMS):
        b = b * (m - 1 - p) / phase
        sums[m % 2] += b if m % 4 < 2 else -b
    integral = v0**p / a * (np.cos(phase) * sums[1] - np.sin(phase) * sums[0])
    xi, w = _gauss_legendre(_TAIL_NODES)
    for j in range(doublings.max(initial=0)):
        live = doublings > j
        v = 2.0**j * (1.5 + 0.5 * xi)
        integral[live] += 2.0**j * 0.5 * (w * v**p * np.cos(a[live, None] * v)).sum(axis=-1)
    out[pos] = c * k_max * integral
    return out

