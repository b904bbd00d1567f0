"""Grid-sampled spectral densities and the series containers.

The continuous spectral variable k is discretized on a geometric grid; the
finite k -> 0 limit of each density is stored separately (after pole removal
the densities are regular at the origin).  Between nodes the density is a
not-a-knot cubic spline; beyond the last node it continues as the power law
fitted on the last decade of samples, so a density behaves as a callable on
all of [0, oo) and can be fed straight to the half-line and Fourier
integrators.  Iterates on one grid can also be evaluated together, as the
rows of one callable.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureSpec

__all__ = [
    "SpectralGrid",
    "SpectralDensity",
    "SeriesExpansion",
    "ProblemConfig",
    "GridTooCoarse",
]


class GridTooCoarse(Exception):
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
    def geometric(cls, count: int = 320, k_min: float = 1e-3, k_max: float = 2000.0):
        # k_max is generous because the densities decay only like k^-2 with
        # logarithmic corrections; truncating earlier costs ~1e-3 in the
        # velocity corrections
        return cls(np.geomspace(k_min, k_max, count))

    def doubled(self) -> "SpectralGrid":
        return SpectralGrid(np.geomspace(self.nodes[0], self.nodes[-1], 2 * self.nodes.size))


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
    """The spline with coefficients ``coef`` (``(4, *rows, intervals)``) at
    the 1-D points k, as ``(*rows, k.size)``; the end pieces extrapolate."""
    i = np.clip(np.searchsorted(knots, k, side="right") - 1, 0, knots.size - 2)
    t = k - knots[i]
    c = np.take(coef, i, axis=-1)
    return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]


def _evaluate(knots, coef, tail_coef, tail_exponent, k) -> np.ndarray:
    """_spline_eval on [0, knots[-1]] and the power-law tail past it, at
    points k of any shape, as ``(*rows, *k.shape)``.

    The tail parameters are arrays of shape ``rows``.  Every row gets the
    same arithmetic as it would alone.
    """
    k = np.asarray(k, dtype=float)
    flat = k.ravel()
    out = _spline_eval(knots, coef, flat)
    past = flat > knots[-1]
    if past.any():
        base = flat[past] / knots[-1]
        out[..., past] = tail_coef[..., None] * base ** tail_exponent[..., None]
    return out.reshape(out.shape[:-1] + k.shape)


class SpectralDensity:
    """One Neumann iterate E_n(k), sampled on a SpectralGrid.

    Parameters
    ----------
    grid : SpectralGrid
    values : array of samples aligned with ``grid.nodes``
    value_at_zero : float
        The finite limit at k = 0 (computed analytically, not extrapolated).
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
        self._coef = _spline_coefficients(
            self._knots, np.concatenate(([self.value_at_zero], values))
        )
        self._tail_coef, self._tail_exponent = self._fit_tail()

    def _fit_tail(self):
        k = self.grid.nodes
        mask = k >= self.grid.k_max / 10.0
        kk, vv = k[mask], self.values[mask]
        tiny = 1e-300
        if np.max(np.abs(vv)) < 1e-14 or np.any(vv * vv[-1] <= 0):
            return 0.0, -2.0
        slope, _ = np.polyfit(np.log(kk), np.log(np.abs(vv) + tiny), 1)
        # anchor the power law at the last sample so the tail is continuous
        return float(self.values[-1]), float(slope)

    @property
    def tail_exponent(self) -> float:
        """Fitted decay power p of |E(k)| ~ k^p on the last decade."""
        return self._tail_exponent

    def __call__(self, k):
        out = _evaluate(
            self._knots, self._coef, np.array(self._tail_coef), np.array(self._tail_exponent), k
        )
        return float(out) if np.ndim(k) == 0 else out

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

    def map(self, values, value_at_zero: float) -> "SpectralDensity":
        """New density on the same grid."""
        return SpectralDensity(self.grid, values, value_at_zero)


def _stack(densities: list[SpectralDensity]):
    """The iterates ``densities`` as one row-valued callable.

    ``f(k)`` returns ``(len(densities), *k.shape)`` values, row n equal bit
    for bit to ``densities[n](k)``.  A spline is linear in its samples, so
    the rows simply stack each iterate's own coefficients and tail; all
    iterates must share one grid.
    """
    first = densities[0]
    if any(not np.array_equal(d.grid.nodes, first.grid.nodes) for d in densities[1:]):
        raise ValueError("stacked densities must share one grid")
    coef = np.stack([d._coef for d in densities], axis=1)
    tail_coef = np.array([d._tail_coef for d in densities])
    tail_exponent = np.array([d._tail_exponent for d in densities])
    return lambda k: _evaluate(first._knots, coef, tail_coef, tail_exponent, k)


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered expansion coefficients in powers of the diffuseness q."""

    kind: str  # "forward" (slip series) or "inverse" (gradient series)
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("forward", "inverse"):
            raise ValueError(f"unknown series kind {self.kind!r}")
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs or not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be a nonempty finite sequence")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def partial_sum(self, q: float, order: int | None = None) -> float:
        """Sum of c_n q^n through the given order (default: all)."""
        last = self.order if order is None else order
        if not 0 <= last <= self.order:
            raise ValueError(f"order must lie in [0, {self.order}] (the built order), got {last}")
        return float(sum(c * q**n for n, c in enumerate(self.coefficients[: last + 1])))

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "order": self.order, "coefficients": list(self.coefficients)}
        )

    @classmethod
    def from_json(cls, text: str) -> "SeriesExpansion":
        data = json.loads(text)
        series = cls(kind=data["kind"], coefficients=tuple(data["coefficients"]))
        if series.order != data.get("order", series.order):
            raise ValueError("order field inconsistent with coefficient count")
        return series


@dataclass(frozen=True)
class ProblemConfig:
    """What a forward solve reads: the diffuseness ``q`` in [0, 1], the
    finite imposed velocity ``gradient``, the integer truncation ``order``
    in [0, 12] and the density quadrature ``quad`` (None: the default rule
    of the grid).  The spectral grid is always ``SpectralGrid.geometric()``.
    """

    q: float = 1.0
    gradient: float = 1.0
    order: int = 3
    quad: QuadratureSpec | None = None

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
            raise ValueError(f"q must lie in [0, 1], got {self.q}")
        if not isinstance(self.order, numbers.Integral) or not (0 <= self.order <= 12):
            raise ValueError(f"order must be an integer in [0, 12], got {self.order!r}")
        if not isinstance(self.gradient, numbers.Real) or not math.isfinite(self.gradient):
            raise ValueError(f"gradient must be a finite number, got {self.gradient!r}")
