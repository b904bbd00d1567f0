"""Physical-space reconstruction: velocity profile, wall value, boundary
distribution and the spectral distribution densities.

The Knudsen-layer correction is the Fourier-cosine inversion of the spectral
iterates,

    U_c(x) = g_v (2-q)/pi * int_0^oo cos(kx) sum_n q^n E_n(k) dk,

and the full profile is U(x) = V_sl(q) + g_v x + U_c(x); far from the wall
U approaches the linear asymptote, close to it the correction carves out the
Knudsen layer.
"""
from __future__ import annotations

import io
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .forward import build_series_fwd, default_density_quad
from .quadrature import _finite, integrate_halfline
from .series import ProblemConfig, SeriesExpansion, check_finite, finite_result, slip_velocity
from .spectral import SpectralDensity, cosine_transform, weighted_sum

__all__ = [
    "EXACT_SLIP_DIFFUSE",
    "EXACT_WALL_DIFFUSE",
    "VelocityProfile",
    "DistributionSlice",
    "velocity_correction",
    "full_profile",
    "wall_velocity",
    "combined_density",
    "boundary_distribution",
    "phi_n",
]

# benchmark values for the fully diffuse wall (q = 1) from the closed-form
# solution of the half-space problem: the slip is
# -(1/pi) int_0^oo ln(2 u^2 (1 - sqrt(pi) u erfcx(u))) du
EXACT_SLIP_DIFFUSE = 1.016191418323353
EXACT_WALL_DIFFUSE = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class VelocityProfile:
    """Sampled U(x) split into linear asymptote and Knudsen-layer correction."""

    x_nodes: np.ndarray
    total: np.ndarray
    asymptote: np.ndarray
    correction: np.ndarray
    q: float
    order: int

    def to_csv(self) -> str:
        """CSV with 12 significant digits and LF line endings."""
        buf = io.StringIO()
        buf.write("x,U_total,U_asymptote,U_correction\n")
        for x, t, a, c in zip(self.x_nodes, self.total, self.asymptote, self.correction):
            buf.write(f"{x:.12g},{t:.12g},{a:.12g},{c:.12g}\n")
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "q": self.q,
                "order": self.order,
                "x": list(self.x_nodes),
                "total": list(self.total),
                "asymptote": list(self.asymptote),
                "correction": list(self.correction),
            }
        )


@dataclass(frozen=True)
class DistributionSlice:
    """Boundary values of the continuum-spectrum distribution at the wall;
    they are even in mu."""

    mu_nodes: np.ndarray
    values: np.ndarray | float


def _series_sum(densities: list[SpectralDensity], q: float, g_v: float, scale: float):
    """``scale * sum_n q^n E_n`` as one density; g_v finite, q in [0, 1], and
    a NumericalFailure if ``scale`` or the sum overflows."""
    check_finite(g_v, "gradient")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    finite_result(scale)
    return weighted_sum(densities, [scale * q**n for n in range(len(densities))])


def velocity_correction(
    densities: list[SpectralDensity],
    q: float,
    g_v: float,
    x,
) -> float | np.ndarray:
    """Knudsen-layer correction U_c(x) from the iterates E_0..E_N.

    ``x`` may be a scalar, which gives a float, or an array, which gives an
    array of the same shape.  The iterates combine with their weights q^n
    (``spectral.weighted_sum``) before one exact cosine transform.  A
    result that overflows is a NumericalFailure.
    """
    transform = cosine_transform(_series_sum(densities, q, g_v, 1.0), x)
    # g_v (2-q)/pi may overflow to inf, and inf times a zero transform is nan
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(g_v * (2.0 - q) / math.pi * transform)


def _forward_build(config: ProblemConfig, series, densities):
    """The prebuilt forward series of ``config.order`` and its iterates, or a new build."""
    if series is None or densities is None:
        return build_series_fwd(config.order)
    order = config.order
    if series.kind != "forward" or series.order != order or len(densities) != order + 1:
        raise ValueError(f"need the forward series of order {order} and its iterates, got "
                         f"{series.kind} order {series.order} with {len(densities)} iterates")
    return series, densities


def full_profile(
    config: ProblemConfig,
    x_nodes,
    series: SeriesExpansion | None = None,
    densities: list[SpectralDensity] | None = None,
) -> VelocityProfile:
    """U(x) = V_sl(q) + g_v x + U_c(x) on the given x-grid; a NumericalFailure
    if a value overflows."""
    series, densities = _forward_build(config, series, densities)
    x_nodes = np.asarray(x_nodes, dtype=float)
    g_v, q = config.gradient, config.q
    v_sl = slip_velocity(series, q, g_v)
    correction = velocity_correction(densities, q, g_v, x_nodes)
    with np.errstate(over="ignore"):
        asymptote = v_sl + g_v * x_nodes
        # the correction is finite, so a finite total has a finite asymptote
        total = _finite(asymptote + correction)
    return VelocityProfile(
        x_nodes=x_nodes,
        total=total,
        asymptote=asymptote,
        correction=correction,
        q=q,
        order=config.order,
    )


def wall_velocity(
    config: ProblemConfig,
    series: SeriesExpansion | None = None,
    densities: list[SpectralDensity] | None = None,
) -> float:
    """Gas velocity at the wall, U(0) = V_sl(q) + sum_n q^n U_c^(n)(0).

    At q = 1 the slip in the sum is the exact diffuse benchmark
    ``g_v * EXACT_SLIP_DIFFUSE`` (the decomposition the reference partial
    sums use); at any other q it is the truncated series ``slip_velocity``,
    so U(0) equals ``full_profile(...).total[0]`` there.  A result that
    overflows is a NumericalFailure.
    """
    series, densities = _forward_build(config, series, densities)
    g_v, q = config.gradient, config.q
    v_sl = g_v * EXACT_SLIP_DIFFUSE if q == 1.0 else slip_velocity(series, q, g_v)
    return finite_result(v_sl + velocity_correction(densities, q, g_v, 0.0))


def combined_density(densities: list[SpectralDensity], q: float, g_v: float) -> SpectralDensity:
    """Total spectral density E(k) = 2 g_v (2-q) sum_n q^n E_n(k), one density;
    a NumericalFailure if it overflows."""
    return _series_sum(densities, q, g_v, 2.0 * g_v * (2.0 - q))


def boundary_distribution(density: SpectralDensity, mu_nodes) -> DistributionSlice:
    """Wall boundary value h_c(0, mu) = (1/pi) int_0^oo E(k)/(1 + k^2 mu^2) dk.

    ``density`` is E(k), for example combined_density; the result depends
    on mu^2 only, so one slice serves both signs of mu.  All mu are the rows
    of one row-valued integrate_halfline call under
    ``default_density_quad(density.grid.k_max)``, each under the scalar
    rule.  A scalar mu gives a float ``values``, an array of mu an array of
    its shape.  A NaN or infinite mu raises ValueError, and a value that
    overflows NumericalFailure.
    """
    mu_nodes = np.asarray(mu_nodes, dtype=float)
    if not np.isfinite(mu_nodes).all():
        raise ValueError(f"mu must be finite, not NaN or inf, got {mu_nodes}")
    mu, quad = mu_nodes.reshape(-1, 1), default_density_quad(density.grid.k_max)
    with np.errstate(over="ignore"):
        values = integrate_halfline(lambda k: density(k) / (1.0 + k * k * mu * mu), quad)
    values = _finite(values / math.pi)
    # a scalar mu gives its row's np.float64, a float whose complex division is numpy's
    return DistributionSlice(mu_nodes, values[0] if mu_nodes.ndim == 0 else
                             values.reshape(mu_nodes.shape))


def phi_n(
    n: int,
    k: float,
    mu: float,
    series: SeriesExpansion,
    densities: list[SpectralDensity],
) -> complex:
    """Spectral density of the distribution function at order n.

    Order 0:   (E_0(k) + mu^2 - V_0 |mu|) / (1 + i k mu)
    Order n>0: (E_n(k) - V_n |mu| - |mu| h_{n-1}(mu)) / (1 + i k mu), with
               h_{n-1}(mu) = (1/pi) int E_{n-1}(k1)/(1+k1^2 mu^2) dk1 the
               boundary_distribution of E_{n-1}

    An order n that is not an integer in [0, N] or a NaN or infinite k or
    mu raises ValueError.
    """
    built = min(series.order, len(densities) - 1)
    if not isinstance(n, numbers.Integral) or not 0 <= n <= built:
        raise ValueError(f"order must be an integer in [0, {built}] (the built order), got {n!r}")
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    amu = abs(mu)
    numerator = densities[n](k) - series.coefficients[n] * amu
    if n == 0:
        numerator += mu * mu
    else:
        numerator -= amu * boundary_distribution(densities[n - 1], mu).values
    return numerator / (1.0 + 1j * k * mu)
