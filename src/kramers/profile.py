"""Physical-space reconstruction: velocity profile, wall value, boundary
distribution and the spectral distribution densities.

The Knudsen-layer correction is the Fourier-cosine inversion of the spectral
iterates,

    U_c(x) = sum_n q^n * g_v (2-q)/pi * int_0^oo cos(kx) E_n(k) dk,

and the full profile is U(x) = V_sl(q) + g_v x + U_c(x); far from the wall
U approaches the linear asymptote, close to it the correction carves out the
Knudsen layer.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .forward import build_series_fwd, default_density_quad, slip_velocity
from .kernels import KernelSuite
from .quadrature import QuadratureSpec, integrate_fourier_cos, integrate_halfline
from .spectral import ProblemConfig, SeriesExpansion, SpectralDensity, _stack

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
# solution of the half-space problem
EXACT_SLIP_DIFFUSE = 1.016191
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
    values: np.ndarray


def velocity_correction(
    densities: list[SpectralDensity],
    q: float,
    g_v: float,
    x,
    quad: QuadratureSpec | None = None,
) -> float | np.ndarray:
    """Knudsen-layer correction U_c(x) from the iterates E_0..E_N.

    ``x`` may be a scalar, which gives a float, or an array, which gives an
    array of the same shape.  Every iterate at every x is one row-valued
    integrate_fourier_cos call, each (iterate, x) pair under the scalar
    rule; the transforms are then summed with their weights q^n.
    """
    quad = quad or default_density_quad(densities[0].grid.k_max)
    prefactor = g_v * (2.0 - q) / math.pi
    # each iterate is transformed on its own: the tail beyond the last panel
    # is a two-point power fit, and the fit of a sum of power laws is not the
    # sum of their fits, so summing the iterates first moves U_c(0) by ~4e-8
    transforms = integrate_fourier_cos(_stack(densities), x, quad)
    total = prefactor * sum(q**n * t_n for n, t_n in enumerate(transforms))
    return float(total) if np.ndim(x) == 0 else total


def _forward_build(config: ProblemConfig, kern, series, densities):
    if series is None or densities is None:
        series, densities = build_series_fwd(config.order, kern, quad=config.quad)
    return series, densities


def full_profile(
    config: ProblemConfig,
    x_nodes,
    kern: KernelSuite | None = None,
    series: SeriesExpansion | None = None,
    densities: list[SpectralDensity] | None = None,
) -> VelocityProfile:
    """U(x) = V_sl(q) + g_v x + U_c(x) on the given x-grid."""
    series, densities = _forward_build(config, kern, series, densities)
    x_nodes = np.asarray(x_nodes, dtype=float)
    g_v, q = config.gradient, config.q
    v_sl = slip_velocity(series, q, g_v)
    quad = config.quad or default_density_quad(densities[0].grid.k_max)
    correction = velocity_correction(densities, q, g_v, x_nodes, quad)
    asymptote = v_sl + g_v * x_nodes
    return VelocityProfile(
        x_nodes=x_nodes,
        total=asymptote + correction,
        asymptote=asymptote,
        correction=correction,
        q=q,
        order=config.order,
    )


def wall_velocity(
    config: ProblemConfig,
    kern: KernelSuite | None = None,
    series: SeriesExpansion | None = None,
    densities: list[SpectralDensity] | None = None,
) -> float:
    """Gas velocity at the wall, U(0) = V_sl(q) + sum_n q^n U_c^(n)(0).

    At q = 1 the slip in the sum is the exact diffuse benchmark
    ``g_v * EXACT_SLIP_DIFFUSE`` (the decomposition the reference partial
    sums use); at any other q it is the truncated series ``slip_velocity``,
    so U(0) equals ``full_profile(...).total[0]`` there.
    """
    series, densities = _forward_build(config, kern, series, densities)
    g_v, q = config.gradient, config.q
    v_sl = g_v * EXACT_SLIP_DIFFUSE if q == 1.0 else slip_velocity(series, q, g_v)
    return v_sl + velocity_correction(densities, q, g_v, 0.0, config.quad)


def combined_density(densities: list[SpectralDensity], q: float, g_v: float):
    """Total spectral density E(k) = 2 g_v (2-q) sum_n q^n E_n(k), as a callable."""
    pref = 2.0 * g_v * (2.0 - q)
    rows = _stack(densities)

    def total(k):
        return pref * sum(q**n * e_n for n, e_n in enumerate(rows(k)))

    return total


def boundary_distribution(
    density_total,
    mu_nodes,
    quad: QuadratureSpec | None = None,
) -> DistributionSlice:
    """Wall boundary value h_c(0, mu) = (1/pi) int_0^oo E(k)/(1 + k^2 mu^2) dk.

    ``density_total`` is the assembled E(k) callable, for example
    combined_density; the result depends on mu^2 only, so one slice serves
    both signs of mu.  All mu are the rows of one row-valued
    integrate_halfline call, each under the scalar rule.  ``quad`` defaults
    to ``default_density_quad()``.
    """
    quad = quad or default_density_quad()
    mu_nodes = np.asarray(mu_nodes, dtype=float)
    mu = mu_nodes[:, None]
    values = (
        integrate_halfline(lambda k: density_total(k) / (1.0 + k * k * mu * mu), quad)
        / math.pi
    )
    return DistributionSlice(mu_nodes=mu_nodes, values=values)


def phi_n(
    n: int,
    k: float,
    mu: float,
    series: SeriesExpansion,
    densities: list[SpectralDensity],
    quad: QuadratureSpec | None = None,
) -> complex:
    """Spectral density of the distribution function at order n.

    Order 0:   (E_0(k) + mu^2 - V_0 |mu|) / (1 + i k mu)
    Order n>0: (E_n(k) - V_n |mu| - (|mu|/pi) int E_{n-1}(k1)/(1+k1^2 mu^2) dk1)
               / (1 + i k mu)
    """
    if n < 0 or n > series.order or n >= len(densities):
        raise ValueError(f"order {n} exceeds the built series")
    quad = quad or default_density_quad(densities[0].grid.k_max)
    amu = abs(mu)
    numerator = densities[n](k) - series.coefficients[n] * amu
    if n == 0:
        numerator += mu * mu
    else:
        e_prev = densities[n - 1]
        numerator -= (
            amu
            / math.pi
            * integrate_halfline(lambda k1: e_prev(k1) / (1.0 + k1 * k1 * mu * mu), quad)
        )
    return numerator / (1.0 + 1j * k * mu)
