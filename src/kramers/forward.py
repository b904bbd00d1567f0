"""Forward slip problem: gradient given, slip velocity sought.

The spectral density of the Knudsen-layer velocity is expanded in powers of
the diffuseness q.  The zeroth iterate has the closed pole-free form
E_0 = phi0 / T_2; each further iterate is one application of the integral
operator with the factorized kernel S, and each expansion coefficient V_n is
the number that cancels the second-order pole of the raw recursion at k = 0.
With the S-kernel route the cancellation is built in, so no explicit
subtraction is ever performed.

The slip velocity is  V_sl(q) = g_v (2-q)/q * sum_n V_n q^n.
"""
from __future__ import annotations

import math

import numpy as np

from .kernels import SQRT_PI, KernelSuite
from .quadrature import QuadratureSpec, integrate_halfline
from .spectral import SeriesExpansion, SpectralDensity, SpectralGrid

__all__ = [
    "DiffuseLimitSingular",
    "build_e0",
    "slip_coefficient",
    "apply_operator_fwd",
    "build_series_fwd",
    "slip_velocity",
    "default_density_quad",
]

V0_EXACT = 0.5 * SQRT_PI


class DiffuseLimitSingular(Exception):
    """q = 0 makes the (2-q)/q prefactor diverge (pure specular reflection)."""


def default_density_quad(k_max: float = 2000.0) -> QuadratureSpec:
    """Half-line rule for integrals of grid-sampled densities.

    The last panel ends at the grid edge so the power-law tail estimate
    starts where the sampled data stops.  Tolerances are looser than the
    kernel rule: spline integrands are only piecewise smooth and stall a
    node-doubling estimate near 1e-11.
    """
    return QuadratureSpec(
        node_count=64,
        rel_tol=1e-8,
        abs_tol=1e-11,
        split_points=(1.0, 4.0, 16.0, 64.0, 256.0, k_max),
    )


def build_e0(kern: KernelSuite, grid: SpectralGrid) -> SpectralDensity:
    """Zeroth forward iterate E_0 = phi0_fwd / T_2, with E_0(0) = -1/2;
    raises GridTooCoarse when the grid does not resolve it."""
    values = kern.phi0_fwd(grid.nodes) / kern.t_n(2, grid.nodes)
    density = SpectralDensity(grid, values, value_at_zero=-0.5)
    density.self_check()
    return density


def slip_coefficient(kern: KernelSuite, e_prev: SpectralDensity, quad: QuadratureSpec) -> float:
    """V_n = -(1/sqrt(pi)) int_0^oo T_1(k) E_{n-1}(k) dk.

    This is exactly the residue-cancellation condition that keeps the next
    iterate finite at k = 0.
    """
    return -integrate_halfline(lambda k: kern.t_n(1, k) * e_prev(k), quad) / SQRT_PI


def _apply_operator(
    kern: KernelSuite, factors, sign: float, e_prev: SpectralDensity, quad: QuadratureSpec
) -> SpectralDensity:
    """E_n(k) = sign/(pi T_2(k)) int_0^oo S(k,k1) E_{n-1}(k1) dk1 at k = 0 and
    at every grid node; ``factors`` is ``kern.s_fwd_factors`` or ``s_inv_factors``.

    One ``integrate_halfline`` call with ``left = L`` covers every k: each
    round sums the k1 points into v_t = sum_j w_j m(k1_j) E_{n-1}(k1_j) A(k1_j, t)
    and sets all rows as L @ v, O((rows + points) N_t) work, not O(rows points N_t).
    Each row keeps its own node-doubling acceptance and tail.  Row 0 is k = 0,
    where S is regular and T_2(0) = 1/2, so it gives the value at zero directly.
    """
    k = np.concatenate(([0.0], e_prev.grid.nodes))
    left, weight = factors(k)

    def g(k1):
        pole = kern.pole(k1)
        pole *= (weight(k1) * e_prev(k1))[:, None]
        return pole.T

    integrals = (2.0 / SQRT_PI) * integrate_halfline(g, quad, left=left)
    values = sign * integrals / (math.pi * kern.t_n(2, k))
    return e_prev.map(values[1:], values[0])


def apply_operator_fwd(
    kern: KernelSuite, e_prev: SpectralDensity, quad: QuadratureSpec
) -> SpectralDensity:
    """One forward step: E_n(k) = -(1/(pi T_2(k))) int_0^oo S(k,k1) E_{n-1}(k1) dk1."""
    return _apply_operator(kern, kern.s_fwd_factors, -1.0, e_prev, quad)


def _build_series(kind, c0, build_first, coefficient, step, order, kern, grid, quad):
    """The Neumann loop of both series: c_0, E_0 = build_first, then c_n and E_n
    from E_{n-1}.  Callers pass their module attributes as read at call time."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    kern = kern or KernelSuite()
    grid = grid or SpectralGrid.geometric()
    quad = quad or default_density_quad(grid.k_max)

    densities = [build_first(kern, grid)]
    coeffs = [c0]
    for _ in range(order):
        coeffs.append(coefficient(kern, densities[-1], quad))
        densities.append(step(kern, densities[-1], quad))
    return SeriesExpansion(kind, tuple(coeffs)), densities


def build_series_fwd(
    order: int,
    kern: KernelSuite | None = None,
    grid: SpectralGrid | None = None,
    quad: QuadratureSpec | None = None,
) -> tuple[SeriesExpansion, list[SpectralDensity]]:
    """Slip coefficients V_0..V_order and iterates E_0..E_order.

    V_0 = sqrt(pi)/2 exactly; V_n for n >= 1 comes from the previous iterate,
    which is then advanced by the integral operator.
    """
    return _build_series("forward", V0_EXACT, build_e0, slip_coefficient, apply_operator_fwd,
                         order, kern, grid, quad)


def slip_velocity(series: SeriesExpansion, q: float, g_v: float) -> float:
    """V_sl(q) = g_v (2-q)/q * sum_n V_n q^n."""
    if series.kind != "forward":
        raise ValueError("slip_velocity needs a forward series")
    if q == 0.0:
        raise DiffuseLimitSingular(
            "slip velocity is unbounded for q = 0 (purely specular wall)"
        )
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return g_v * (2.0 - q) / q * series.partial_sum(q)
