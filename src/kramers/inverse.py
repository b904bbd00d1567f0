"""Inverse slip problem: slip velocity given, far-field gradient sought.

Structurally the mirror image of the forward series: the zeroth iterate is
E_0 = phi0_inv / T_2, the operator kernel is s_inv and carries a positive
sign, and the coefficients are  W_n = (2/pi) int_0^oo T_1(k) E_{n-1}(k) dk
with W_0 = 2/sqrt(pi).

The recovered gradient is  g_v(q) = V_sl * q/(2-q) * sum_n W_n q^n, which
vanishes identically at q = 0.
"""
from __future__ import annotations

import math

from .forward import _apply_operator, _build_series
from .kernels import SQRT_PI, KernelSuite
from .quadrature import QuadratureSpec, integrate_halfline
from .spectral import SeriesExpansion, SpectralDensity, SpectralGrid

__all__ = [
    "build_e0_inv",
    "w_coefficient",
    "apply_operator_inv",
    "build_series_inv",
    "gradient",
]

W0_EXACT = 2.0 / SQRT_PI


def build_e0_inv(kern: KernelSuite, grid: SpectralGrid) -> SpectralDensity:
    """Zeroth inverse iterate E_0 = phi0_inv / T_2, with E_0(0) = -1/sqrt(pi);
    raises GridTooCoarse when the grid does not resolve it."""
    values = kern.phi0_inv(grid.nodes) / kern.t_n(2, grid.nodes)
    density = SpectralDensity(grid, values, value_at_zero=-1.0 / SQRT_PI)
    density.self_check()
    return density


def w_coefficient(kern: KernelSuite, e_prev: SpectralDensity, quad: QuadratureSpec) -> float:
    """W_n = (2/pi) int_0^oo T_1(k) E_{n-1}(k) dk."""
    return 2.0 / math.pi * integrate_halfline(lambda k: kern.t_n(1, k) * e_prev(k), quad)


def apply_operator_inv(
    kern: KernelSuite, e_prev: SpectralDensity, quad: QuadratureSpec
) -> SpectralDensity:
    """One inverse step: E_n(k) = +(1/(pi T_2(k))) int_0^oo S(k,k1) E_{n-1}(k1) dk1."""
    return _apply_operator(kern, kern.s_inv_factors, 1.0, e_prev, quad)


def build_series_inv(
    order: int,
    kern: KernelSuite | None = None,
    grid: SpectralGrid | None = None,
    quad: QuadratureSpec | None = None,
) -> tuple[SeriesExpansion, list[SpectralDensity]]:
    """Gradient coefficients W_0..W_order and the inverse iterates E_0..E_order."""
    return _build_series("inverse", W0_EXACT, build_e0_inv, w_coefficient, apply_operator_inv,
                         order, kern, grid, quad)


def gradient(series: SeriesExpansion, q: float, v_sl: float) -> float:
    """g_v(q) = V_sl * q/(2-q) * sum_n W_n q^n; exactly zero at q = 0."""
    if series.kind != "inverse":
        raise ValueError("gradient needs an inverse series")
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    return v_sl * q / (2.0 - q) * series.partial_sum(q)
