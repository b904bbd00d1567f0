"""Forward and inverse slip problems: one Neumann series of one operator.

The spectral density of the Knudsen-layer velocity is expanded in powers of
the diffuseness q.  The zeroth iterate has the closed pole-free form
E_0 = phi0 / T_2; each further iterate is one application of the integral
operator with the factorized kernel S, and each expansion coefficient c_n is
the number that cancels the second-order pole of the raw recursion at k = 0.
With the S-kernel route the cancellation is built in, so no explicit
subtraction is ever performed.  A ``SeriesKind`` holds all that sets the two
series apart: FORWARD gives the slip coefficients V_n, INVERSE the gradient
coefficients W_n.

The slip velocity and the recovered gradient are read from a built series
by ``slip_velocity`` and ``gradient`` (``kramers.series``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .kernels import SQRT_PI, KernelSuite
from .quadrature import QuadratureSpec, integrate_halfline
# DiffuseLimitSingular, check_finite, gradient and slip_velocity stay importable from here
from .series import (EXACT_C0, DiffuseLimitSingular, SeriesExpansion, check_finite, gradient,
                     slip_velocity)
from .spectral import SpectralDensity, SpectralGrid

__all__ = [
    "DiffuseLimitSingular",
    "SeriesKind",
    "FORWARD",
    "INVERSE",
    "first_iterate",
    "coefficient",
    "apply_operator",
    "build_series_fwd",
    "build_series_inv",
    "slip_velocity",
    "gradient",
    "check_finite",
    "default_density_quad",
]


@dataclass(frozen=True)
class SeriesKind:
    """What sets one series apart from the other.

    ``forcing`` and ``factors`` are KernelSuite methods, called with the
    suite as their first argument; ``scale`` maps the moment
    m = int_0^oo T_1(k) E_{n-1}(k) dk to the coefficient c_n.
    """

    name: str  # the SeriesExpansion.kind of the built series
    c0: float
    e0_at_zero: float
    forcing: Callable
    factors: Callable
    sign: float
    scale: Callable[[float], float]


FORWARD = SeriesKind(
    "forward", EXACT_C0["forward"], -0.5, KernelSuite.phi0_fwd, KernelSuite.s_fwd_factors, -1.0,
    lambda m: -m / SQRT_PI,
)
INVERSE = SeriesKind(
    "inverse", EXACT_C0["inverse"], -1.0 / SQRT_PI, KernelSuite.phi0_inv,
    KernelSuite.s_inv_factors, 1.0, lambda m: 2.0 / math.pi * m,
)


def default_density_quad(k_max: float) -> QuadratureSpec:
    """Half-line rule for integrals of densities on a grid that ends at ``k_max``.

    The last panel ends at the grid edge so the power-law tail estimate
    starts where the sampled data stops.  Tolerances are looser than the
    kernel rule: spline integrands are only piecewise smooth and stall a
    node-doubling estimate near 1e-11.  A build integrates at its t-rule's
    nodes per panel, which are these 64 for the default ``KernelSuite()``.
    """
    return QuadratureSpec(
        node_count=64,
        rel_tol=1e-8,
        abs_tol=1e-11,
        split_points=(1.0, 4.0, 16.0, 64.0, 256.0, k_max),
    )


def first_iterate(kind: SeriesKind, kern: KernelSuite) -> SpectralDensity:
    """Zeroth iterate E_0 = phi0 / T_2, with E_0(0) = kind.e0_at_zero, on the
    geometric grid of 5 n nodes, n = ``kern.spec.node_count``; raises
    GridTooCoarse when the grid does not resolve it."""
    grid = SpectralGrid.geometric(count=5 * kern.spec.node_count)
    values = kind.forcing(kern, grid.nodes) / kern.t_n(2, grid.nodes)
    density = SpectralDensity(grid, values, value_at_zero=kind.e0_at_zero)
    density.self_check()
    return density


def coefficient(kind: SeriesKind, kern: KernelSuite, e_prev: SpectralDensity) -> float:
    """c_n = kind.scale(int_0^oo T_1(k) E_{n-1}(k) dk): V_n = -(1/sqrt(pi)) times
    the integral, W_n = (2/pi) times it, by the density rule of ``e_prev``'s
    grid at ``kern.spec.node_count`` nodes per panel.

    This is exactly the residue-cancellation condition that keeps the next
    iterate finite at k = 0.
    """
    quad = replace(default_density_quad(e_prev.grid.k_max), node_count=kern.spec.node_count)
    return kind.scale(integrate_halfline(lambda k: kern.t_n(1, k) * e_prev(k), quad))


def apply_operator(kind: SeriesKind, kern: KernelSuite, e_prev: SpectralDensity) -> SpectralDensity:
    """E_n(k) = sign/(pi T_2(k)) int_0^oo S(k,k1) E_{n-1}(k1) dk1 at k = 0 and
    at every grid node, with the sign and the factors of S of ``kind``, by the
    same density rule as ``coefficient``.

    One ``integrate_halfline`` call with ``left = L`` covers every k: each
    round sums the k1 points into v_t = sum_j w_j m(k1_j) E_{n-1}(k1_j) A(k1_j, t)
    and sets all rows as L @ v, O((rows + points) N_t) work, not O(rows points N_t).
    Each row keeps its own node-doubling acceptance and tail.  Row 0 is k = 0,
    where S is regular and T_2(0) = 1/2, so it gives the value at zero directly.
    """
    k = np.concatenate(([0.0], e_prev.grid.nodes))
    left, weight = kind.factors(kern, k)

    def g(k1):
        pole = kern.pole(k1)
        pole *= (weight(k1) * e_prev(k1))[:, None]
        return pole.T

    quad = replace(default_density_quad(e_prev.grid.k_max), node_count=kern.spec.node_count)
    integrals = (2.0 / SQRT_PI) * integrate_halfline(g, quad, left=left)
    values = kind.sign * integrals / (math.pi * kern.t_n(2, k))
    return SpectralDensity(e_prev.grid, values[1:], values[0])


def _build_series(kind: SeriesKind, order, kern):
    """The Neumann loop: c_0 and E_0, then c_n and E_n from E_{n-1}."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    kern = kern or KernelSuite()
    densities = [first_iterate(kind, kern)]
    coeffs = [kind.c0]
    for _ in range(order):
        coeffs.append(coefficient(kind, kern, densities[-1]))
        densities.append(apply_operator(kind, kern, densities[-1]))
    return SeriesExpansion(kind.name, tuple(coeffs)), densities


def build_series_fwd(
    order: int, kern: KernelSuite | None = None
) -> tuple[SeriesExpansion, list[SpectralDensity]]:
    """Slip coefficients V_0..V_order and iterates E_0..E_order.

    V_0 = sqrt(pi)/2 exactly; V_n for n >= 1 comes from the previous iterate,
    which is then advanced by the integral operator.  The one resolution
    number is n = ``kern.spec.node_count`` of the t-rule (64 for the default
    ``KernelSuite()``): the k-grid has 5 n geometric nodes on [1e-3, 2000]
    and the density rule n nodes per panel, so
    ``KernelSuite(KernelSuite().spec.doubled())`` doubles all three.
    """
    return _build_series(FORWARD, order, kern)


def build_series_inv(
    order: int, kern: KernelSuite | None = None
) -> tuple[SeriesExpansion, list[SpectralDensity]]:
    """Gradient coefficients W_0..W_order and the inverse iterates E_0..E_order,
    at the resolution ``kern`` sets as in ``build_series_fwd``."""
    return _build_series(INVERSE, order, kern)

