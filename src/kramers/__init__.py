"""Neumann-series solver for the Kramers isothermal-slip problem.

Computes slip-coefficient and gradient series in powers of the
specular-diffuse accommodation coefficient, Knudsen-layer velocity profiles,
and wall distribution diagnostics for a rarefied gas over a plane wall.
"""

from .forward import (
    DiffuseLimitSingular,
    build_series_fwd,
    build_series_inv,
    default_density_quad,
    gradient,
    slip_velocity,
)
from .kernels import KernelSuite, UnsupportedOrder
from .profile import (
    EXACT_SLIP_DIFFUSE,
    EXACT_WALL_DIFFUSE,
    DistributionSlice,
    VelocityProfile,
    boundary_distribution,
    combined_density,
    full_profile,
    phi_n,
    velocity_correction,
    wall_velocity,
)
from .quadrature import (
    NonFiniteIntegrand,
    QuadratureSpec,
    TailDivergence,
    ToleranceNotMet,
    integrate_halfline,
)
from .spectral import (
    GridTooCoarse,
    ProblemConfig,
    SeriesExpansion,
    SpectralDensity,
    SpectralGrid,
    cosine_transform,
    weighted_sum,
)

__version__ = "0.1.0"
