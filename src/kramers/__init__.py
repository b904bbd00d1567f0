"""Neumann-series solver for the Kramers isothermal-slip problem.

Computes slip-coefficient and gradient series in powers of the
specular-diffuse accommodation coefficient, Knudsen-layer velocity profiles,
and wall distribution diagnostics for a rarefied gas over a plane wall.

``import kramers`` loads no module of the package: each name below is
read from its module when used, importing the module on first use, so
``kramers.X is kramers.<module>.X``.  ``kramers.series`` (the series
containers, ``ProblemConfig``, ``slip_velocity``, ``gradient`` and the
``NumericalFailure`` exceptions) and ``kramers.cli`` import no numpy; the
CLI loads it only for a command that builds an iterate, and every other
module imports it.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "forward": ("build_series_fwd", "build_series_inv", "default_density_quad"),
    "kernels": ("KernelSuite", "UnsupportedOrder"),
    "profile": ("EXACT_SLIP_DIFFUSE", "EXACT_WALL_DIFFUSE", "DistributionSlice",
                "VelocityProfile", "boundary_distribution", "combined_density", "full_profile",
                "phi_n", "velocity_correction", "wall_velocity"),
    "quadrature": ("NonFiniteIntegrand", "QuadratureSpec", "TailDivergence", "ToleranceNotMet",
                   "integrate_halfline"),
    "series": ("DiffuseLimitSingular", "NumericalFailure", "ProblemConfig", "SeriesExpansion",
               "gradient", "slip_velocity"),
    "spectral": ("GridTooCoarse", "SpectralDensity", "SpectralGrid", "cosine_transform",
                 "weighted_sum"),
}
# the name -> module table that __getattr__ resolves
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # read from the module on every use, not bound here: a name patched in its
    # module (a test's monkeypatch, a tracer) reads the same through the package
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
