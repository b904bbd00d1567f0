"""Shared fixtures: the series builds are expensive, so they are session-scoped."""
import pytest

from kramers import KernelSuite, SpectralGrid, build_series_fwd, build_series_inv


@pytest.fixture(scope="session")
def kern():
    return KernelSuite()


@pytest.fixture(scope="session")
def grid():
    """The k-grid of a default build."""
    return SpectralGrid.geometric()


@pytest.fixture(scope="session")
def forward3(kern):
    """(series, densities) for the order-3 forward build at default settings."""
    return build_series_fwd(3, kern)


@pytest.fixture(scope="session")
def inverse3(kern):
    return build_series_inv(3, kern)


@pytest.fixture(scope="session")
def forward3_dbl():
    """The order-3 build on the t-rule at twice the nodes per panel, which
    doubles the k-grid and the density rule of the build as well."""
    return build_series_fwd(3, KernelSuite(KernelSuite().spec.doubled()))


@pytest.fixture(scope="session")
def inverse3_dbl():
    return build_series_inv(3, KernelSuite(KernelSuite().spec.doubled()))
