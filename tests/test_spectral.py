"""Grids, sampled densities, series containers, problem configuration."""
import dataclasses
import json
import math

import numpy as np
import pytest

from kramers import build_series_fwd
from kramers.spectral import (
    GridTooCoarse,
    ProblemConfig,
    SeriesExpansion,
    SpectralDensity,
    SpectralGrid,
    _stack,
)


class TestGrid:
    def test_geometric_shape(self):
        grid = SpectralGrid.geometric(count=100, k_min=1e-3, k_max=500.0)
        assert grid.nodes.size == 100
        assert grid.nodes[0] == pytest.approx(1e-3)
        assert grid.k_max == pytest.approx(500.0)
        ratios = grid.nodes[1:] / grid.nodes[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_doubled(self):
        grid = SpectralGrid.geometric(count=50)
        dbl = grid.doubled()
        assert dbl.nodes.size == 2 * grid.nodes.size
        assert dbl.k_max == pytest.approx(grid.k_max)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SpectralGrid(np.array([1.0, 0.5, 2.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpectralGrid(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [(0, np.nan), (5, np.nan), (10, np.inf)])
    def test_rejects_non_finite(self, bad):
        """A NaN node used to pass the ordering checks, and the density on
        that grid evaluated to NaN without an error."""
        index, value = bad
        nodes = np.geomspace(1e-3, 10.0, 11)
        nodes[index] = value
        with pytest.raises(ValueError):
            SpectralGrid(nodes)


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid.geometric(count=200, k_min=1e-3, k_max=100.0)


@pytest.fixture(scope="module")
def lorentz(grid):
    # smooth test density with known k^-2 tail
    return SpectralDensity(grid, 1.0 / (1.0 + grid.nodes**2), value_at_zero=1.0)


class TestDensity:
    def test_reproduces_samples(self, grid, lorentz):
        assert np.allclose(lorentz(grid.nodes), 1.0 / (1.0 + grid.nodes**2), atol=1e-14)

    def test_value_at_zero(self, lorentz):
        assert lorentz(0.0) == 1.0

    def test_interpolation_accuracy(self, grid, lorentz):
        k = np.geomspace(2e-3, 90.0, 333)
        assert np.allclose(lorentz(k), 1.0 / (1.0 + k * k), rtol=1e-4, atol=1e-8)

    def test_tail_extension(self, lorentz):
        assert lorentz.tail_exponent == pytest.approx(-2.0, abs=0.1)
        k = 1e4
        assert lorentz(k) == pytest.approx(1.0 / (1.0 + k * k), rel=0.05)

    def test_self_check_smooth(self, lorentz):
        lorentz.self_check()  # should not raise

    def test_self_check_noisy(self, grid):
        rng = np.random.default_rng(7)
        noisy = SpectralDensity(
            grid, rng.standard_normal(grid.nodes.size), value_at_zero=0.0
        )
        with pytest.raises(GridTooCoarse):
            noisy.self_check()

    def test_map_keeps_grid(self, grid, lorentz):
        other = lorentz.map(2.0 * lorentz(grid.nodes), value_at_zero=2.0)
        assert other.grid is grid
        assert other(0.0) == 2.0


@pytest.fixture(scope="module")
def iterates():
    """E_0..E_3 of the default forward build."""
    return build_series_fwd(3)[1]


class TestSpline:
    def test_reproduces_cubic(self):
        cubic = lambda k: 1.5 * k**3 - 2.0 * k**2 + 0.3 * k - 1.0
        grid = SpectralGrid(np.geomspace(1e-3, 3.0, 40))
        density = SpectralDensity(grid, cubic(grid.nodes), value_at_zero=cubic(0.0))
        k = np.linspace(0.0, 3.0, 1001)
        assert np.max(np.abs(density(k) - cubic(k))) <= 1e-13

    def test_matches_scipy_cubic_spline(self, iterates):
        from scipy.interpolate import CubicSpline

        e1 = iterates[1]
        knots = np.concatenate(([0.0], e1.grid.nodes))
        samples = np.concatenate(([e1.value_at_zero], e1.values))
        k = np.concatenate((np.linspace(0.0, 5.0, 2001), np.geomspace(1e-4, e1.grid.k_max, 3001)))
        scale = np.max(np.abs(samples))
        assert np.max(np.abs(e1(k) - CubicSpline(knots, samples)(k))) <= 1e-15 * scale


class TestStack:
    def test_rows_equal_single_calls(self, iterates):
        rows = _stack(iterates)
        k_max = iterates[0].grid.k_max
        k = np.concatenate(
            (np.geomspace(1e-5, 1e7, 997), [0.0, 1.0, k_max, np.nextafter(k_max, np.inf)])
        )
        for points in (k, k[:996].reshape(12, 83), 0.5, 3.0 * k_max):
            got = rows(points)
            assert got.shape == (len(iterates), *np.shape(points))
            assert np.array_equal(got, np.stack([np.asarray(d(points)) for d in iterates]))

    def test_rejects_mixed_grids(self, lorentz):
        other = SpectralGrid.geometric(count=64, k_max=100.0)
        with pytest.raises(ValueError):
            _stack([lorentz, SpectralDensity(other, np.ones(64), value_at_zero=1.0)])


class TestSeries:
    def test_partial_sum(self):
        s = SeriesExpansion("forward", (1.0, -0.5, 0.25))
        assert s.partial_sum(0.5) == pytest.approx(1.0 - 0.25 + 0.0625)
        assert s.partial_sum(0.5, 1) == pytest.approx(0.75)
        assert s.order == 2

    def test_partial_sum_rejects_negative_order(self):
        s = SeriesExpansion("forward", (1.0, 2.0, 4.0))
        assert s.partial_sum(1.0, 0) == 1.0
        for order in (-1, -2, -3):
            with pytest.raises(ValueError):
                s.partial_sum(1.0, order)

    def test_json_round_trip(self):
        s = SeriesExpansion("inverse", (1.128379, -0.178920, 0.043083))
        back = SeriesExpansion.from_json(s.to_json())
        assert back == s
        payload = json.loads(s.to_json())
        assert payload["kind"] == "inverse"


class TestProblemConfig:
    def test_defaults(self):
        cfg = ProblemConfig()
        assert cfg.q == 1.0 and cfg.gradient == 1.0 and cfg.order == 3 and cfg.quad is None

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ProblemConfig)] == [
            "q", "gradient", "order", "quad"
        ]

    @pytest.mark.parametrize("bad", [None, math.nan, math.inf, -math.inf])
    def test_gradient_finite(self, bad):
        with pytest.raises(ValueError):
            ProblemConfig(gradient=bad)

    def test_q_range(self):
        with pytest.raises(ValueError):
            ProblemConfig(q=1.5)
        with pytest.raises(ValueError):
            ProblemConfig(q=-0.1)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            ProblemConfig(order=13)

    def test_order_integer(self):
        """order=2.5 used to pass and fail later inside full_profile."""
        with pytest.raises(ValueError):
            ProblemConfig(order=2.5)
        assert ProblemConfig(order=np.int64(2)).order == 2
