"""Grids, sampled densities, series containers, problem configuration."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from kramers import build_series_fwd
from kramers.spectral import (
    GridTooCoarse,
    ProblemConfig,
    SeriesExpansion,
    SpectralDensity,
    SpectralGrid,
    weighted_sum,
)


class TestGrid:
    def test_geometric_shape(self):
        grid = SpectralGrid.geometric(count=100, k_min=1e-3, k_max=500.0)
        assert grid.nodes.size == 100
        assert grid.nodes[0] == pytest.approx(1e-3)
        assert grid.k_max == pytest.approx(500.0)
        ratios = grid.nodes[1:] / grid.nodes[:-1]
        assert np.allclose(ratios, ratios[0])

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
        ((_, p),) = lorentz.tails
        assert p == pytest.approx(-2.0, abs=0.1)
        k = 1e4
        assert lorentz(k) == pytest.approx(1.0 / (1.0 + k * k), rel=0.05)

    def test_far_tail_without_overflow(self, lorentz):
        """Far past k_max the value is the tail's, and 0.0 at k = inf; the end
        cubic used to be evaluated there too and overflowed from about 1e103."""
        ((c, p),) = lorentz.tails
        k = np.array([1e160, 1e300, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lorentz(k)
            assert lorentz(1e300) == got[1]
        assert got.tolist() == (c * (k / lorentz.grid.k_max) ** p).tolist()
        assert got[2] == 0.0

    def test_self_check_smooth(self, lorentz):
        lorentz.self_check()  # should not raise

    def test_self_check_noisy(self, grid):
        rng = np.random.default_rng(7)
        noisy = SpectralDensity(
            grid, rng.standard_normal(grid.nodes.size), value_at_zero=0.0
        )
        with pytest.raises(GridTooCoarse):
            noisy.self_check()

    def test_no_tail_where_samples_change_sign(self, grid):
        density = SpectralDensity(grid, np.cos(grid.nodes), value_at_zero=1.0)
        assert density.tails == ()
        assert density(np.array([2.0, 10.0]) * grid.k_max).tolist() == [0.0, 0.0]

    def test_even_in_k(self, iterates):
        """E_n(-k) used to extrapolate the first cubic piece: E_0(-0.5) was
        -0.2485 against E_0(0.5) = -0.3604."""
        k_max = iterates[0].grid.k_max
        k = np.concatenate((np.geomspace(1e-5, 1e7, 301), [0.0, 0.5, k_max]))
        for density in iterates:
            assert np.array_equal(density(-k), density(k))
            assert density(-0.5) == density(0.5)

    @pytest.mark.parametrize("k", [math.nan, np.array([0.5, math.nan])])
    def test_nan_k_rejected(self, lorentz, k):
        with pytest.raises(ValueError, match="NaN"):
            lorentz(k)


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


class TestWeightedSum:
    WEIGHTS = (1.0, 0.5, 0.25, 0.125)

    def test_keeps_grid(self, grid, lorentz):
        other = weighted_sum([lorentz], [2.0])
        assert other.grid is grid
        assert other(0.0) == 2.0

    def test_matches_sum_of_calls(self, iterates):
        """On the nodes, between them and past k_max the sum is the weighted
        sum of the iterates' own values, to 1e-15 relative at every point."""
        nodes = iterates[0].grid.nodes
        between = np.sqrt(nodes[1:] * nodes[:-1])
        past = np.geomspace(np.nextafter(nodes[-1], np.inf), 1e8, 301)
        for weights in (self.WEIGHTS, [3.0 * 0.7**n for n in range(4)]):
            total = weighted_sum(iterates, weights)
            for k in (np.concatenate(([0.0], nodes)), between, past):
                want = sum(w * d(k) for w, d in zip(weights, iterates))
                assert np.all(np.abs(total(k) - want) <= 1e-15 * np.abs(want))
            assert total(0.0) == total.value_at_zero

    def test_one_density_of_weight_one_is_itself(self, iterates):
        for density in iterates:
            alone = weighted_sum([density], [1.0])
            assert np.array_equal(alone._coef, density._coef)
            assert np.array_equal(alone.values, density.values)
            assert alone.value_at_zero == density.value_at_zero
            assert alone.tails == density.tails

    def test_rejects_mixed_grids(self, lorentz):
        other = SpectralGrid.geometric(count=64, k_max=100.0)
        with pytest.raises(ValueError, match="one grid"):
            weighted_sum([lorentz, SpectralDensity(other, np.ones(64), value_at_zero=1.0)],
                         [1.0, 1.0])

    @pytest.mark.parametrize("weights", [(), (1.0,), (1.0, 2.0, 3.0)])
    def test_rejects_mismatched_lengths(self, lorentz, weights):
        with pytest.raises(ValueError):
            weighted_sum([lorentz, lorentz], weights)

    def test_rejects_no_densities_and_non_finite_weights(self, lorentz):
        with pytest.raises(ValueError):
            weighted_sum([], [])
        with pytest.raises(ValueError, match="finite"):
            weighted_sum([lorentz], [math.nan])


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


class TestProblemConfig:
    def test_defaults(self):
        cfg = ProblemConfig()
        assert cfg.q == 1.0 and cfg.gradient == 1.0 and cfg.order == 3

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ProblemConfig)] == [
            "q", "gradient", "order"
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
        for bad in (None, "0.5"):
            with pytest.raises(ValueError):
                ProblemConfig(q=bad)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            ProblemConfig(order=13)

    def test_order_integer(self):
        """order=2.5 used to pass and fail later inside full_profile."""
        with pytest.raises(ValueError):
            ProblemConfig(order=2.5)
        assert ProblemConfig(order=np.int64(2)).order == 2
