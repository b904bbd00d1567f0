"""Forward problem: slip-coefficient expansion driven by an imposed gradient."""
import math

import numpy as np
import pytest

from kramers import forward
from kramers.forward import (
    FORWARD,
    DiffuseLimitSingular,
    apply_operator,
    coefficient,
    first_iterate,
    slip_velocity,
)
from kramers.kernels import SQRT_PI
from kramers.quadrature import integrate_halfline
from kramers.series import NumericalFailure
from kramers.spectral import SeriesExpansion, SpectralDensity

# mpmath (30 digits) from the closed-form double integral for the first
# correction coefficient
V1_REFERENCE = 0.140523501325592


class TestZerothIterate:
    def test_value_at_zero(self, kern):
        e0 = first_iterate(FORWARD, kern)
        assert e0(0.0) == -0.5

    def test_matches_ratio(self, kern):
        e0 = first_iterate(FORWARD, kern)
        for k in (0.01, 0.5, 3.0, 40.0):
            assert e0(k) == pytest.approx(
                kern.phi0_fwd(k) / kern.t_n(2, k), rel=1e-6, abs=1e-10
            )

    def test_negative_everywhere(self, kern):
        e0 = first_iterate(FORWARD, kern)
        assert np.all(e0(e0.grid.nodes) < 0)

    def test_grid_follows_the_t_rule(self, forward3, forward3_dbl):
        """n t-nodes per panel give a build 5 n geometric k-nodes on [1e-3, 2000]."""
        assert np.array_equal(forward3[1][0].grid.nodes, np.geomspace(1e-3, 2000.0, 320))
        assert np.array_equal(forward3_dbl[1][0].grid.nodes, np.geomspace(1e-3, 2000.0, 640))

    def test_tail_exponent(self, forward3):
        # E_0 decays like k^-2 with a logarithmic correction, so the fitted
        # power over the last decade sits noticeably above -2
        ((_, p),) = forward3[1][0].tails
        assert p <= -1.5


class TestCoefficients:
    def test_v0_exact(self, forward3):
        series, _ = forward3
        assert series.coefficients[0] == FORWARD.c0 == 0.5 * SQRT_PI

    def test_v1_high_precision(self, forward3):
        assert forward3[0].coefficients[1] == pytest.approx(V1_REFERENCE, abs=1e-6)

    def test_sign_pattern(self, forward3):
        v = forward3[0].coefficients
        assert v[0] > 0 and v[1] > 0 and v[2] < 0 and v[3] > 0

    def test_decay(self, forward3):
        v = [abs(c) for c in forward3[0].coefficients]
        assert v[3] < v[2] < v[1] < v[0]

    def test_linearity(self, kern, grid, forward3):
        e0 = forward3[1][0]
        scaled = SpectralDensity(grid, 3.0 * e0(grid.nodes), 3.0 * e0(0.0))
        assert coefficient(FORWARD, kern, scaled) == pytest.approx(
            3.0 * coefficient(FORWARD, kern, e0), rel=1e-9
        )


class TestOperator:
    def test_pole_cancellation(self, forward3):
        # no residual 1/k^2 blow-up: the density is flat near k = 0
        for e_n in forward3[1][1:]:
            assert e_n(1e-3) == pytest.approx(e_n(1e-2), rel=0.01)

    def test_raw_route_equivalence(self, kern, grid, forward3):
        """The S-kernel step must equal the raw resolvent route, where the
        coefficient condition is applied explicitly before dividing by L(k)."""
        quad = (grid.k_max, 64)  # k_max and nodes per panel of the density rule
        e0 = forward3[1][0]
        e1 = forward3[1][1]
        v1 = coefficient(FORWARD, kern, e0)
        rng = np.random.default_rng(99)
        for k in rng.uniform(0.05, 8.0, 10):
            raw = -v1 * kern.t_n(1, k) - integrate_halfline(
                lambda k1: kern.j_kernel(k, k1) * e0(k1), *quad
            ) / math.pi
            assert raw / kern.big_l(k) == pytest.approx(e1(k), abs=1e-7)

    def test_batched_matches_per_node(self, kern, grid, forward3):
        """The row-valued apply equals one scalar integral per k-value."""
        quad = (grid.k_max, 64)  # k_max and nodes per panel of the density rule
        e0, e1 = forward3[1][0], forward3[1][1]
        at_zero = -integrate_halfline(lambda k1: kern.s_fwd(0.0, k1) * e0(k1), *quad) * (
            2.0 / math.pi
        )
        assert e1.value_at_zero == pytest.approx(at_zero, abs=1e-13)
        for i in np.linspace(0, grid.nodes.size - 1, 9).astype(int):
            k = grid.nodes[i]
            node = -integrate_halfline(lambda k1: kern.s_fwd(k, k1) * e0(k1), *quad) / (
                math.pi * kern.t_n(2, k)
            )
            assert e1.values[i] == pytest.approx(node, abs=1e-13)

    def test_one_integral_per_apply(self, kern, forward3, monkeypatch):
        """The separable operator integrates every k-value in one call."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate_halfline(*args, **kwargs)

        monkeypatch.setattr(forward, "integrate_halfline", counted)
        apply_operator(FORWARD, kern, forward3[1][0])
        assert len(calls) == 1

    def test_linearity(self, kern, grid, forward3):
        e0 = forward3[1][0]
        scaled = SpectralDensity(grid, -2.0 * e0(grid.nodes), -2.0 * e0(0.0))
        a = apply_operator(FORWARD, kern, scaled)
        b = forward3[1][1]
        assert np.allclose(a(grid.nodes), -2.0 * b(grid.nodes), rtol=1e-8, atol=1e-12)


class TestSlipVelocity:
    def test_reference_partial_sums(self, forward3):
        series = forward3[0]
        assert slip_velocity(SeriesExpansion("forward", series.coefficients[:1]), 1.0, 1.0) \
            == pytest.approx(0.886227, abs=3e-4)
        assert slip_velocity(series, 1.0, 1.0) == pytest.approx(1.016287, abs=3e-4)

    def test_scales_with_gradient(self, forward3):
        series = forward3[0]
        assert slip_velocity(series, 0.7, 2.5) == pytest.approx(
            2.5 * slip_velocity(series, 0.7, 1.0), rel=1e-12
        )

    def test_diffuse_limit_singular(self, forward3):
        with pytest.raises(DiffuseLimitSingular):
            slip_velocity(forward3[0], 0.0, 1.0)

    def test_q_out_of_range(self, forward3):
        with pytest.raises(ValueError):
            slip_velocity(forward3[0], 1.2, 1.0)

    def test_monotone_in_q(self, forward3):
        # more specular reflection means more slip
        qs = np.linspace(0.1, 1.0, 10)
        vals = [slip_velocity(forward3[0], q, 1.0) for q in qs]
        assert np.all(np.diff(vals) < 0)

    def test_wrong_kind_rejected(self, inverse3):
        with pytest.raises(ValueError):
            slip_velocity(inverse3[0], 1.0, 1.0)

    @pytest.mark.parametrize("g_v", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_rejected(self, forward3, g_v):
        with pytest.raises(ValueError, match="finite"):
            slip_velocity(forward3[0], 0.5, g_v)

    @pytest.mark.parametrize("q, g_v, text", [(5e-324, 1.0, "inf"), (1e-10, -1e308, "-inf")])
    def test_overflow_is_a_failure(self, forward3, q, g_v, text):
        """Finite inputs whose slip overflows raise the CLI's failure, not inf."""
        with pytest.raises(NumericalFailure) as exc:
            slip_velocity(forward3[0], q, g_v)
        assert str(exc.value) == f"a result is {text}: the inputs overflow double precision"
