"""Velocity profiles, wall values, and the boundary distribution."""
import math
from dataclasses import replace

import numpy as np
import pytest

from kramers.forward import default_density_quad, slip_velocity
from kramers.profile import (
    EXACT_SLIP_DIFFUSE,
    EXACT_WALL_DIFFUSE,
    boundary_distribution,
    combined_density,
    full_profile,
    phi_n,
    velocity_correction,
    wall_velocity,
)
from kramers.quadrature import integrate_halfline
from kramers.spectral import ProblemConfig


@pytest.fixture(scope="module")
def profile_q1(forward3, kern):
    config = ProblemConfig(q=1.0, gradient=1.0, order=3)
    x = np.arange(0.0, 30.5, 0.5)
    return full_profile(config, x, kern, *forward3)


class TestCorrection:
    def test_negative_at_wall(self, forward3):
        assert velocity_correction(forward3[1], 1.0, 1.0, 0.0) < 0

    def test_monotone_decay(self, profile_q1):
        mags = np.abs(profile_q1.correction[profile_q1.x_nodes >= 2.0])
        assert np.all(np.diff(mags) < 0)

    def test_decay_ratio(self, forward3):
        u0 = velocity_correction(forward3[1], 1.0, 1.0, 0.0)
        u20 = velocity_correction(forward3[1], 1.0, 1.0, 20.0)
        assert abs(u20) < 1e-3 * abs(u0)

    def test_x_zero_consistency(self, forward3, grid):
        """At x = 0 the cosine transform degenerates to the plain integral."""
        quad = default_density_quad(grid.k_max)
        direct = sum(
            (1.0 / math.pi) * integrate_halfline(e_n, quad) for e_n in forward3[1]
        )
        assert velocity_correction(forward3[1], 1.0, 1.0, 0.0) == pytest.approx(
            direct, abs=1e-8
        )

    def test_scales_with_gradient(self, forward3):
        a = velocity_correction(forward3[1], 0.5, 2.0, 1.0)
        b = velocity_correction(forward3[1], 0.5, 1.0, 1.0)
        assert a == pytest.approx(2.0 * b, rel=1e-12)


class TestBatched:
    def test_profile_matches_scalar_corrections(self, profile_q1, forward3):
        per_x = [velocity_correction(forward3[1], 1.0, 1.0, float(x)) for x in profile_q1.x_nodes]
        assert np.max(np.abs(profile_q1.correction - per_x)) <= 1e-15

    def test_array_x_keeps_shape(self, forward3):
        x = np.array([[0.0, 0.4], [1.0, 5.0]])
        got = velocity_correction(forward3[1], 0.5, 1.0, x)
        assert got.shape == x.shape
        assert got[1, 0] == pytest.approx(
            velocity_correction(forward3[1], 0.5, 1.0, 1.0), rel=1e-15, abs=0.0
        )

    def test_distribution_matches_scalar_integrals(self, forward3):
        density = combined_density(forward3[1], 0.7, 1.0)
        mu = np.array([0.0, 0.1, 0.5, 1.0, 3.0])
        got = boundary_distribution(density, mu).values
        quad = default_density_quad()
        per_mu = [
            integrate_halfline(lambda k: density(k) / (1.0 + k * k * m * m), quad) / math.pi
            for m in mu
        ]
        assert got.shape == mu.shape
        assert np.max(np.abs(got - per_mu)) <= 1e-15


class TestProfile:
    def test_asymptote_fit(self, profile_q1, forward3):
        """Far from the wall, U(x) is the straight line V_sl + g_v x."""
        sel = profile_q1.x_nodes >= 15.0
        slope, intercept = np.polyfit(
            profile_q1.x_nodes[sel], profile_q1.total[sel], 1
        )
        assert slope == pytest.approx(1.0, abs=1e-3)
        assert intercept == pytest.approx(slip_velocity(forward3[0], 1.0, 1.0), abs=1e-3)

    def test_total_is_sum(self, profile_q1):
        assert np.allclose(
            profile_q1.total, profile_q1.asymptote + profile_q1.correction, atol=1e-14
        )

    def test_csv_schema(self, profile_q1):
        text = profile_q1.to_csv()
        lines = text.split("\n")
        assert lines[0] == "x,U_total,U_asymptote,U_correction"
        assert "\r" not in text
        assert len(lines[1].split(",")) == 4

    def test_csv_deterministic(self, profile_q1):
        assert profile_q1.to_csv() == profile_q1.to_csv()


class TestWall:
    def test_diffuse_partial_sums(self, forward3, kern):
        for order, expected in ((0, 0.674744), (1, 0.710319), (2, 0.706802)):
            got = EXACT_SLIP_DIFFUSE + velocity_correction(
                forward3[1][: order + 1], 1.0, 1.0, 0.0
            )
            assert got == pytest.approx(expected, abs=1e-3)

    def test_near_exact_benchmark(self, forward3, kern):
        config = ProblemConfig(q=1.0, gradient=1.0, order=3)
        got = wall_velocity(config, kern, *forward3)
        assert got == pytest.approx(EXACT_WALL_DIFFUSE, abs=1e-3)
        # at q = 1 the slip in U(0) is the exact benchmark, not the series
        parts = EXACT_SLIP_DIFFUSE + velocity_correction(forward3[1], 1.0, 1.0, 0.0)
        assert got == pytest.approx(parts, rel=0.0, abs=1e-12)

    def test_series_slip_mode(self, forward3, kern):
        """Off the diffuse wall U(0) takes the truncated series slip, so it
        is the x = 0 value of the profile."""
        config = ProblemConfig(q=0.5, gradient=1.0, order=3)
        got = wall_velocity(config, kern, *forward3)
        profile = full_profile(config, [0.0], kern, *forward3)
        assert got == pytest.approx(profile.total[0], rel=0.0, abs=1e-12)
        parts = slip_velocity(forward3[0], 0.5, 1.0) + velocity_correction(
            forward3[1], 0.5, 1.0, 0.0
        )
        assert got == pytest.approx(parts, rel=0.0, abs=1e-12)


class TestQuadratureSettings:
    def test_config_quad_reaches_transform(self, forward3, kern, monkeypatch):
        """config.quad (the CLI's --nodes/--tol) sets the cosine transform
        of full_profile and wall_velocity, as it sets the series build."""
        seen = []

        def recording(densities, q, g_v, x, quad=None):
            seen.append(quad)
            return velocity_correction(densities, q, g_v, x, quad)

        monkeypatch.setattr("kramers.profile.velocity_correction", recording)
        custom = replace(default_density_quad(), rel_tol=1e-9)
        config = ProblemConfig(q=1.0, gradient=1.0, order=3, quad=custom)
        full_profile(config, [0.0, 2.0], kern, *forward3)
        wall_velocity(config, kern, *forward3)
        # one call for all x of the profile, one for the wall value
        assert seen == [custom, custom]

        seen.clear()
        default = ProblemConfig(q=1.0, gradient=1.0, order=3)
        full_profile(default, [0.0], kern, *forward3)
        wall_velocity(default, kern, *forward3)
        assert seen == [default_density_quad(forward3[1][0].grid.k_max), None]


class TestBoundaryDistribution:
    def test_even_in_mu(self, forward3):
        density = combined_density(forward3[1], 1.0, 1.0)
        mu = np.array([0.25, 1.0, 2.0])
        plus = boundary_distribution(density, mu)
        minus = boundary_distribution(density, -mu)
        assert np.allclose(plus.values, minus.values, rtol=1e-10)

    def test_combined_density_prefactor(self, forward3):
        q, g_v = 0.5, 2.0
        density = combined_density(forward3[1], q, g_v)
        manual = 2.0 * g_v * (2.0 - q) * sum(
            q**n * e_n(1.3) for n, e_n in enumerate(forward3[1])
        )
        assert density(1.3) == pytest.approx(manual, rel=1e-12)


class TestSpectralPhase:
    def test_real_at_k_zero(self, forward3):
        val = phi_n(0, 0.0, 0.7, forward3[0], forward3[1])
        assert val.imag == pytest.approx(0.0, abs=1e-14)

    def test_modulus_identity(self, forward3, kern):
        k, mu = 1.0, 0.5
        val = phi_n(0, k, mu, forward3[0], forward3[1])
        lhs = abs(1.0 + 1j * k * mu) ** 2 * abs(val) ** 2
        e0 = forward3[1][0]
        v0 = forward3[0].coefficients[0]
        rhs = abs(e0(k) + mu * mu - v0 * abs(mu)) ** 2
        assert lhs == pytest.approx(rhs, abs=1e-12)
