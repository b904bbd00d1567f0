"""Inverse problem: recover the gradient from an imposed slip velocity."""
import math

import numpy as np
import pytest

from kramers import forward
from kramers.forward import (
    INVERSE,
    apply_operator,
    coefficient,
    default_density_quad,
    first_iterate,
    gradient,
    slip_velocity,
)
from kramers.kernels import SQRT_PI
from kramers.quadrature import integrate_halfline
from kramers.series import NumericalFailure
from kramers.spectral import SeriesExpansion, SpectralDensity


class TestZerothIterate:
    def test_value_at_zero(self, kern):
        e0 = first_iterate(INVERSE, kern)
        assert e0(0.0) == pytest.approx(-1.0 / SQRT_PI, abs=1e-14)

    def test_matches_ratio(self, kern):
        e0 = first_iterate(INVERSE, kern)
        for k in (0.02, 1.0, 10.0):
            assert e0(k) == pytest.approx(
                kern.phi0_inv(k) / kern.t_n(2, k), rel=1e-6, abs=1e-10
            )


class TestCoefficients:
    def test_w0_exact(self, inverse3):
        assert inverse3[0].coefficients[0] == INVERSE.c0 == 2.0 / SQRT_PI

    def test_sign_alternation(self, inverse3):
        w = inverse3[0].coefficients
        assert w[1] < 0 < w[2] and w[3] < 0

    def test_decay(self, inverse3):
        w = [abs(c) for c in inverse3[0].coefficients]
        assert w[3] < w[2] < w[1] < w[0]

    def test_linearity(self, kern, grid, inverse3):
        e0 = inverse3[1][0]
        scaled = SpectralDensity(grid, 4.0 * e0(grid.nodes), 4.0 * e0(0.0))
        assert coefficient(INVERSE, kern, scaled) == pytest.approx(
            4.0 * coefficient(INVERSE, kern, e0), rel=1e-9
        )


class TestOperator:
    def test_pole_cancellation(self, inverse3):
        for e_n in inverse3[1][1:]:
            assert e_n(1e-3) == pytest.approx(e_n(1e-2), rel=0.01)

    def test_batched_matches_per_node(self, kern, grid, inverse3):
        """The row-valued apply equals one scalar integral per k-value."""
        quad = default_density_quad(grid.k_max)
        e0, e1 = inverse3[1][0], inverse3[1][1]
        at_zero = integrate_halfline(lambda k1: kern.s_inv(0.0, k1) * e0(k1), quad) * (
            2.0 / math.pi
        )
        assert e1.value_at_zero == pytest.approx(at_zero, abs=1e-13)
        for i in np.linspace(0, grid.nodes.size - 1, 9).astype(int):
            k = grid.nodes[i]
            node = integrate_halfline(lambda k1: kern.s_inv(k, k1) * e0(k1), quad) / (
                math.pi * kern.t_n(2, k)
            )
            assert e1.values[i] == pytest.approx(node, abs=1e-13)

    def test_one_integral_per_apply(self, kern, inverse3, monkeypatch):
        """The separable operator integrates every k-value in one call."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return integrate_halfline(*args, **kwargs)

        monkeypatch.setattr(forward, "integrate_halfline", counted)
        apply_operator(INVERSE, kern, inverse3[1][0])
        assert len(calls) == 1

    def test_linearity(self, kern, grid, inverse3):
        e0 = inverse3[1][0]
        scaled = SpectralDensity(grid, 0.5 * e0(grid.nodes), 0.5 * e0(0.0))
        a = apply_operator(INVERSE, kern, scaled)
        b = inverse3[1][1]
        assert np.allclose(a(grid.nodes), 0.5 * b(grid.nodes), rtol=1e-8, atol=1e-12)


class TestGradient:
    def test_reference_partial_sums(self, inverse3):
        series = inverse3[0]
        for n, expected in enumerate((1.128379, 0.949460, 0.992543, 0.981987)):
            assert series.partial_sum(1.0, n) == pytest.approx(expected, abs=5e-4)

    def test_zero_at_q_zero(self, inverse3):
        assert gradient(inverse3[0], 0.0, 1.0) == 0.0

    def test_scales_with_slip(self, inverse3):
        assert gradient(inverse3[0], 0.6, 3.0) == pytest.approx(
            3.0 * gradient(inverse3[0], 0.6, 1.0), rel=1e-12
        )

    def test_reciprocity_with_forward(self, forward3, inverse3):
        v_sl = slip_velocity(forward3[0], 1.0, 1.0)
        assert gradient(inverse3[0], 1.0, v_sl) == pytest.approx(1.0, abs=1e-2)

    def test_exact_reciprocity(self, forward3, inverse3):
        """(sum V_n q^n)(sum W_n q^n) = 1 holds order by order:
        sum_i V_i W_{n-i} = delta_{n0}."""
        v, w = forward3[0].coefficients, inverse3[0].coefficients
        for n in range(4):
            product = sum(v[i] * w[n - i] for i in range(n + 1))
            assert product == pytest.approx(1.0 if n == 0 else 0.0, abs=1e-11)

    def test_exact_iterate_reciprocity(self, forward3, inverse3):
        """The inverse iterates are the Cauchy product of the W_n with the
        forward iterates, E_n^inv = sum_{i<=n} W_i E_{n-i}^fwd, at every node
        and at k = 0.  Measured at order 3 (relative to max |E_n^inv|):
        1.9e-15 through order 1, 4.2e-12 at order 2, 1.0e-11 at order 3, and
        1.3e-13 absolute at k = 0; the bounds are about 5 times these."""
        w, fwd, inv = inverse3[0].coefficients, forward3[1], inverse3[1]
        for n, rel_tol in enumerate((1e-14, 1e-14, 2e-11, 5e-11)):
            values = sum(w[i] * fwd[n - i].values for i in range(n + 1))
            at_zero = sum(w[i] * fwd[n - i].value_at_zero for i in range(n + 1))
            scale = np.max(np.abs(inv[n].values))
            assert np.max(np.abs(inv[n].values - values)) <= rel_tol * scale, n
            assert inv[n].value_at_zero == pytest.approx(at_zero, abs=1e-12), n

    def test_wrong_kind_rejected(self, forward3):
        with pytest.raises(ValueError):
            gradient(forward3[0], 1.0, 1.0)

    @pytest.mark.parametrize("q", [0.0, 0.5])
    @pytest.mark.parametrize("v_sl", [math.nan, math.inf, -math.inf])
    def test_non_finite_slip_rejected(self, inverse3, q, v_sl):
        """Also at q = 0, where the gradient is otherwise exactly zero."""
        with pytest.raises(ValueError, match="finite"):
            gradient(inverse3[0], q, v_sl)

    @pytest.mark.parametrize("v_sl, text", [(1.7e308, "inf"), (-1.7e308, "-inf")])
    def test_overflow_is_a_failure(self, v_sl, text):
        """Finite inputs whose gradient overflows raise the CLI's failure, not
        inf; at order 0 the sum is W_0 = 1.128 > 1."""
        with pytest.raises(NumericalFailure) as exc:
            gradient(SeriesExpansion("inverse", (INVERSE.c0,)), 1.0, v_sl)
        assert str(exc.value) == f"a result is {text}: the inputs overflow double precision"
