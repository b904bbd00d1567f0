"""Quadrature rules against closed forms and brute-force Riemann/Simpson sums."""
import math

import numpy as np
import pytest

from kramers import quadrature
from kramers.quadrature import (
    NonFiniteIntegrand,
    QuadratureSpec,
    TailDivergence,
    ToleranceNotMet,
    _tail_estimate,
    gauss_weighted_nodes,
    integrate_fourier_cos,
    integrate_halfline,
)
from kramers.forward import default_density_quad

SQRT_PI = math.sqrt(math.pi)

WEIGHTED = QuadratureSpec(
    node_count=64,
    rel_tol=1e-12,
    abs_tol=1e-14,
    split_points=(1.0 / 64, 1.0 / 16, 0.25, 1.0, 4.0),
)
HALFLINE = QuadratureSpec(node_count=64, rel_tol=1e-10, abs_tol=1e-13)

# mpmath, 30 digits: integral_0^inf exp(-t^2) t/(1+t^2) dt
I_T_OVER_1PT2 = 0.298173681161597


def weighted_integral(f, spec=WEIGHTED):
    """int_0^oo exp(-t^2) f(t) dt on the fixed rule of the kernel evaluators."""
    t, w = gauss_weighted_nodes(spec)
    return w @ f(t)


class TestGaussWeighted:
    def test_constant(self):
        assert weighted_integral(np.ones_like) == pytest.approx(SQRT_PI / 2, abs=1e-13)

    def test_t_squared(self):
        assert weighted_integral(lambda t: t * t) == pytest.approx(SQRT_PI / 4, abs=1e-13)

    def test_rational_moment(self):
        got = weighted_integral(lambda t: t / (1.0 + t * t))
        assert got == pytest.approx(I_T_OVER_1PT2, abs=1e-13)

    def test_node_doubling_stable(self):
        f = lambda t: t / (1.0 + t * t)
        a = weighted_integral(f)
        b = weighted_integral(f, WEIGHTED.doubled())
        assert abs(a - b) <= 10 * WEIGHTED.rel_tol * abs(a) + WEIGHTED.abs_tol


class TestHalfline:
    def test_lorentzian(self):
        got = integrate_halfline(lambda k: 1.0 / (1.0 + k * k), HALFLINE)
        assert got == pytest.approx(math.pi / 2, abs=1e-9)

    def test_lorentzian_squared(self):
        got = integrate_halfline(lambda k: 1.0 / (1.0 + k * k) ** 2, HALFLINE)
        assert got == pytest.approx(math.pi / 4, abs=1e-9)

    def test_exponential(self):
        got = integrate_halfline(lambda k: np.exp(-k), HALFLINE)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_tail_divergence_detected(self):
        with pytest.raises(TailDivergence):
            integrate_halfline(lambda k: 1.0 / (1.0 + k), HALFLINE)

    def test_nonfinite_integrand(self):
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrand):
            integrate_halfline(lambda k: np.sqrt(k - 100.0), HALFLINE)

    def test_small_value_large_tail_kept(self):
        """|g(b)| = 6e-12 is below abs_tol at b = 1.28e5, but the fitted tail
        b |g(b)| / (p - 1) = 7.8e-7 is not, so it counts."""
        got = integrate_halfline(lambda k: 0.1 / (1.0 + k) ** 2, default_density_quad())
        assert got == pytest.approx(0.1, abs=1e-9)

    def test_tail_compared_with_abs_tol(self):
        """The fitted tail, not the last value, decides whether it is dropped."""
        spec = default_density_quad()
        a, b = 3.2e4, 1.28e5
        # fitted tails 7.8e-13 and 7.8e-11 around abs_tol = 1e-11
        assert _tail_estimate(lambda k: 1e-7 / (1.0 + k) ** 2, a, b, spec) == 0.0
        kept = _tail_estimate(lambda k: 1e-5 / (1.0 + k) ** 2, a, b, spec)
        assert kept == pytest.approx(1e-5 / b, rel=1e-4)

    def test_linearity(self):
        rng = np.random.default_rng(1234)
        f = lambda k: 1.0 / (1.0 + k * k)
        h = lambda k: np.exp(-k)
        for _ in range(5):
            a, b = rng.uniform(-10, 10, size=2)
            combo = integrate_halfline(lambda k: a * f(k) + b * h(k), HALFLINE)
            parts = a * integrate_halfline(f, HALFLINE) + b * integrate_halfline(h, HALFLINE)
            assert combo == pytest.approx(parts, abs=1e-8 * (1 + abs(a) + abs(b)))


# integrands for the row-valued tests: smooth ones accepted at the first
# doubling, two peaks accepted at the second and the third, and a row whose tail changes sign
# between the two fit points of the HALFLINE extension panels
ROWS = (
    lambda k: np.exp(-k),
    lambda k: 1.0 / (1.0 + k * k),
    lambda k: 1.0 / (1.0 + (5.0 * (k - 2.3)) ** 2),
    lambda k: 1.0 / (1.0 + (10.0 * (k - 2.3)) ** 2),
    lambda k: (1.0 - k / 2000.0) / (1.0 + k * k),
)


def _stacked(rows):
    return lambda k: np.stack([g(k) for g in rows])


class TestRowValued:
    def test_matches_scalar_calls(self):
        got = integrate_halfline(_stacked(ROWS), HALFLINE)
        assert got.shape == (len(ROWS),)
        calls = []
        for i, g in enumerate(ROWS):
            count = [0]

            def counted(k, g=g, count=count):
                count[0] += 1
                return g(k)

            alone = integrate_halfline(counted, HALFLINE)
            assert got[i] == pytest.approx(alone, rel=1e-15, abs=0.0)
            calls.append(count[0])
        # one call per node-doubling round plus one for the tail fit
        assert sorted(set(calls)) == [3, 4, 5]

    def test_sign_change_row_has_zero_tail(self):
        last = HALFLINE.split_points[-1]
        a, b = 16.0 * last, 64.0 * last
        g = ROWS[-1]
        assert g(a) > 0 > g(b)
        tails = _tail_estimate(_stacked(ROWS), a, b, HALFLINE)
        assert tails[-1] == 0.0
        alone = _tail_estimate(ROWS[1], a, b, HALFLINE)
        assert tails[1] == pytest.approx(alone, rel=1e-15, abs=0.0)
        assert tails[1] > 0

    def test_scalar_result_is_float(self):
        assert type(integrate_halfline(ROWS[1], HALFLINE)) is float

    def test_single_nonfinite_row(self):
        rows = (ROWS[1], lambda k: np.sqrt(k - 100.0))
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrand):
            integrate_halfline(_stacked(rows), HALFLINE)

    def test_single_divergent_row(self):
        rows = (ROWS[1], lambda k: 1.0 / (1.0 + k))
        with pytest.raises(TailDivergence):
            integrate_halfline(_stacked(rows), HALFLINE)


# a left matrix with the ROWS as factor values: its rows are accepted at the
# first, second and third doubling (the smooth factors, then each peak), and
# the tail of its last row changes sign
LEFT = np.array([
    [1.0, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.3, 1.0, 0.0, 0.0],
    [0.2, 0.0, 0.0, 1.0, 0.0],
    [0.1, 0.0, 0.0, 0.0, 1.0],
])


class TestLeftMatrix:
    def test_matches_rows_of_the_product(self):
        got = integrate_halfline(_stacked(ROWS), HALFLINE, left=LEFT)
        assert got.shape == (len(LEFT),)
        product = integrate_halfline(lambda k: LEFT @ _stacked(ROWS)(k), HALFLINE)
        calls = []
        for i, row in enumerate(LEFT):
            assert got[i] == pytest.approx(product[i], rel=1e-15, abs=0.0)
            count = [0]

            def counted(k, row=row, count=count):
                count[0] += 1
                return row @ _stacked(ROWS)(k)

            alone = integrate_halfline(counted, HALFLINE)
            assert got[i] == pytest.approx(alone, rel=1e-15, abs=0.0)
            calls.append(count[0])
        # one call per node-doubling round plus one for the tail fit
        assert sorted(set(calls)) == [3, 4, 5]

    def test_sign_change_row_has_zero_tail(self):
        last = HALFLINE.split_points[-1]
        a, b = 16.0 * last, 64.0 * last
        row = LEFT[-1] @ _stacked(ROWS)(np.array([a, b]))
        assert row[0] > 0 > row[1]
        tails = _tail_estimate(_stacked(ROWS), a, b, HALFLINE, left=LEFT)
        assert tails[-1] == 0.0
        product = _tail_estimate(lambda k: LEFT @ _stacked(ROWS)(k), a, b, HALFLINE)
        assert tails == pytest.approx(product, rel=1e-15, abs=0.0)
        assert np.all(tails[:-1] > 0)

    def test_single_nonfinite_row(self):
        factors = _stacked((ROWS[1], lambda k: np.sqrt(k - 100.0)))
        left = np.array([[1.0, 0.0], [0.5, 1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrand):
            integrate_halfline(factors, HALFLINE, left=left)

    def test_single_divergent_row(self):
        factors = _stacked((ROWS[1], lambda k: 1.0 / (1.0 + k)))
        assert integrate_halfline(factors, HALFLINE, left=np.array([[1.0, 0.0]]))[0] > 0
        with pytest.raises(TailDivergence):
            integrate_halfline(factors, HALFLINE, left=np.array([[1.0, 0.0], [0.5, 1.0]]))


# x = 0, one x below 0.5 (head panels to the last split point) and several
# above; at x = 1 the first row stops at half-period panel 8 on a negligible
# panel and the second at panel 41 on the averaged sums
FOURIER_X = np.array([0.0, 0.3, 0.5, 1.0, 3.0, 7.5])
FOURIER_ROWS = (lambda k: np.exp(-k), lambda k: 1.0 / (1.0 + k * k))


class TestFourierCos:
    def test_batched_matches_scalar_calls(self):
        got = integrate_fourier_cos(_stacked(FOURIER_ROWS), FOURIER_X, HALFLINE)
        assert got.shape == (len(FOURIER_ROWS), FOURIER_X.size)
        for i, g in enumerate(FOURIER_ROWS):
            for j, x in enumerate(FOURIER_X):
                alone = integrate_fourier_cos(g, float(x), HALFLINE)
                assert got[i, j] == pytest.approx(alone, rel=1e-15, abs=0.0)
        one_row = integrate_fourier_cos(FOURIER_ROWS[1], FOURIER_X, HALFLINE)
        assert one_row == pytest.approx(got[1], rel=1e-15, abs=0.0)

    def test_scalar_result_is_float(self):
        assert type(integrate_fourier_cos(FOURIER_ROWS[1], 1.0, HALFLINE)) is float
        assert type(integrate_fourier_cos(FOURIER_ROWS[1], 0.0, HALFLINE)) is float

    def test_negative_or_nan_x_rejected(self):
        with pytest.raises(ValueError):
            integrate_fourier_cos(FOURIER_ROWS[0], -1.0, HALFLINE)
        with pytest.raises(ValueError):
            integrate_fourier_cos(_stacked(FOURIER_ROWS), np.array([1.0, -0.5]), HALFLINE)
        with pytest.raises(ValueError):
            integrate_fourier_cos(FOURIER_ROWS[0], np.array([1.0, np.nan]), HALFLINE)

    def test_single_unconverged_row(self, monkeypatch):
        # the first row stops at panel 8 and the second would need 41
        monkeypatch.setattr(quadrature, "_MAX_OSC_PANELS", 12)
        assert integrate_fourier_cos(FOURIER_ROWS[0], 1.0, HALFLINE) > 0
        with pytest.raises(ToleranceNotMet):
            integrate_fourier_cos(_stacked(FOURIER_ROWS), np.array([1.0]), HALFLINE)

    def test_exponential_pair(self):
        # int_0^inf cos(kx) e^{-k} dk = 1/(1+x^2)
        for x in (0.5, 1.0, 3.0):
            got = integrate_fourier_cos(lambda k: np.exp(-k), x, HALFLINE)
            assert got == pytest.approx(1.0 / (1.0 + x * x), abs=1e-8)

    def test_lorentzian_pair(self):
        got = integrate_fourier_cos(lambda k: 1.0 / (1.0 + k * k), 1.0, HALFLINE)
        assert got == pytest.approx(0.5 * math.pi * math.exp(-1.0), abs=1e-8)

    def test_x_zero_matches_halfline(self):
        f = lambda k: 1.0 / (1.0 + k * k) ** 2
        a = integrate_fourier_cos(f, 0.0, HALFLINE)
        b = integrate_halfline(f, HALFLINE)
        assert abs(a - b) <= 2 * (HALFLINE.abs_tol + HALFLINE.rel_tol * abs(b))

    def test_density_vs_riemann_oracle(self, forward3):
        """Oscillatory transform of a sampled density against a midpoint
        Riemann sum with 1e6 panels.  The Riemann rule's own discretization
        error floors the comparison near 1e-6."""
        e0 = forward3[1][0]
        x = 2.0
        got = integrate_fourier_cos(e0, x, HALFLINE)
        edges = np.linspace(0.0, 4000.0, 1_000_001)
        mid = 0.5 * (edges[:-1] + edges[1:])
        riemann = float(np.sum(np.cos(mid * x) * e0(mid)) * (edges[1] - edges[0]))
        assert got == pytest.approx(riemann, abs=1e-6)


# mpmath, 40 digits: (index, node, weight) of the n-point rule on [-1, 1],
# nodes ascending; Newton's method on the three-term recurrence from the
# Chebyshev-like guesses cos(pi (4k - 1) / (4n + 2))
GAUSS_LEGENDRE_MPMATH = {
    8: (
        (4, 0.1834346424956498, 0.362683783378362),
        (5, 0.525532409916329, 0.31370664587788727),
        (6, 0.7966664774136267, 0.22238103445337448),
        (7, 0.9602898564975363, 0.10122853629037626),
    ),
    64: (
        (32, 0.024350292663424433, 0.048690957009139724),
        (40, 0.4022701579639916, 0.044590558163756566),
        (62, 0.9963401167719553, 0.004147033260562468),
        (63, 0.9993050417357722, 0.001783280721696433),
    ),
    512: (
        (256, 0.003064962185159396, 0.006129905175405786),
        (320, 0.3851595738184011, 0.0056570090274452745),
        (510, 0.9999419946068456, 6.57657316592402e-05),
        (511, 0.9999889909843819, 2.825263737393469e-05),
    ),
}


class TestGaussLegendre:
    @pytest.mark.parametrize("n", sorted(GAUSS_LEGENDRE_MPMATH))
    def test_frozen_mpmath_values(self, n):
        x, w = quadrature._gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        rel = 1e-13 if n <= 64 else 1e-11
        for i, node, weight in GAUSS_LEGENDRE_MPMATH[n]:
            assert x[i] == pytest.approx(node, rel=0.0, abs=4e-16)
            assert w[i] == pytest.approx(weight, rel=rel, abs=0.0)

    @pytest.mark.parametrize("n", [8, 9, 33, 64])
    def test_exact_to_degree_2n_minus_1(self, n):
        x, w = quadrature._gauss_legendre(n)
        for degree in range(2 * n):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert w @ x**degree == pytest.approx(exact, rel=1e-14, abs=1e-15)

    def test_odd_rule_has_zero_node(self):
        x, _ = quadrature._gauss_legendre(9)
        assert x[4] == 0.0


class TestSpecValidation:
    def test_bad_node_count(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=0)

    def test_fractional_node_count(self):
        with pytest.raises(ValueError):
            QuadratureSpec(node_count=8.5)

    def test_bad_split_points(self):
        with pytest.raises(ValueError):
            QuadratureSpec(split_points=(4.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_split_point(self, bad):
        with pytest.raises(ValueError):
            QuadratureSpec(split_points=(1.0, bad))

    def test_doubled(self):
        spec = HALFLINE.doubled()
        assert spec.node_count == 2 * HALFLINE.node_count
        assert spec.doubled() == QuadratureSpec(4 * HALFLINE.node_count, HALFLINE.rel_tol,
                                                HALFLINE.abs_tol, HALFLINE.split_points)
