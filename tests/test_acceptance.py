"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-4 pin the published reference numbers, 5 is the randomized kernel
identity sweep, 6 compares the series iteration against a brute-force nested
quadrature, 7 checks the far-field asymptotics of the reconstructed profile,
and 8 is self-convergence under doubled resolution.
"""
import math

import numpy as np
import pytest

from kramers.forward import slip_velocity
from kramers.kernels import SQRT_PI
from kramers.profile import (
    EXACT_SLIP_DIFFUSE,
    EXACT_WALL_DIFFUSE,
    full_profile,
    velocity_correction,
)
from kramers.spectral import ProblemConfig

V_REFERENCE = ((0.886227, 1e-6), (0.140523, 2e-4), (-0.011556, 2e-4), (0.001092, 2e-4))
SLIP_PARTIALS = (0.886227, 1.02675, 1.015194, 1.016287)
SLIP_ERRORS_PCT = (-12.8, 1.04, -0.098, 0.009)
W_REFERENCE = ((1.128379, 1e-6), (-0.178919, 3e-4), (0.043083, 3e-4), (-0.010556, 3e-4))
GRADIENT_PARTIALS = (1.128379, 0.949460, 0.992543, 0.981987)
EXACT_INVERSE_FACTOR = 0.984066
WALL_PARTIALS = (0.674744, 0.710319, 0.706802)
WALL_ERROR_SIGNS = (1, -1, 1)


class Criterion:
    """Collects named checks and prints a single summary line on close."""

    def __init__(self, number: int, title: str):
        self.label = f"criterion {number} ({title})"
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = ""):
        if not ok:
            self.failures.append(f"{name} {detail}".strip())

    def close(self):
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status}")
        assert not self.failures, f"{self.label}: {self.failures}"


def test_criterion_1_forward_coefficients(forward3):
    crit = Criterion(1, "forward coefficients")
    for n, (expected, tol) in enumerate(V_REFERENCE):
        got = forward3[0].coefficients[n]
        crit.check(f"V_{n}", abs(got - expected) <= tol, f"got {got:.6f}")
    crit.close()


def test_criterion_2_slip_velocity(forward3):
    crit = Criterion(2, "slip velocity at q=1")
    series = forward3[0]
    for n, expected in enumerate(SLIP_PARTIALS):
        got = series.partial_sum(1.0, n)  # (2-q)/q = 1 at q = 1
        crit.check(f"partial sum N={n}", abs(got - expected) <= 3e-4, f"got {got:.6f}")
        err_pct = (got - EXACT_SLIP_DIFFUSE) / EXACT_SLIP_DIFFUSE * 100.0
        ref = SLIP_ERRORS_PCT[n]
        ok = (err_pct > 0) == (ref > 0) and abs(abs(err_pct) - abs(ref)) <= 0.2 * abs(ref)
        crit.check(f"error pattern N={n}", ok, f"got {err_pct:+.3f}%")
    crit.close()


def test_criterion_3_inverse_coefficients(inverse3):
    crit = Criterion(3, "inverse coefficients")
    series = inverse3[0]
    for n, (expected, tol) in enumerate(W_REFERENCE):
        got = series.coefficients[n]
        crit.check(f"W_{n}", abs(got - expected) <= tol, f"got {got:.6f}")
    for n, expected in enumerate(GRADIENT_PARTIALS):
        got = series.partial_sum(1.0, n)
        crit.check(f"partial sum N={n}", abs(got - expected) <= 5e-4, f"got {got:.6f}")
    # the truncated factor approximates the exact inverse relation
    got = series.partial_sum(1.0)
    crit.check(
        "exact-factor proximity",
        abs(got - EXACT_INVERSE_FACTOR) <= 2.5e-3,
        f"got {got:.6f} vs {EXACT_INVERSE_FACTOR}",
    )
    crit.close()


def test_criterion_4_wall_velocity(forward3):
    crit = Criterion(4, "wall velocity at q=1")
    for n, expected in enumerate(WALL_PARTIALS):
        got = EXACT_SLIP_DIFFUSE + velocity_correction(forward3[1][: n + 1], 1.0, 1.0, 0.0)
        crit.check(f"partial sum N={n}", abs(got - expected) <= 1e-3, f"got {got:.6f}")
        err_sign = 1 if EXACT_WALL_DIFFUSE - got > 0 else -1
        crit.check(f"error sign N={n}", err_sign == WALL_ERROR_SIGNS[n], f"got {err_sign:+d}")
    crit.close()


def test_criterion_5_kernel_identities(kern):
    crit = Criterion(5, "kernel identity suite")
    rng = np.random.default_rng(31415926)
    for i in range(20):
        k, k1 = rng.uniform(0.0, 10.0, 2)
        checks = [
            ("L = k^2 T_2", kern.big_l(k) - k * k * kern.t_n(2, k)),
            ("J(k,0) = T_1", kern.j_kernel(k, 0.0) - kern.t_n(1, k)),
            ("T_2 = 1/2 - k^2 T_4", kern.t_n(2, k) - (0.5 - k * k * kern.t_n(4, k))),
            (
                "difference identity",
                kern.t_n(1, k) - kern.t_n(1, k1) - (k1 * k1 - k * k) * kern.j_n(3, k, k1),
            ),
            (
                "s_fwd factorization",
                k * k * kern.s_fwd(k, k1)
                - (kern.j_kernel(k, k1) - SQRT_PI * kern.t_n(1, k) * kern.t_n(1, k1)),
            ),
            (
                "s_inv factorization",
                k * k * kern.s_inv(k, k1)
                - (2.0 * kern.t_n(1, k1) * kern.t_n(2, k) - kern.j_kernel(k, k1)),
            ),
        ]
        if abs(k - k1) > 1e-3:  # partial fractions is 0/0 on the diagonal
            checks.append(
                (
                    "partial fractions",
                    kern.j_kernel(k, k1) * (k1 * k1 - k * k)
                    - (k1 * k1 * kern.t_n(1, k1) - k * k * kern.t_n(1, k)),
                )
            )
        for name, resid in checks:
            crit.check(f"{name} tuple {i}", abs(resid) <= 1e-9, f"resid {resid:.2e}")
    crit.close()


def _simpson_halfline(f, n=20001):
    """Brute-force half-line integral: u = k/(1+k) substitution + Simpson."""
    from scipy.integrate import simpson

    u = np.linspace(0.0, 1.0 - 1e-9, n)
    k = u / (1.0 - u)
    vals = f(k) / (1.0 - u) ** 2
    return float(simpson(vals, x=u))


def test_criterion_6_operator_oracle(kern, forward3, inverse3):
    crit = Criterion(6, "brute-force operator oracle")
    k_probe = (0.1, 0.5, 1.0, 2.0, 5.0)
    e0f = lambda k1: kern.phi0_fwd(k1) / kern.t_n(2, k1)
    e0i = lambda k1: kern.phi0_inv(k1) / kern.t_n(2, k1)
    for k in k_probe:
        direct = -_simpson_halfline(lambda k1: kern.s_fwd(k, k1) * e0f(k1)) / (
            math.pi * kern.t_n(2, k)
        )
        got = forward3[1][1](k)
        crit.check(f"forward E_1({k})", abs(got - direct) <= 1e-6, f"diff {got - direct:.2e}")
        direct = _simpson_halfline(lambda k1: kern.s_inv(k, k1) * e0i(k1)) / (
            math.pi * kern.t_n(2, k)
        )
        got = inverse3[1][1](k)
        crit.check(f"inverse E_1({k})", abs(got - direct) <= 1e-6, f"diff {got - direct:.2e}")
    crit.close()


def test_criterion_7_profile_asymptotics(forward3):
    crit = Criterion(7, "profile asymptotics")
    x = np.arange(0.0, 30.5, 0.5)
    sel = x >= 15.0
    for q in (0.25, 0.5, 1.0):
        config = ProblemConfig(q=q, gradient=1.0, order=3)
        prof = full_profile(config, x, *forward3)
        slope, intercept = np.polyfit(x[sel], prof.total[sel], 1)
        v_sl = slip_velocity(forward3[0], q, 1.0)
        crit.check(f"slope q={q}", abs(slope - 1.0) <= 1e-3, f"got {slope:.6f}")
        crit.check(
            f"intercept q={q}", abs(intercept - v_sl) <= 1e-3, f"got {intercept:.6f}"
        )
        u0 = prof.correction[0]
        u20 = prof.correction[x == 20.0][0]
        crit.check(f"decay q={q}", abs(u20) < 1e-3 * abs(u0), f"ratio {abs(u20 / u0):.2e}")
    crit.close()


def test_criterion_8_self_convergence(forward3, inverse3, forward3_dbl, inverse3_dbl):
    """Doubling quadrature nodes and grid density moves every criterion 1-4
    value by less than a tenth of its acceptance tolerance."""
    crit = Criterion(8, "self-convergence under doubling")
    for n, (_, tol) in enumerate(V_REFERENCE):
        delta = forward3_dbl[0].coefficients[n] - forward3[0].coefficients[n]
        crit.check(f"V_{n} shift", abs(delta) <= tol / 10, f"delta {delta:.2e}")
    for n in range(4):
        delta = forward3_dbl[0].partial_sum(1.0, n) - forward3[0].partial_sum(1.0, n)
        crit.check(f"slip partial N={n} shift", abs(delta) <= 3e-5, f"delta {delta:.2e}")
    for n, (_, tol) in enumerate(W_REFERENCE):
        delta = inverse3_dbl[0].coefficients[n] - inverse3[0].coefficients[n]
        crit.check(f"W_{n} shift", abs(delta) <= tol / 10, f"delta {delta:.2e}")
    for n in range(4):
        delta = inverse3_dbl[0].partial_sum(1.0, n) - inverse3[0].partial_sum(1.0, n)
        crit.check(f"gradient partial N={n} shift", abs(delta) <= 5e-5, f"delta {delta:.2e}")
    for n in range(3):
        base = velocity_correction(forward3[1][: n + 1], 1.0, 1.0, 0.0)
        dbl = velocity_correction(forward3_dbl[1][: n + 1], 1.0, 1.0, 0.0)
        crit.check(f"wall partial N={n} shift", abs(dbl - base) <= 1e-4, f"delta {dbl - base:.2e}")
    crit.close()
