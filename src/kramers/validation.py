"""Built-in validation against the published reference values.

Every check compares a freshly computed quantity with its reference value at
a fixed tolerance; the slip and wall sequences additionally check that the
truncation-error pattern against the exact diffuse-wall benchmarks has the
right signs and magnitudes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .forward import build_series_fwd, build_series_inv, slip_velocity
from .kernels import SQRT_PI, KernelSuite
from .profile import EXACT_SLIP_DIFFUSE, EXACT_WALL_DIFFUSE, velocity_correction

__all__ = ["CheckResult", "run_reference_checks", "report_lines", "report_json", "report_text"]

# reference data: (name, expected, absolute tolerance)
_FORWARD_COEFFS = (
    (0.886227, 1e-6),
    (0.140523, 2e-4),
    (-0.011556, 2e-4),
    (0.001092, 2e-4),
)
_SLIP_PARTIALS = (0.886227, 1.02675, 1.015194, 1.016287)
_SLIP_REL_ERRORS = (-12.8, 1.04, -0.098, 0.009)  # percent vs exact slip
_INVERSE_COEFFS = (
    (1.128379, 1e-6),
    (-0.178919, 3e-4),
    (0.043083, 3e-4),
    (-0.010556, 3e-4),
)
_GRADIENT_PARTIALS = (1.128379, 0.949460, 0.992543, 0.981987)
_WALL_PARTIALS = (0.674744, 0.710319, 0.706802)
_WALL_REL_ERRORS = (4.6, -0.45, 0.044)  # percent vs exact wall velocity


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: float
    computed: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}  {self.name:<42s} expected {self.expected:+.6f}  "
            f"computed {self.computed:+.6f}  tol {self.tolerance:.1e}"
        )


def _abs_check(name, expected, computed, tol) -> CheckResult:
    return CheckResult(name, expected, computed, tol, abs(computed - expected) <= tol)


def _error_pattern_check(name, expected_pct, computed_pct, magnitude=True) -> CheckResult:
    """Sign must match; optionally the magnitude must agree within 20% relative."""
    ok = (expected_pct > 0) == (computed_pct > 0)
    if magnitude:
        ok = ok and abs(abs(computed_pct) - abs(expected_pct)) <= 0.2 * abs(expected_pct)
    return CheckResult(name, expected_pct, computed_pct, 0.2, ok)


def run_reference_checks() -> list[CheckResult]:
    """Recompute every reference quantity and compare."""
    kern = KernelSuite()
    results: list[CheckResult] = []

    results.append(_abs_check("T_1 at k=0", 1.0 / SQRT_PI, kern.t_n(1, 0.0), 1e-10))
    results.append(_abs_check("T_2 at k=0", 0.5, kern.t_n(2, 0.0), 1e-10))

    series, densities = build_series_fwd(3, kern)
    for n, (expected, tol) in enumerate(_FORWARD_COEFFS):
        results.append(
            _abs_check(f"slip coefficient V_{n}", expected, series.coefficients[n], tol)
        )
    for n, expected in enumerate(_SLIP_PARTIALS):
        computed = series.partial_sum(1.0, n)  # (2-q)/q = 1 at q = 1
        results.append(_abs_check(f"slip velocity q=1 order {n}", expected, computed, 3e-4))
        rel_pct = (computed - EXACT_SLIP_DIFFUSE) / EXACT_SLIP_DIFFUSE * 100.0
        results.append(
            _error_pattern_check(f"slip error pattern order {n}", _SLIP_REL_ERRORS[n], rel_pct)
        )

    for n, expected in enumerate(_WALL_PARTIALS):
        wall_running = EXACT_SLIP_DIFFUSE + velocity_correction(
            densities[: n + 1], 1.0, 1.0, 0.0
        )
        results.append(_abs_check(f"wall velocity q=1 order {n}", expected, wall_running, 1e-3))
        rel_pct = (EXACT_WALL_DIFFUSE - wall_running) / EXACT_WALL_DIFFUSE * 100.0
        results.append(
            _error_pattern_check(
                f"wall error sign order {n}", _WALL_REL_ERRORS[n], rel_pct, magnitude=False
            )
        )

    inv_series, _ = build_series_inv(3, kern)
    for n, (expected, tol) in enumerate(_INVERSE_COEFFS):
        results.append(
            _abs_check(f"gradient coefficient W_{n}", expected, inv_series.coefficients[n], tol)
        )
    for n, expected in enumerate(_GRADIENT_PARTIALS):
        results.append(
            _abs_check(
                f"gradient factor q=1 order {n}", expected, inv_series.partial_sum(1.0, n), 5e-4
            )
        )

    # reciprocity: (sum V_n q^n)(sum W_n q^n) = 1 holds order by order
    for n in range(len(_INVERSE_COEFFS)):
        product = sum(
            series.coefficients[i] * inv_series.coefficients[n - i] for i in range(n + 1)
        )
        results.append(
            _abs_check(f"reciprocity V*W order {n}", float(n == 0), product, 1e-11)
        )

    # round trip: forward slip fed to the inverse series must come back near 1
    v_sl = slip_velocity(series, 1.0, 1.0)
    round_trip = v_sl * inv_series.partial_sum(1.0)
    results.append(_abs_check("forward/inverse round trip q=1", 1.0, round_trip, 1e-2))
    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = [r.line() for r in results]
    failed = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return lines


def report_json(results: list[CheckResult]) -> str:
    return json.dumps(
        {
            "passed": all(r.passed for r in results),
            "checks": [
                {
                    "name": r.name,
                    "expected": r.expected,
                    "computed": r.computed,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in results
            ],
        },
        indent=2,
    )


def report_text(results: list[CheckResult], fmt: str) -> str:
    """The report as ``kramers validate`` prints it: ``report_json`` for
    fmt "json", else ``report_lines``, newline-terminated."""
    if fmt == "json":
        return report_json(results) + "\n"
    return "\n".join(report_lines(results)) + "\n"
