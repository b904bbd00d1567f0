"""Workloads, seeded inputs and answer checks of the kramers benchmark.

Every workload is a closed loop with one caller: an operation starts only
when the previous one has returned. The seed chooses only the q values, the
x and mu grids and the order of the CLI invocations. Each operation's answer
is checked against frozen reference values inside the loop; an operation
that misses counts as failed and contributes no timing.

The solver is driven only through entry points meant to outlive the planned
rewrites of its internals: ``build_series_fwd``, ``build_series_inv``,
``slip_velocity``, ``gradient``, ``full_profile``, ``wall_velocity``,
``combined_density``, ``boundary_distribution`` and ``python -m kramers.cli``.
They are looked up on the ``kramers`` package at call time, so the tracer's
patches apply.
"""
from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

import kramers as kr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORDER = 3
SETUP_REPEATS = 3
PROFILE_SETUP_REPEATS = 2  # each profile set-up is an order-3 build, the costliest step

# reference values, frozen from the paper's tables (acceptance criteria 1-4)
V1_MPMATH = 0.140523501325592
EXACT_SLIP = 1.016191
EXACT_WALL = 1.0 / math.sqrt(2.0)
V_REFERENCE = ((0.886227, 1e-6), (0.140523, 2e-4), (-0.011556, 2e-4), (0.001092, 2e-4))
SLIP_PARTIALS = (0.886227, 1.02675, 1.015194, 1.016287)
SLIP_ERRORS_PCT = (-12.8, 1.04, -0.098, 0.009)
W_REFERENCE = ((1.128379, 1e-6), (-0.178919, 3e-4), (0.043083, 3e-4), (-0.010556, 3e-4))
GRADIENT_PARTIALS = (1.128379, 0.949460, 0.992543, 0.981987)
EXACT_INVERSE_FACTOR = 0.984066
WALL_PARTIALS = (0.674744, 0.710319, 0.706802)
WALL_TOL = 3e-4  # order-3 U(0) against 1/sqrt(2), as the README states
ROUNDTRIP_TOL = 1e-2  # same tolerance as `kramers validate`
ASYMPTOTE_TOL = 1e-3  # criterion 7

# (argv, expected exit code); all at order 0, so start-up dominates
CLI_CASES = (
    (("coeffs", "--order", "0", "--json"), 0),
    (("wall", "--q", "1", "--order", "0"), 0),
    (("profile", "--xmax", "5", "--order", "0"), 0),
    (("inverse", "--slip", "1", "--order", "0"), 0),
    (("profile", "--q", "0", "--order", "0"), 1),
    (("coeffs", "--q", "2", "--order", "0"), 2),
)
CLI_ROUNDS = 64  # more rounds than a 60-second run can reach


@dataclass(frozen=True)
class Inputs:
    sweep_q: tuple[float, ...]  # series: q values of the slip and gradient sweeps
    profile_q: tuple[float, ...]  # profile: one q per operation, cycled; q = 1 first
    x: np.ndarray  # 61 points on [0, 30], x[0] = 0
    mu: np.ndarray  # 31 nodes on [0, 3], mu[0] = 0
    cli_rounds: tuple[tuple[int, ...], ...]  # order of CLI_CASES in each round


def make_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    sweep_q = tuple(sorted({1.0, *(1.0 - rng.random() for _ in range(7))}))
    profile_q = (1.0, *(0.25 + 0.75 * rng.random() for _ in range(3)))
    # jittered uniform grids: the same cost from seed to seed
    x = np.array([0.0, *(0.5 * i + rng.uniform(-0.2, 0.2) for i in range(1, 60)), 30.0])
    mu = np.array([0.0, *(0.1 * j + rng.uniform(-0.04, 0.04) for j in range(1, 31))])
    cli_rounds = tuple(tuple(rng.sample(range(len(CLI_CASES)), len(CLI_CASES)))
                       for _ in range(CLI_ROUNDS))
    return Inputs(sweep_q, profile_q, x, mu, cli_rounds)


# -- the closed loop -------------------------------------------------------------


@dataclass
class OpResult:
    times: dict[str, float]  # seconds, by report name
    failures: list[str]
    accuracy: dict[str, float] = field(default_factory=dict)
    state: object = None


@dataclass
class LoopResult:
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0  # the timed loop, probes excluded
    samples: dict[str, list[float]] = field(default_factory=dict)
    accuracy: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed

    def merge(self, other: "LoopResult") -> None:
        """Count another loop's operations as this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)
        self.accuracy.update(other.accuracy)

    def add(self, res: OpResult) -> None:
        self.attempted += 1
        if res.failures:
            self.failed += 1
            self.failures.extend(res.failures)
            return
        for name, value in res.times.items():
            self.samples.setdefault(name, []).append(value)
        self.accuracy.update(res.accuracy)


def guarded(op, *args) -> OpResult:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return op(*args)
    except Exception as exc:  # noqa: BLE001 - the loop must count it and go on
        return OpResult({}, [f"{type(exc).__name__}: {exc}"])


def run_loop(op, seconds: float, probe, min_ops: int = 1, unit: int = 1) -> LoopResult:
    """Call ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed, at least
    ``min_ops`` operations ran and the count is a multiple of ``unit``.

    ``probe()`` runs before each operation and after the last; an operation's
    ``op_rel`` is its ``op_s`` over the mean of its two neighbouring probes.
    """
    out = LoopResult()
    refs = [probe()]
    start = time.perf_counter()
    probing = 0.0  # time spent in probes since start

    def timed():
        return time.perf_counter() - start - probing

    while out.attempted < min_ops or out.attempted % unit or timed() < seconds:
        res = guarded(op, out.attempted)
        probe_start = time.perf_counter()
        refs.append(probe())
        probing += time.perf_counter() - probe_start
        if "op_s" in res.times:
            res.times["op_rel"] = res.times["op_s"] / (0.5 * (refs[-2] + refs[-1]))
        out.add(res)
    out.elapsed = timed()
    out.samples["ref_s"] = refs
    return out


# -- probes ------------------------------------------------------------------------
# A shared host's speed can drift by a factor of two within minutes, and process
# CPU time drifts with wall time. Each workload therefore times a fixed probe
# next to every operation (see run_loop). A probe never calls the solver; it
# resembles the work that dominates its workload's operation, which is what
# lets it follow the drift. In interleaved trials on a 2-vCPU Xeon virtual
# machine, medians of 15 operations
# spread 24 % raw and 6 % relative to small_array_work on profile, 25 % and 4 %
# relative to interpreter_start on cli-cold. Six forward order-3 builds in a
# row varied by 4 % raw, 9 % relative to a probe mixing interpreter,
# small-array and large-array work, and 3 % relative to kernel_work. Single
# rounds of a probe vary by +-20 % there from one tenth of a second to the
# next, so each probe reports the median of a few.

_PROBE_K = np.geomspace(1e-3, 2e3, 577)
_PROBE_T2 = np.linspace(0.01, 9.0, 385) ** 2
_PROBE_W = np.exp(-_PROBE_T2) * _PROBE_T2**2.5
_PROBE_X = np.linspace(0.0, 1.0, 64)
_PROBE_KNOTS = np.geomspace(1e-3, 2e3, 321)
_PROBE_SPLINE = CubicSpline(_PROBE_KNOTS, 1.0 / (1.0 + _PROBE_KNOTS))


def kernel_work() -> float:
    """Median seconds of nine rounds of double-pole moment sums on 577 x 385
    blocks and a short interpreter loop, like the kernel evaluations that
    take most of a series build."""
    return statistics.median(_kernel_round() for _ in range(9))


def _kernel_round() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(40):
        ka = _PROBE_K[:, None]
        kb = np.roll(_PROBE_K, i)[:, None]
        denom = (1.0 + ka * ka * _PROBE_T2) * (1.0 + kb * kb * _PROBE_T2)
        acc += float((_PROBE_W / denom).sum(axis=-1).sum())
    for i in range(30_000):
        acc += i * 0.5 - (i % 7)
    return time.perf_counter() - start


def small_array_work() -> float:
    """Median seconds of three rounds of spline and cosine calls on 64-point
    arrays in a Python loop, like the cosine transforms of a profile."""
    return statistics.median(_small_array_round() for _ in range(3))


def _small_array_round() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        k = 1.0 + i + _PROBE_X
        acc += float((_PROBE_SPLINE(k) * np.cos(0.7 * k)) @ _PROBE_X)
    return time.perf_counter() - start


def interpreter_start() -> float:
    """Median seconds of three cold ``python -c pass`` runs, the start-up
    part of a cold CLI run."""
    return statistics.median(cold_seconds("pass")[0] for _ in range(3))


# Median probe seconds on the reference machine, a 2-vCPU Xeon virtual
# machine. ``setup_s`` multiplies each set-up part by reference over measured
# probe time, so it reads as seconds on that machine.
REFERENCE_PROBE_S = {"kernel_work": 0.105, "interpreter_start": 0.07}


# -- set-up ----------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: this checkout's src only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def cold_seconds(code: str) -> tuple[float, str]:
    """Wall time of a fresh interpreter running ``code``, and its stdout."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stdout


def import_seconds() -> float:
    """Cold ``import kramers`` and ``KernelSuite()`` in a fresh interpreter;
    kramers must resolve to this checkout's src."""
    seconds, out = cold_seconds("import kramers; kramers.KernelSuite(); print(kramers.__file__)")
    expected = (SRC / "kramers" / "__init__.py").resolve()
    if Path(out.strip()).resolve() != expected:
        raise RuntimeError(f"child imported kramers from {out.strip()}, not {expected}")
    return seconds


def at_reference_speed(probe, work) -> tuple[float, object]:
    """Run ``work()`` between two ``probe()`` calls. Returns its seconds
    scaled by the probe's reference time over the mean of the two probes,
    and its result."""
    before = probe()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    after = probe()
    return seconds * REFERENCE_PROBE_S[probe.__name__] / (0.5 * (before + after)), result


def setup(repeats: int, build: bool) -> tuple[list[float], object]:
    """``repeats`` set-ups: cold import and ``KernelSuite()`` and, for the
    profile workload, the forward order-3 build. Returns the set-up times at
    reference speed and the last build.

    The cold part is scaled by ``interpreter_start``, the build by
    ``kernel_work``, so that set-up time follows the code and not the drift of
    the host (see the probes above)."""
    times, built = [], None
    for _ in range(repeats):
        seconds, _ = at_reference_speed(interpreter_start, import_seconds)
        if build:
            build_s, built = at_reference_speed(
                kernel_work, lambda: kr.build_series_fwd(ORDER, kr.KernelSuite()))
            seconds += build_s
        times.append(seconds)
    return times, built


def peak_rss_mb(who: int) -> float:
    """Peak resident memory of this process (RUSAGE_SELF) or of its largest
    finished child (RUSAGE_CHILDREN)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- series ----------------------------------------------------------------------


def forward_op(inputs: Inputs) -> OpResult:
    """Forward order-3 build and slip sweep. The state (series, densities,
    slips) feeds the next inverse operation and the traced profile."""
    start = time.perf_counter()
    fwd, densities = kr.build_series_fwd(ORDER)
    slips = [kr.slip_velocity(fwd, q, 1.0) for q in inputs.sweep_q]
    seconds = time.perf_counter() - start
    accuracy = {"v1_abs_err": abs(fwd.coefficients[1] - V1_MPMATH),
                "slip_sum_abs_err": abs(fwd.partial_sum(1.0) - EXACT_SLIP)}
    return OpResult({"op_s": seconds, "fwd_solve_s": seconds},
                    check_forward(fwd, inputs.sweep_q, slips), accuracy,
                    state=(fwd, densities, slips))


def inverse_op(inputs: Inputs, fwd, slips) -> OpResult:
    """Inverse order-3 build and the gradient sweep that inverts ``slips``."""
    start = time.perf_counter()
    inv, _ = kr.build_series_inv(ORDER)
    grads = [kr.gradient(inv, q, v) for q, v in zip(inputs.sweep_q, slips)]
    seconds = time.perf_counter() - start
    accuracy = {
        "roundtrip_abs_err": abs(kr.slip_velocity(fwd, 1.0, 1.0) * inv.partial_sum(1.0) - 1.0)
    }
    return OpResult({"op_s": seconds, "inv_solve_s": seconds},
                    check_inverse(inv, inputs.sweep_q, grads), accuracy)


class SeriesSteps:
    """The series workload's operations: forward and inverse halves in turn.
    Each inverse half inverts the slips of the forward half before it."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.state = None  # of the last forward half

    def __call__(self, i: int) -> OpResult:
        if i % 2 == 0:
            self.state = None
            res = forward_op(self.inputs)
            self.state = res.state
            return res
        if self.state is None:
            return OpResult({}, ["inverse half skipped: its forward half raised"])
        fwd, _, slips = self.state
        return inverse_op(self.inputs, fwd, slips)


def _pattern_ok(got_pct: float, ref_pct: float) -> bool:
    same_sign = (got_pct > 0) == (ref_pct > 0)
    return same_sign and abs(abs(got_pct) - abs(ref_pct)) <= 0.2 * abs(ref_pct)


def check_forward(fwd, qs, slips) -> list[str]:
    """Criteria 1-2 and the slip sweep against the frozen reference tables."""
    if fwd.order != ORDER:
        return [f"forward series built to order {fwd.order}, expected {ORDER}"]
    bad = []
    for n, (ref, tol) in enumerate(V_REFERENCE):
        if not abs(fwd.coefficients[n] - ref) <= tol:
            bad.append(f"V_{n} = {fwd.coefficients[n]!r}, expected {ref} +- {tol}")
    for n, ref in enumerate(SLIP_PARTIALS):
        got = fwd.partial_sum(1.0, n)
        if not abs(got - ref) <= 3e-4:
            bad.append(f"slip partial N={n} = {got!r}, expected {ref}")
        if not _pattern_ok((got - EXACT_SLIP) / EXACT_SLIP * 100.0, SLIP_ERRORS_PCT[n]):
            bad.append(f"slip error pattern N={n} broken by {got!r}")
    for q, slip in zip(qs, slips):
        pref = (2.0 - q) / q
        ref = pref * sum(r * q**n for n, (r, _) in enumerate(V_REFERENCE))
        tol = pref * sum(t * q**n for n, (_, t) in enumerate(V_REFERENCE))
        if not abs(slip - ref) <= tol:
            bad.append(f"slip velocity at q={q!r} = {slip!r}, expected {ref!r}")
    return bad


def check_inverse(inv, qs, grads) -> list[str]:
    """Criterion 3 and the gradient round trip of the slip sweep."""
    if inv.order != ORDER:
        return [f"inverse series built to order {inv.order}, expected {ORDER}"]
    bad = []
    for n, (ref, tol) in enumerate(W_REFERENCE):
        if not abs(inv.coefficients[n] - ref) <= tol:
            bad.append(f"W_{n} = {inv.coefficients[n]!r}, expected {ref} +- {tol}")
    for n, ref in enumerate(GRADIENT_PARTIALS):
        got = inv.partial_sum(1.0, n)
        if not abs(got - ref) <= 5e-4:
            bad.append(f"gradient partial N={n} = {got!r}, expected {ref}")
    if not abs(inv.partial_sum(1.0) - EXACT_INVERSE_FACTOR) <= 2.5e-3:
        bad.append(f"gradient factor {inv.partial_sum(1.0)!r} far from {EXACT_INVERSE_FACTOR}")
    for q, grad in zip(qs, grads):
        if not abs(grad - 1.0) <= ROUNDTRIP_TOL:
            bad.append(f"gradient round trip at q={q!r} = {grad!r}")
    return bad


# -- profile ---------------------------------------------------------------------


def profile_op(inputs: Inputs, q: float, fwd, densities) -> OpResult:
    """Profile on the x grid, wall value and boundary distribution at one q."""
    config = kr.ProblemConfig(q=q, gradient=1.0, order=ORDER)
    start = time.perf_counter()
    prof = kr.full_profile(config, inputs.x, series=fwd, densities=densities)
    u0 = kr.wall_velocity(config, series=fwd, densities=densities)
    dist = kr.boundary_distribution(kr.combined_density(densities, q, 1.0), inputs.mu)
    seconds = time.perf_counter() - start
    failures, fit_err = check_profile(inputs, q, fwd, prof, u0, dist)
    accuracy = {}
    if q == 1.0:
        accuracy = {"wall_abs_err": abs(u0 - EXACT_WALL), "asymptote_abs_err": fit_err}
    return OpResult({"op_s": seconds, "profile_s": seconds}, failures, accuracy)


def check_profile(inputs: Inputs, q, fwd, prof, u0, dist) -> tuple[list[str], float]:
    """Criterion 7 asymptotics, the wall value and the mu = 0 boundary identity
    h(0, 0) = 2 U_c(0)."""
    bad = []
    x = inputs.x
    if not (np.array_equal(prof.x_nodes, x) and np.all(np.isfinite(prof.total))):
        return [f"profile at q={q!r} has the wrong nodes or non-finite values"], math.inf
    far = x >= 15.0
    slope, intercept = np.polyfit(x[far], prof.total[far], 1)
    v_sl = kr.slip_velocity(fwd, q, 1.0)
    fit_err = float(max(abs(slope - 1.0), abs(intercept - v_sl)))
    if not fit_err <= ASYMPTOTE_TOL:
        bad.append(f"asymptote at q={q!r}: slope {slope!r}, intercept {intercept!r}")
    near20 = int(np.argmin(np.abs(x - 20.0)))
    if not abs(prof.correction[near20]) < 1e-3 * abs(prof.correction[0]):
        bad.append(f"Knudsen layer at q={q!r} has not decayed by x={x[near20]!r}")
    if q == 1.0:
        if not abs(u0 - EXACT_WALL) <= WALL_TOL:
            bad.append(f"U(0) = {u0!r}, expected 1/sqrt(2) +- {WALL_TOL}")
    elif not abs(u0 - prof.total[0]) <= 1e-12:
        bad.append(f"U(0) = {u0!r} differs from the profile's {prof.total[0]!r}")
    values = np.asarray(dist.values)
    if values.shape != inputs.mu.shape or not np.all(np.isfinite(values)):
        bad.append(f"boundary distribution at q={q!r} has the wrong shape or non-finite values")
    elif not abs(values[0] - 2.0 * prof.correction[0]) <= 1e-6:
        bad.append(f"h(0, 0) = {values[0]!r}, expected 2 U_c(0) = {2.0 * prof.correction[0]!r}")
    return bad, fit_err


# -- cli-cold --------------------------------------------------------------------


def cli_cold(argv) -> tuple[float, int, str, str]:
    """One cold ``python -m kramers.cli`` run: seconds, exit code, stdout, stderr."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kramers.cli", *argv], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def cli_op(case: int, seen: dict, run=cli_cold) -> OpResult:
    argv, expected_code = CLI_CASES[case]
    seconds, code, out, err = run(argv)
    failures = check_cli(argv, expected_code, code, out, err)
    previous = seen.setdefault(argv, out)
    if out != previous:
        failures.append(f"stdout of {' '.join(argv)} differs from an earlier identical run")
    return OpResult({"op_s": seconds, "cli_run_s": seconds}, failures)


def check_cli(argv, expected_code: int, code: int, out: str, err: str) -> list[str]:
    """Exit code, then the printed numbers against the order-0 references."""
    name = " ".join(argv)
    if code != expected_code:
        return [f"`{name}` exited {code}, expected {expected_code}: {err.strip()[:200]}"]
    if code != 0:
        wanted = "q = 0" if code == 1 else "error:"
        if out or wanted not in err:
            return [f"`{name}` printed {out[:80]!r} / {err.strip()[:80]!r}"]
        return []
    v0, w0 = 0.5 * math.sqrt(math.pi), 2.0 / math.sqrt(math.pi)
    lines = out.splitlines()
    try:
        if argv[0] == "coeffs":
            data = json.loads(out)
            ok = (set(data) == {"V_0", "slip_velocity"} and abs(data["V_0"] - v0) <= 1e-12
                  and abs(data["slip_velocity"] - v0) <= 1e-12)
        elif argv[0] in ("wall", "inverse"):
            rows = dict(line.split(",") for line in lines[1:])
            values = {key: float(value) for key, value in rows.items()}
            if argv[0] == "wall":
                expected = {"wall_velocity": (WALL_PARTIALS[0], 1e-3)}
            else:
                expected = {"W_0": (w0, 1e-9), "gradient": (w0, 1e-9)}
            ok = lines[0] == "quantity,value" and list(values) == list(expected) and all(
                abs(values[key] - ref) <= tol for key, (ref, tol) in expected.items())
        else:
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
            xs, total, asym, corr = rows.T
            ok = (lines[0] == "x,U_total,U_asymptote,U_correction" and rows.shape == (11, 4)
                  and np.allclose(xs, 0.5 * np.arange(11), atol=1e-12)
                  and np.allclose(asym, v0 + xs, atol=1e-9)
                  and np.allclose(total, asym + corr, atol=1e-9)
                  and abs(corr[0] - (WALL_PARTIALS[0] - EXACT_SLIP)) <= 1e-3
                  and bool(np.all(np.diff(np.abs(corr)) < 0)))
    except (ValueError, KeyError, IndexError) as exc:
        return [f"`{name}` printed unparsable output: {exc}"]
    return [] if ok else [f"`{name}` printed wrong values: {out[:200]!r}"]


# -- per-workload drivers ----------------------------------------------------------


@dataclass
class WorkloadRun:
    setup_s: list[float]
    loop: LoopResult
    peak_rss_mb: float


def run_series(inputs: Inputs, seconds: float) -> WorkloadRun:
    setup_times, _ = setup(SETUP_REPEATS, build=False)
    loop = run_loop(SeriesSteps(inputs), seconds, kernel_work, min_ops=2, unit=2)
    return WorkloadRun(setup_times, loop, peak_rss_mb(resource.RUSAGE_SELF))


def run_profile(inputs: Inputs, seconds: float) -> WorkloadRun:
    setup_times, (fwd, densities) = setup(PROFILE_SETUP_REPEATS, build=True)
    qs = inputs.profile_q
    loop = run_loop(lambda i: profile_op(inputs, qs[i % len(qs)], fwd, densities),
                    seconds, small_array_work, min_ops=2 * len(qs), unit=len(qs))
    return WorkloadRun(setup_times, loop, peak_rss_mb(resource.RUSAGE_SELF))


def run_cli(inputs: Inputs, seconds: float) -> WorkloadRun:
    setup_times, _ = setup(SETUP_REPEATS, build=False)
    seen: dict = {}
    n = len(CLI_CASES)
    order = [case for rnd in inputs.cli_rounds for case in rnd]
    loop = run_loop(lambda i: cli_op(order[i], seen), seconds, interpreter_start,
                    min_ops=2 * n, unit=n)
    return WorkloadRun(setup_times, loop, peak_rss_mb(resource.RUSAGE_CHILDREN))


RUNNERS = {"series": run_series, "profile": run_profile, "cli-cold": run_cli}
