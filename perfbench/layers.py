"""The traced run: per-layer metrics of the kramers modules.

The traced run is the same whatever workload is named, so every layer has a
reading: the counts and self times cover one traced ``series`` operation (a
forward and an inverse half) and one traced ``profile`` operation at q = 1 on
the iterates it built. It then times the cold interpreter, the cold import
and one warm in-process ``kramers.cli.main`` call per CLI case, which
together decompose a cold CLI run. Only ``tracing.overhead_s`` depends on
the workload: what tracing adds to that workload's operation, from traced and
untraced runs side by side (``tracing_overhead``).
"""
from __future__ import annotations

import io
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

import kramers.cli

import workloads as wl
from tracing import Tracer

KERNELS = ("t_n", "j_n", "s_fwd", "s_inv")
FORWARD = ("apply_operator_fwd", "slip_coefficient", "build_e0")
INVERSE = ("apply_operator_inv", "w_coefficient", "build_e0_inv")
PROFILE = ("full_profile", "velocity_correction", "wall_velocity", "boundary_distribution")
ACCURACY = ("v1_abs_err", "slip_sum_abs_err", "roundtrip_abs_err", "wall_abs_err",
            "asymptote_abs_err")
OVERHEAD_REPEATS = 3  # profile operations per side of the tracing-overhead comparison

# per-layer metric prefix -> the end-to-end metric it should move, by workload
MOVES = {
    "kernels.": "op_rel on series; setup_s on profile; not op_rel on profile",
    "quadrature.integrate_halfline.": "op_rel on series",
    "quadrature.integrate_fourier_cos.": "op_rel on profile",
    "quadrature.errors": "failed operations on every workload",
    "spectral.density_eval.": "op_rel on series and on profile",
    "spectral.density_build.": "op_rel on series; setup_s on profile",
    "spectral.self_check.": "op_rel on series; setup_s on profile",
    "forward.": "op_rel on series; setup_s on profile",
    "inverse.": "op_rel on series",
    "profile.": "op_rel on profile",
    "cli.import_s": "op_rel on cli-cold; setup_s on every workload",
    "cli.": "op_rel on cli-cold",
    "tracing.": "nothing: the cost of the traced run itself",
    "accuracy.": "nothing: digits, checked against the paper in every operation",
}


def moves(metric: str) -> str:
    return next(text for prefix, text in MOVES.items() if metric.startswith(prefix))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Counts and self times of the traced layers."""
    calls, self_s, st = tracer.calls(), tracer.self_seconds(), tracer.stats
    out: dict[str, float] = {}
    for name in KERNELS:
        layer = f"kernels.{name}"
        out |= {f"{layer}.calls": calls[layer], f"{layer}.points": st[layer].points,
                f"{layer}.self_s": self_s[layer]}
    out["kernels.moment_terms"] = st["kernels.t_n"].moment_terms + st["kernels.j_n"].moment_terms
    t_n = st["kernels.t_n"]
    out["kernels.t_n.scalar_repeat_share"] = _ratio(t_n.scalar_repeats, t_n.scalar_calls)
    hl, fc = "quadrature.integrate_halfline", "quadrature.integrate_fourier_cos"
    out |= {f"{hl}.calls": calls[hl], f"{hl}.integrand_points": st[hl].integrand_points,
            f"{hl}.points_per_call": _ratio(st[hl].integrand_points, calls[hl]),
            f"{hl}.self_s": self_s[hl],
            f"{fc}.calls": calls[fc], f"{fc}.integrand_points": st[fc].integrand_points,
            f"{fc}.self_s": self_s[fc],
            "quadrature.errors": st[hl].errors + st[fc].errors}
    ev = "spectral.density_eval"
    out |= {f"{ev}.calls": calls[ev], f"{ev}.points": st[ev].points, f"{ev}.self_s": self_s[ev],
            "spectral.density_build.calls": calls["spectral.density_build"],
            "spectral.density_build.self_s": self_s["spectral.density_build"],
            "spectral.self_check.self_s": self_s["spectral.self_check"]}
    for module, names in (("forward", FORWARD), ("inverse", INVERSE), ("profile", PROFILE)):
        for name in names:
            layer = f"{module}.{name}"
            out |= {f"{layer}.calls": calls[layer], f"{layer}.self_s": self_s[layer]}
    out["forward.applies_per_coefficient"] = _ratio(
        calls["forward.apply_operator_fwd"], calls["forward.slip_coefficient"])
    out["inverse.applies_per_coefficient"] = _ratio(
        calls["inverse.apply_operator_inv"], calls["inverse.w_coefficient"])
    out["profile.transforms_per_x"] = _ratio(
        tracer.calls_under(fc, "profile.full_profile"), st["profile.full_profile"].points)
    return out


def cli_warm(argv) -> tuple[float, int, str, str]:
    """One in-process ``kramers.cli.main(argv)``: seconds, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = kramers.cli.main(list(argv))
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def traced_run(workload: str, inputs: wl.Inputs) -> tuple[dict[str, float], wl.LoopResult,
                                                             list[str]]:
    """Per-layer metrics, the accounting of every checked operation, absent layers."""
    acc = wl.LoopResult()
    start = time.perf_counter()
    tracer = Tracer()
    steps = wl.SeriesSteps(inputs)
    halves = [partial(steps, 0), partial(steps, 1)]
    if workload == "series":
        # the traced halves of the overhead comparison are the counted ones
        overhead = tracing_overhead(halves, wl.kernel_work, tracer, acc)
    else:
        with tracer:
            for half in halves:
                acc.add(wl.guarded(half))
    fwd, densities, _ = steps.state or (None, None, None)
    profile_at_1 = partial(wl.profile_op, inputs, 1.0, fwd, densities)
    with tracer:
        acc.add(wl.guarded(profile_at_1))
    metrics = layer_metrics(tracer)

    seen: dict = {}
    cli_cases = [partial(wl.cli_op, case, seen, cli_warm) for case in range(len(wl.CLI_CASES))]
    # later comparisons get tracers of their own: their calls would change
    # the per-operation counts above
    if workload == "profile":
        overhead = tracing_overhead([profile_at_1], wl.small_array_work, Tracer(), acc,
                                    repeats=OVERHEAD_REPEATS)
    elif workload == "cli-cold":
        overhead = tracing_overhead(cli_cases, wl.small_array_work, Tracer(), acc)

    interpreter = wl.interpreter_start()
    imports = statistics.median(wl.import_seconds() for _ in range(3))
    main_untraced = [wl.guarded(case) for case in cli_cases]
    for res in main_untraced:
        acc.add(res)
    main_s = [res.times["op_s"] for res in main_untraced if not res.failures]
    metrics |= {"cli.interpreter_s": interpreter, "cli.import_s": imports - interpreter,
                "cli.main_s": statistics.median(main_s) if main_s else float("nan"),
                "tracing.overhead_s": overhead}
    metrics |= {f"accuracy.{name}": acc.accuracy.get(name, float("nan")) for name in ACCURACY}
    acc.elapsed = time.perf_counter() - start
    return metrics, acc, tracer.absent


def tracing_overhead(ops, probe, tracer: Tracer, acc: wl.LoopResult, repeats: int = 1) -> float:
    """Seconds that ``tracer`` adds to one pass over ``ops``.

    Each op runs traced and then untraced, and each run is divided by its
    neighbouring probes, as in ``run_loop``. The traced minus the untraced
    relative times, per pass, are scaled back to seconds by the median probe.
    The probes remove slow drift of the host's speed, not the noise within
    one run, so with few passes this is an estimate and can come out negative.
    """
    def step(i):
        op = ops[(i // 2) % len(ops)]
        if i % 2:
            return op()
        with tracer:
            return op()

    n = 2 * len(ops)
    loop = wl.run_loop(step, 0.0, probe, min_ops=n * repeats, unit=n)
    acc.merge(loop)
    if loop.failed:
        return float("nan")
    rel = loop.samples["op_rel"]
    return (sum(rel[0::2]) - sum(rel[1::2])) / repeats * statistics.median(loop.samples["ref_s"])
