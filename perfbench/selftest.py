"""Tests of the benchmark itself (not of the solver).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run.
"""
from __future__ import annotations

import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import kramers as kr  # noqa: E402
import kramers.forward  # noqa: E402
import kramers.quadrature  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Target, Tracer  # noqa: E402

# an order-3 build at default settings, as printed by the seed code
V_BUILT = (0.8862269254527579, 0.1405234980248075, -0.011555401759069167, 0.0010925308637250472)
W_BUILT = (1.1283791670955126, -0.17892007464969836, 0.04308303919942124, -0.010555379797698458)


def test_self_times_add_up_on_a_nested_call():
    synth = types.ModuleType("synth_pkg")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.02)
        synth.inner()
        synth.inner()

    synth.inner, synth.outer = inner, outer
    sys.modules["synth_pkg"] = synth
    targets = {"synth.outer": Target("synth_pkg", "outer"),
               "synth.inner": Target("synth_pkg", "inner"),
               "synth.removed": Target("synth_pkg", "removed_by_a_refactor")}
    tracer = Tracer(targets, package="synth_pkg")
    try:
        with tracer:
            synth.outer()
    finally:
        del sys.modules["synth_pkg"]
    assert synth.outer is outer and synth.inner is inner
    assert tracer.absent == ["synth.removed"]
    calls, self_s = tracer.calls(), tracer.self_seconds()
    assert calls == {"synth.outer": 1, "synth.inner": 2, "synth.removed": 0}
    total = tracer.span_end[0] - tracer.span_start[0]
    assert math.isclose(self_s["synth.outer"] + self_s["synth.inner"], total, abs_tol=1e-12)
    inner_spans = [e - s for s, e, layer in
                   zip(tracer.span_start, tracer.span_end, tracer.span_layer) if layer == 1]
    assert math.isclose(self_s["synth.inner"], sum(inner_spans), abs_tol=1e-12)
    assert self_s["synth.outer"] >= 0.02 and self_s["synth.inner"] >= 0.02


def _traced_counts():
    tracer = Tracer()
    with tracer:
        series, densities = kr.build_series_fwd(1)
        config = kr.ProblemConfig(q=0.5, gradient=1.0, order=1)
        kr.full_profile(config, [0.0, 1.0, 2.0], series=series, densities=densities)
    metrics = layers.layer_metrics(tracer)
    return {name: value for name, value in metrics.items() if not name.endswith("self_s")}


def test_two_traced_runs_give_identical_counts():
    original = kramers.quadrature.integrate_halfline
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    # integrate_halfline is reached through kramers.forward's own import of it
    assert first["quadrature.integrate_halfline.calls"] > 0
    assert first["forward.applies_per_coefficient"] == 1.0
    assert first["profile.transforms_per_x"] == 2.0  # N + 1 transforms at order 1
    assert kramers.forward.integrate_halfline is original
    assert kramers.quadrature.integrate_halfline is original


def test_injected_wrong_answer_raises_error_rate():
    inputs = wl.make_inputs(7)
    fwd = kr.SeriesExpansion("forward", V_BUILT)
    inv = kr.SeriesExpansion("inverse", W_BUILT)

    def op(series):
        slips = [kr.slip_velocity(series, q, 1.0) for q in inputs.sweep_q]
        grads = [kr.gradient(inv, q, v) for q, v in zip(inputs.sweep_q, slips)]
        return wl.OpResult({"op_s": 1.0}, wl.check_forward(series, inputs.sweep_q, slips)
                           + wl.check_inverse(inv, inputs.sweep_q, grads))

    good = wl.run_loop(lambda i: op(fwd), 0.0, probe=lambda: 0.5, min_ops=3)
    assert (good.attempted, good.error_rate) == (3, 0.0)
    wrong = kr.SeriesExpansion("forward", (V_BUILT[0], V_BUILT[1] + 1e-3, *V_BUILT[2:]))
    bad = wl.run_loop(lambda i: op(wrong if i == 1 else fwd), 0.0, probe=lambda: 0.5,
                      min_ops=3)
    assert (bad.attempted, bad.failed) == (3, 1)
    # a failed operation is never a timing
    assert bad.samples["op_s"] == [1.0, 1.0] and bad.samples["op_rel"] == [2.0, 2.0]

    def fake_cli(code):
        return lambda argv: (0.5, code, '{"V_0": 0.8862269254527579, '
                                        '"slip_velocity": 0.8862269254527579}', "")

    assert wl.cli_op(0, {}, run=fake_cli(0)).failures == []
    assert wl.cli_op(0, {}, run=fake_cli(1)).failures


def test_reference_speed_divides_out_the_probe():
    def kernel_work():  # a host at half the reference speed
        return 2.0 * wl.REFERENCE_PROBE_S["kernel_work"]

    seconds, result = wl.at_reference_speed(kernel_work, lambda: time.sleep(0.05) or "built")
    assert result == "built" and 0.025 <= seconds < 0.05


def test_exits_nonzero_without_the_solver(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "series",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
