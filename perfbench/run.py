"""Benchmark of the kramers solver.

    python3 perfbench/run.py --workload {series,profile,cli-cold} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository; it imports kramers
from the checkout's ``src`` and nothing else. With ``--trace 0`` it runs the
named workload untraced and prints the end-to-end metrics; with
``--trace 1`` it makes the traced run of ``layers.py`` and prints the
per-layer metrics. Human-readable lines come first; the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# extra lines of the report, by workload: the issue's per-workload names
DETAIL_TIMES = {"series": ("fwd_solve_s", "inv_solve_s"), "profile": ("profile_s",),
                "cli-cold": ("cli_run_s",)}
DETAIL_ACCURACY = {"series": ("v1_abs_err", "slip_sum_abs_err", "roundtrip_abs_err"),
                   "profile": ("wall_abs_err", "asymptote_abs_err"), "cli-cold": ()}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_threads() -> None:
    """At most nproc BLAS and OpenMP threads, here and in every child; must run
    before numpy is imported."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        current = int(value) if value.isdigit() and int(value) > 0 else nproc()
        os.environ[var] = str(min(current, nproc()))


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(), "cpu": cpu or platform.processor(), "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def describe(values) -> str:
    """Sample count and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return f"n={n}, p{p:g}={sorted(values)[rank - 1]:.6g}"
    return f"n={n}, no percentile has 10 samples beyond it"


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def untraced(workload: str, seed: int, seconds: float):
    import workloads as wl

    inputs = wl.make_inputs(seed)
    run = wl.RUNNERS[workload](inputs, seconds)
    loop = run.loop
    metrics = {
        "setup_s": _median(run.setup_s),
        "op_rel": _median(loop.samples.get("op_rel", [])),
        "peak_rss_mb": run.peak_rss_mb,
    }
    lines = [f"{workload} setup_s = {metrics['setup_s']!r} s ({describe(run.setup_s)})"]
    for name, unit in (("op_rel", "ref"), ("ref_s", "s"), ("op_s", "s"),
                       *((name, "s") for name in DETAIL_TIMES[workload])):
        values = loop.samples.get(name, [])
        lines.append(f"{workload} {name} = {_median(values)!r} {unit} ({describe(values)})")
    lines += [
        f"{workload} ops_per_s = {loop.ops_per_s!r} 1/s "
        f"({loop.attempted - loop.failed} completed in {loop.elapsed:.3f} s)",
        f"{workload} peak_rss_mb = {run.peak_rss_mb!r} MB",
        f"{workload} error_rate = {loop.error_rate!r} ({loop.failed} of {loop.attempted} failed)",
    ]
    for name in DETAIL_ACCURACY[workload]:
        lines.append(f"{workload} {name} = {loop.accuracy.get(name)!r}")
    return metrics, loop, lines


def traced(workload: str, seed: int):
    import layers
    import workloads as wl

    metrics, acc, absent = layers.traced_run(workload, wl.make_inputs(seed))
    lines = [f"traced run for {workload}: {acc.attempted} operations in {acc.elapsed:.3f} s"]
    lines += [f"  {m['name']} = {metrics.get(m['name'])!r} {m['unit']}   "
              f"[moves {layers.moves(m['name'])}]" for m in SPEC["per_layer"]]
    if absent:
        lines.append(f"absent (reported as 0): {', '.join(absent)}")
    return metrics, acc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    expected = SRC / "kramers" / "__init__.py"
    if not expected.is_file():
        print(f"error: {expected} not found; run from a checkout of the kramers repository",
              file=sys.stderr)
        return 2
    limit_threads()
    sys.path.insert(0, str(SRC))
    import kramers

    if Path(kramers.__file__).resolve() != expected.resolve():
        print(f"error: kramers imported from {kramers.__file__}, not {expected}", file=sys.stderr)
        return 2

    print(f"kramers benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps({**environment(), "kramers": str(expected.parent)}))
    if args.trace:
        metrics, loop, lines = traced(args.workload, args.seed)
    else:
        metrics, loop, lines = untraced(args.workload, args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    print("\n".join(lines))
    for failure in loop.failures[:20]:
        print(f"FAILED: {failure}")

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2

    def finite(value):
        return value if value is not None and math.isfinite(value) else None

    result = {
        "correct": loop.failed == 0 and all(finite(metrics[name]) is not None for name in units),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": finite(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
