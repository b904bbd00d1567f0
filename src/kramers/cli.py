"""Command line interface.

Subcommands:
  coeffs    slip-coefficient expansion V_n and the slip velocity at given q
  inverse   gradient expansion W_n and the gradient recovered from a slip value
  wall      gas velocity at the wall for given q
  profile   velocity profile U(x) on a uniform x-grid
  validate  recompute the built-in reference checks

Exit status: 0 on success, 1 on a numerical failure (which includes a
result that is not finite), 2 on bad arguments or an --out file that cannot
be written.  Identical invocations produce byte-identical output.

Every argument is checked before numpy loads.  numpy and the modules that
build iterates load only for a command that needs an iterate: ``coeffs`` and
``inverse`` at order 0 print the exact c_0 of ``kramers.series`` without one.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .series import (EXACT_C0, DiffuseLimitSingular, NumericalFailure, ProblemConfig,
                     SeriesExpansion, check_finite, gradient, slip_velocity)

__all__ = ["main"]

# bounds the run time: 100,001 x-points at order 3 take about 4 s on a
# 2-vCPU Xeon (memory stays flat, the transform works in fixed blocks of x)
MAX_X_POINTS = 100_001


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=("table", "csv", "json"), default=None,
        help="output format (default: table on a terminal, csv otherwise)",
    )
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=1.0, help="accommodation coefficient in [0, 1]")
    p.add_argument("--order", type=int, default=3, help="series truncation order N")
    _add_output(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kramers", description="Slip-flow solver for the half-space shear problem"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="slip-coefficient expansion")
    _add_common(p)
    p.add_argument("--gradient", type=float, default=1.0, help="velocity gradient (default 1)")

    p = sub.add_parser("inverse", help="gradient expansion from an imposed slip")
    _add_common(p)
    p.add_argument("--slip", type=float, required=True, help="imposed slip velocity")

    p = sub.add_parser("wall", help="wall velocity")
    _add_common(p)
    p.add_argument("--gradient", type=float, default=1.0, help="velocity gradient (default 1)")

    p = sub.add_parser("profile", help="velocity profile")
    _add_common(p)
    p.add_argument("--gradient", type=float, default=1.0, help="velocity gradient (default 1)")
    p.add_argument("--xmax", type=float, default=10.0, help="largest x value")
    p.add_argument("--xstep", type=float, default=0.5, help="x-grid spacing")

    # the reference checks run at fixed settings, so validate takes no solve options
    p = sub.add_parser("validate", help="run the reference checks")
    _add_output(p)
    return parser


def _resolve_format(args) -> str:
    if args.json:
        return "json"
    if args.format is not None:
        return args.format
    return "table" if sys.stdout.isatty() else "csv"


def _x_count(args) -> int:
    """The number of points of the uniform profile grid 0, xstep, ..., about xmax."""
    # xstep > 0 before the division; a finite ratio gives a finite point count
    if not (0 <= args.xmax < math.inf and 0 < args.xstep < math.inf
            and math.isfinite(args.xmax / args.xstep)):
        raise ValueError("--xmax must be >= 0 and --xstep > 0, finite, with a finite ratio")
    count = int(round(args.xmax / args.xstep)) + 1
    if count > MAX_X_POINTS:
        raise ValueError(f"--xmax/--xstep gives {count} x-points, more than {MAX_X_POINTS}")
    return count


def _check_out(path: str) -> None:
    """Reject an --out path whose directory is missing, or that is a directory."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ValueError(f"--out: no directory {folder!r}")
    if os.path.isdir(path):
        raise ValueError(f"--out: {path!r} is a directory")


def _emit(text: str, args) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror or exc}") from exc


def _rows_text(rows, fmt) -> str:
    """rows: list of (name, value) pairs."""
    if fmt == "json":
        return json.dumps({name: value for name, value in rows}, indent=2) + "\n"
    if fmt == "csv":
        lines = ["quantity,value"] + [f"{name},{value:.12g}" for name, value in rows]
    else:
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}s}  {value: .12g}" for name, value in rows]
    return "\n".join(lines) + "\n"


def _profile_text(prof, fmt) -> str:
    if fmt == "json":
        return prof.to_json() + "\n"
    if fmt == "csv":
        return prof.to_csv()
    header = f"{'x':>10s} {'U_total':>16s} {'U_asymptote':>16s} {'U_correction':>16s}"
    lines = [header] + [
        f"{x:10.4f} {t:16.9g} {a:16.9g} {c:16.9g}"
        for x, t, a, c in zip(prof.x_nodes, prof.total, prof.asymptote, prof.correction)
    ]
    return "\n".join(lines) + "\n"


def _series(kind: str, order: int) -> SeriesExpansion:
    """The series of ``kind`` through ``order``: at order 0 the exact (c_0,),
    which needs no iterate, else the build's."""
    if order == 0:
        return SeriesExpansion(kind, (EXACT_C0[kind],))
    from .forward import build_series_fwd, build_series_inv

    return (build_series_fwd if kind == "forward" else build_series_inv)(order)[0]


def _rows(args, config: ProblemConfig) -> list[tuple[str, float]]:
    """The (name, value) rows that coeffs, inverse or wall print."""
    if args.command == "inverse":
        series = _series("inverse", config.order)
        rows = [(f"W_{n}", c) for n, c in enumerate(series.coefficients)]
        return rows + [("gradient", gradient(series, config.q, args.slip))]
    if args.command == "coeffs":
        series = _series("forward", config.order)
        rows = [(f"V_{n}", c) for n, c in enumerate(series.coefficients)]
        return rows + [("slip_velocity", slip_velocity(series, config.q, config.gradient))]
    from .forward import build_series_fwd
    from .profile import wall_velocity

    return [("wall_velocity", wall_velocity(config, *build_series_fwd(config.order)))]


def _profile(config: ProblemConfig, xstep: float, count: int):
    """U(x) at x = 0, xstep, ..., (count - 1) xstep."""
    import numpy as np

    from .forward import build_series_fwd
    from .profile import full_profile

    series, densities = build_series_fwd(config.order)
    x_nodes = np.linspace(0.0, xstep * (count - 1), count)
    # an overflow leaves an inf or nan in the profile, which _run reports as one failure
    with np.errstate(all="ignore"):
        return full_profile(config, x_nodes, series, densities)


def _run(args) -> int:
    # every argument is checked before numpy, a build or the reference checks
    fmt = _resolve_format(args)
    if args.out:
        _check_out(args.out)
    if args.command == "validate":
        from .validation import report_json, report_lines, run_reference_checks

        results = run_reference_checks()
        if fmt == "json":
            _emit(report_json(results) + "\n", args)
        else:
            _emit("\n".join(report_lines(results)) + "\n", args)
        return 0 if all(r.passed for r in results) else 1

    # inverse has no gradient, and its config checks q and order all the same
    config = ProblemConfig(q=args.q, gradient=getattr(args, "gradient", 1.0), order=args.order)
    if args.command == "inverse":
        check_finite(args.slip, "slip velocity")
    elif args.command == "profile":
        x_count = _x_count(args)
    # every other command prints the slip or values built on it
    if args.command != "inverse" and config.q == 0.0:
        raise DiffuseLimitSingular()

    if args.command == "profile":
        prof = _profile(config, args.xstep, x_count)
        values = prof.total.tolist() + prof.asymptote.tolist() + prof.correction.tolist()
        text = _profile_text(prof, fmt)
    else:
        rows = _rows(args, config)
        values, text = [value for _, value in rows], _rows_text(rows, fmt)
    for value in values:
        if not math.isfinite(value):
            raise NumericalFailure(f"a result is {value}: the inputs overflow double precision")
    _emit(text, args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
