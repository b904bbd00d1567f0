"""Command line interface.

Subcommands:
  coeffs    slip-coefficient expansion V_n and the slip velocity at given q
  inverse   gradient expansion W_n and the gradient recovered from a slip value
  wall      gas velocity at the wall for given q
  profile   velocity profile U(x) on a uniform x-grid
  validate  recompute the built-in reference checks

Exit status: 0 on success, 1 on a numerical failure, 2 on bad arguments.
Identical invocations produce byte-identical output.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .forward import (DiffuseLimitSingular, build_series_fwd, build_series_inv, check_finite,
                      gradient, slip_velocity)
from .profile import full_profile, wall_velocity
from .quadrature import QuadratureError
from .spectral import GridTooCoarse, ProblemConfig
from .validation import report_json, report_lines, run_reference_checks

__all__ = ["main"]

# bounds the run time: 100,001 x-points at order 3 take about 10 s on a
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


def _x_grid(args) -> np.ndarray:
    """The uniform profile grid 0, xstep, ..., about xmax."""
    # xstep > 0 before the division; a finite ratio gives a finite point count
    if not (0 <= args.xmax < math.inf and 0 < args.xstep < math.inf
            and math.isfinite(args.xmax / args.xstep)):
        raise ValueError("--xmax must be >= 0 and --xstep > 0, finite, with a finite ratio")
    count = int(round(args.xmax / args.xstep)) + 1
    if count > MAX_X_POINTS:
        raise ValueError(f"--xmax/--xstep gives {count} x-points, more than {MAX_X_POINTS}")
    return np.linspace(0.0, args.xstep * (count - 1), count)


def _emit(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_out(rows, header, fmt, args) -> None:
    """rows: list of (name, value) pairs."""
    if fmt == "json":
        _emit(json.dumps({name: value for name, value in rows}, indent=2) + "\n", args)
    elif fmt == "csv":
        lines = [",".join(header)]
        lines += [f"{name},{value:.12g}" for name, value in rows]
        _emit("\n".join(lines) + "\n", args)
    else:
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}s}  {value: .12g}" for name, value in rows]
        _emit("\n".join(lines) + "\n", args)


def _run(args) -> int:
    fmt = _resolve_format(args)
    if args.command == "validate":
        results = run_reference_checks()
        if fmt == "json":
            _emit(report_json(results) + "\n", args)
        else:
            _emit("\n".join(report_lines(results)) + "\n", args)
        return 0 if all(r.passed for r in results) else 1

    # every argument is checked before the build; inverse has no gradient, and
    # its config checks q and order all the same
    config = ProblemConfig(q=args.q, gradient=getattr(args, "gradient", 1.0), order=args.order)
    if args.command == "inverse":
        check_finite(args.slip, "slip velocity")
    x_nodes = _x_grid(args) if args.command == "profile" else None

    if args.command == "inverse":
        series, _ = build_series_inv(config.order)
        rows = [(f"W_{n}", c) for n, c in enumerate(series.coefficients)]
        rows.append(("gradient", gradient(series, config.q, args.slip)))
        _rows_out(rows, ("quantity", "value"), fmt, args)
        return 0

    series, densities = build_series_fwd(config.order)

    if args.command == "coeffs":
        rows = [(f"V_{n}", c) for n, c in enumerate(series.coefficients)]
        rows.append(("slip_velocity", slip_velocity(series, config.q, config.gradient)))
        _rows_out(rows, ("quantity", "value"), fmt, args)
    elif args.command == "wall":
        u0 = wall_velocity(config, series, densities)
        _rows_out([("wall_velocity", u0)], ("quantity", "value"), fmt, args)
    elif args.command == "profile":
        prof = full_profile(config, x_nodes, series, densities)
        if fmt == "json":
            _emit(prof.to_json() + "\n", args)
        elif fmt == "csv":
            _emit(prof.to_csv(), args)
        else:
            header = f"{'x':>10s} {'U_total':>16s} {'U_asymptote':>16s} {'U_correction':>16s}"
            lines = [header] + [
                f"{x:10.4f} {t:16.9g} {a:16.9g} {c:16.9g}"
                for x, t, a, c in zip(prof.x_nodes, prof.total, prof.asymptote, prof.correction)
            ]
            _emit("\n".join(lines) + "\n", args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DiffuseLimitSingular, GridTooCoarse, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
