"""Command line interface.

Subcommands:
  coeffs    slip-coefficient expansion V_n and the slip velocity at given q
  inverse   gradient expansion W_n and the gradient recovered from a slip value
  wall      gas velocity at the wall for given q
  profile   velocity profile U(x) on a uniform x-grid
  validate  recompute the built-in reference checks

Exit status: 0 on success, 1 on a numerical failure, 2 on bad arguments or
an --out file that cannot be written.  A numerical failure is the library's
``NumericalFailure``; a result that overflows to inf or nan is one, raised
by the readout that computes it.  Identical invocations produce
byte-identical output.

``run()``, the entry point of the ``kramers`` script and of ``python -m
kramers.cli``, exits with ``main()``'s status after ``gc.freeze()``, so that
the interpreter's closing collections skip what the run left alive; atexit
handlers and the flush of stdout and stderr run as ever.  ``main()`` alone,
as an in-process caller runs it, leaves the collector as it is.

Every argument is checked before numpy loads.  numpy and the modules that
build iterates load only for a command that needs an iterate: ``coeffs`` and
``inverse`` at order 0 print the exact c_0 of ``kramers.series`` without one.
JSON rows are written here; ``json`` loads only for the JSON of ``profile``
and ``validate``.

Each option is declared once, in ``_OPTIONS``.  An argv of the plain form
``command (--flag value | --json)*`` is read by a short scan over that
table; argparse, the one source of usage, help and error text, loads only
for help, ``--version``, an argument error or another form of the same
options (an abbreviated flag, ``--flag=value``, ``--`` or a value that
starts with ``-``).
"""
import gc
import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .series import (EXACT_C0, DiffuseLimitSingular, NumericalFailure, ProblemConfig,
                     SeriesExpansion, check_finite, gradient, slip_velocity)

__all__ = ["main", "run"]

# bounds the run time: 100,001 x-points at order 3 take about 4 s on a
# 2-vCPU Xeon (memory stays flat, the transform works in fixed blocks of x)
MAX_X_POINTS = 100_001


# each command and its help, in the order --help lists them
_COMMANDS = {
    "coeffs": "slip-coefficient expansion",
    "inverse": "gradient expansion from an imposed slip",
    "wall": "wall velocity",
    "profile": "velocity profile",
    # the reference checks run at fixed settings, so validate takes no solve options
    "validate": "run the reference checks",
}
_ALL = tuple(_COMMANDS)
_SOLVE = ("coeffs", "inverse", "wall", "profile")
_DRIVEN = ("coeffs", "wall", "profile")
_REQUIRED = object()  # the default of an option that must be given

# each option once: flag -> (kind, default, help, commands).  kind is the
# type of the value, a tuple of its choices, or bool for a switch; a
# command's --help lists its options in this order
_OPTIONS = {
    "--q": (float, 1.0, "accommodation coefficient in [0, 1]", _SOLVE),
    "--order": (int, 3, "series truncation order N", _SOLVE),
    "--format": (("table", "csv", "json"), None,
                 "output format (default: table on a terminal, csv otherwise)", _ALL),
    "--json": (bool, False, "shorthand for --format json", _ALL),
    "--out": (str, None, "write output to this file instead of stdout", _ALL),
    "--gradient": (float, 1.0, "velocity gradient (default 1)", _DRIVEN),
    "--slip": (float, _REQUIRED, "imposed slip velocity", ("inverse",)),
    "--xmax": (float, 10.0, "largest x value", ("profile",)),
    "--xstep": (float, 0.5, "x-grid spacing", ("profile",)),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="kramers", description="Slip-flow solver for the half-space shear problem"
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, command_help in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for flag, (kind, default, text, commands) in _OPTIONS.items():
            if command not in commands:
                continue
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=default, help=text)
            elif default is _REQUIRED:
                p.add_argument(flag, type=kind, required=True, help=text)
            else:
                p.add_argument(flag, type=kind, default=default, help=text)
    return parser


def _scan(argv) -> SimpleNamespace | None:
    """The arguments of the plain form ``command (--flag value | --json)*``
    as ``_build_parser().parse_args(argv)`` gives them, or None for
    any other argv: help, --version, an abbreviated flag, ``--flag=value``,
    ``--``, a value that starts with ``-``, or anything argparse rejects."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    options = {flag: entry for flag, entry in _OPTIONS.items() if command in entry[3]}
    args = {"command": command, **{flag[2:]: entry[1] for flag, entry in options.items()}}
    rest = iter(argv[1:])
    for flag in rest:
        if flag not in options:
            return None
        kind = options[flag][0]
        if kind is bool:
            args[flag[2:]] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        args[flag[2:]] = value
    if _REQUIRED in args.values():
        return None
    return SimpleNamespace(**args)


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
    """rows: list of (name, value) pairs, each name an identifier and each
    value a finite float; JSON as ``json.dumps(dict(rows), indent=2)``."""
    if fmt == "json":
        lines = ["{", ",\n".join(f'  "{name}": {float.__repr__(value)}' for name, value in rows),
                 "}"]
    elif fmt == "csv":
        lines = ["quantity,value"] + [f"{name},{value:.12g}" for name, value in rows]
    else:
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}s}  {value: .12g}" for name, value in rows]
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
    from .profile import wall_velocity

    return [("wall_velocity", wall_velocity(config))]


def _profile_text(config: ProblemConfig, xstep: float, count: int, fmt: str) -> str:
    """U(x) at x = 0, xstep, ..., (count - 1) xstep, written in ``fmt``."""
    import numpy as np

    from .profile import full_profile

    prof = full_profile(config, np.linspace(0.0, xstep * (count - 1), count))
    if fmt == "json":
        return prof.to_json() + "\n"
    return prof.to_csv() if fmt == "csv" else prof.to_table()


def _run(args) -> int:
    # every argument is checked before numpy, a build or the reference checks
    fmt = _resolve_format(args)
    if args.out:
        _check_out(args.out)
    if args.command == "validate":
        from .validation import report_text, run_reference_checks

        results = run_reference_checks()
        _emit(report_text(results, fmt), args)
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
        text = _profile_text(config, args.xstep, x_count, fmt)
    else:
        text = _rows_text(_rows(args, config), fmt)
    _emit(text, args)
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _scan(argv) or _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def run():
    """Exit with ``main()``'s status, every live object frozen."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
