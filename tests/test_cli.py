"""Command line interface: outputs, formats, exit codes, determinism.

Low truncation orders keep these runs cheap; the numbers themselves are
covered by the acceptance suite.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kramers
from kramers import build_series_fwd, build_series_inv
from kramers.cli import main


# an --out path in a directory that does not exist
MISSING_DIR = os.path.join("{dir}", "missing", "x.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--order", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["V_0"] == pytest.approx(0.886227, abs=1e-6)
        assert data["V_1"] == pytest.approx(0.140523, abs=2e-4)
        assert data["slip_velocity"] == pytest.approx(1.02675, abs=3e-4)

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--order", "0", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "quantity,value"
        assert lines[1].startswith("V_0,")


class TestInverse:
    def test_gradient_from_slip(self, capsys):
        code, out, _ = run(capsys, "inverse", "--order", "1", "--slip", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["W_0"] == pytest.approx(1.128379, abs=1e-6)
        assert data["gradient"] == pytest.approx(0.949460, abs=5e-4)

    def test_requires_slip(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["inverse", "--order", "0"])
        assert exc.value.code == 2
        assert "--slip" in capsys.readouterr().err


class TestProfile:
    def test_csv_deterministic(self, capsys):
        args = ("profile", "--order", "0", "--xmax", "2", "--xstep", "1",
                "--format", "csv")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.split("\n")[0] == "x,U_total,U_asymptote,U_correction"

    def test_q_zero_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "profile", "--order", "0", "--q", "0")
        assert code == 1
        assert "q = 0" in err

    def test_bad_step_rejected(self, capsys):
        code, _, _ = run(capsys, "profile", "--order", "0", "--xstep", "-1")
        assert code == 2

    @pytest.mark.parametrize("grid", [("--xmax", "inf"), ("--xmax", "nan"), ("--xstep", "inf"),
                                      ("--xmax", "1e300", "--xstep", "1e-300"),
                                      ("--xmax", "1e15", "--xstep", "1")])
    def test_non_finite_x_grid_rejected(self, capsys, grid):
        """An infinite x-range, or more x-points than MAX_X_POINTS, is an
        argument error (exit 2), not an uncaught OverflowError or
        MemoryError."""
        code, out, err = run(capsys, "profile", "--order", "0", *grid)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "prof.csv"
        code, out, _ = run(capsys, "profile", "--order", "0", "--xmax", "1",
                           "--xstep", "1", "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("x,U_total")


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_bad_q_value(self, capsys):
        code, _, _ = run(capsys, "coeffs", "--order", "0", "--q", "2.0")
        assert code == 2

    @pytest.mark.parametrize("argv", [("coeffs", "--slip", "1"),
                                      ("inverse", "--gradient", "1", "--slip", "1"),
                                      ("coeffs", "--nodes", "32"),
                                      ("wall", "--tol", "1e-7"),
                                      ("profile", "--nodes", "8"),
                                      ("inverse", "--slip", "1", "--tol", "1e-9")])
    def test_drive_belongs_to_its_command(self, capsys, argv):
        """coeffs, wall and profile take --gradient only, inverse --slip only;
        no command takes --nodes or --tol, the resolution is the build's."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--order", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [("inverse", "--slip", "inf"),
                                      ("coeffs", "--gradient", "nan"),
                                      ("inverse", "--slip", "1", "--order", "13"),
                                      ("inverse", "--slip", "1", "--q", "-0.5")])
    def test_non_finite_or_out_of_range(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [("inverse", "--slip", "inf", "--order", "12"),
                                      ("inverse", "--slip", "nan"),
                                      ("coeffs", "--gradient=-inf"),
                                      ("profile", "--xmax", "inf"),
                                      ("profile", "--xmax", "1e15", "--xstep", "1"),
                                      ("wall", "--order", "0", "--out", MISSING_DIR),
                                      ("profile", "--order", "0", "--out", MISSING_DIR),
                                      ("validate", "--out", MISSING_DIR),
                                      ("wall", "--order", "0", "--out", "{dir}")])
    def test_checked_before_the_build(self, capsys, monkeypatch, tmp_path, argv):
        """A bad drive, x-grid or --out path is rejected before any series is
        built."""
        def no_build(*args, **kwargs):
            raise AssertionError("series built before the arguments were checked")

        # the CLI imports these where it needs them, so it reads the patched
        # names; validation goes first, so that its import (and profile's)
        # binds forward's own builds, not no_build.  wall and profile build
        # through profile, which bound forward's build when it was imported
        monkeypatch.setattr("kramers.validation.run_reference_checks", no_build)
        monkeypatch.setattr("kramers.forward.build_series_fwd", no_build)
        monkeypatch.setattr("kramers.forward.build_series_inv", no_build)
        monkeypatch.setattr("kramers.profile.build_series_fwd", no_build)
        code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("coeffs", "--q", "5e-324", "--order", "0"),
                                      ("coeffs", "--gradient", "1e308", "--q", "1e-10",
                                       "--order", "0"),
                                      ("inverse", "--slip", "1.7e308", "--order", "0"),
                                      ("wall", "--q", "1e-320", "--order", "0"),
                                      ("profile", "--q", "1e-320", "--order", "0", "--xmax", "1"),
                                      ("profile", "--gradient", "1.7e308", "--order", "0",
                                       "--xmax", "1", "--format", "json")])
    def test_non_finite_result_is_a_failure(self, capsys, argv):
        """Finite arguments whose result overflows print no inf or nan: one
        failure line, exit 1, and no warning."""
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_unwritable_out(self, capsys, tmp_path):
        """An OSError while writing --out is an argument error, not a
        numerical failure."""
        code, out, err = run(capsys, "wall", "--order", "0", "--out", str(tmp_path / ("x" * 300)))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out") and err.count("\n") == 1


class TestValidate:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "validate", "--json")
        data = json.loads(out)
        assert data["passed"] is (code == 0)
        assert code == 0, [c["name"] for c in data["checks"] if not c["passed"]]
        names = {c["name"] for c in data["checks"]}
        assert "slip coefficient V_0" in names
        assert "gradient coefficient W_3" in names
        assert "reciprocity V*W order 3" in names

    @pytest.mark.parametrize("option", ["--q", "--order", "--nodes", "--tol"])
    def test_solve_options_rejected(self, capsys, option):
        """validate runs at fixed settings, so a solve option is an error,
        not an ignored argument."""
        with pytest.raises(SystemExit) as exc:
            main(["validate", option, "1"])
        assert exc.value.code == 2
        assert option in capsys.readouterr().err


def cold_python(code: str, *argv: str) -> str:
    """stdout of ``code`` run by a fresh interpreter that imports this kramers."""
    package_root = str(Path(kramers.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs that need no iterate: argument errors, the q = 0 failure, order 0 of coeffs and inverse
NUMPY_FREE = [(("--help",), 0),
              (("--version",), 0),
              (("coeffs", "--q", "2"), 2),
              (("coeffs", "--order", "13"), 2),
              (("inverse", "--slip", "nan"), 2),
              (("profile", "--xmax", "inf"), 2),
              (("coeffs", "--order", "0", "--out", "/nonexistent/x"), 2),
              (("profile", "--q", "0", "--order", "0"), 1),
              (("wall", "--q", "0"), 1),
              (("coeffs", "--order", "0", "--json"), 0),
              (("inverse", "--slip", "1", "--order", "0"), 0)]
# the modules none of them loads; json loads only for JSON output
COLD_UNLOADED = ("numpy", "dataclasses", "inspect", "json")


class TestImport:
    def test_no_scipy_at_runtime(self):
        """A cold CLI run that builds an iterate loads numpy but no scipy module."""
        out = cold_python(
            "import sys, kramers.cli\n"
            "assert kramers.cli.main(['wall', '--order', '0']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.splitlines()[-2:] == ["[]", "True"]

    def test_numpy_free_runs(self):
        """Each run in NUMPY_FREE exits with its code and leaves numpy,
        dataclasses and inspect unloaded, and json too unless it writes JSON.
        One interpreter makes the runs, those without --json first; it imports
        none of these modules itself."""
        runs = sorted(NUMPY_FREE, key=lambda run: "--json" in run[0])
        out = cold_python(
            "import contextlib, io, sys\n"
            f"watched = {COLD_UNLOADED!r}\n"
            "print(*(m in sys.modules for m in watched))\n"
            "from kramers.cli import main\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            code = main(argv.split())\n"
            "        except SystemExit as exc:\n"
            "            code = exc.code\n"
            "    print(code, *(m in sys.modules for m in watched))\n",
            *(" ".join(argv) for argv, _ in runs),
        )
        lines = [line.split() for line in out.splitlines()]
        assert lines[0] == ["False"] * len(COLD_UNLOADED)
        assert lines[1:] == [
            [str(code), *(str(m == "json" and "--json" in argv) for m in COLD_UNLOADED)]
            for argv, code in runs]

    def test_exports(self):
        """Each name of __all__ is its module's own object and is listed by
        dir(); any other name is an AttributeError."""
        for name in kramers.__all__:
            module = importlib.import_module(f"kramers.{kramers._MODULE_OF[name]}")
            value = getattr(kramers, name)
            assert value is getattr(module, name)
            if callable(value):
                assert value.__module__ == module.__name__
            assert name in dir(kramers)
        with pytest.raises(AttributeError):
            kramers.no_such_name

    def test_order0_series_is_the_build(self, capsys):
        """Order 0 prints the exact c_0 that the order-0 build holds."""
        _, out, _ = run(capsys, "coeffs", "--order", "0", "--json")
        assert json.loads(out)["V_0"] == build_series_fwd(0)[0].coefficients[0]
        _, out, _ = run(capsys, "inverse", "--slip", "1", "--order", "0", "--json")
        assert json.loads(out)["W_0"] == build_series_inv(0)[0].coefficients[0]
