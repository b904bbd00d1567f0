"""Command line interface: outputs, formats, exit codes, determinism.

Low truncation orders keep these runs cheap; the numbers themselves are
covered by the acceptance suite.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kramers
from kramers.cli import main


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
                                      ("profile", "--xmax", "1e15", "--xstep", "1")])
    def test_checked_before_the_build(self, capsys, monkeypatch, argv):
        """A bad drive or x-grid is rejected before any series is built."""
        def no_build(*args, **kwargs):
            raise AssertionError("series built before the arguments were checked")

        monkeypatch.setattr("kramers.cli.build_series_fwd", no_build)
        monkeypatch.setattr("kramers.cli.build_series_inv", no_build)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")


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


class TestImport:
    def test_no_scipy_at_runtime(self):
        """A cold CLI run loads numpy but no scipy module."""
        code = (
            "import sys, kramers.cli\n"
            "assert kramers.cli.main(['wall', '--order', '0']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        package_root = str(Path(kramers.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
