"""Tests for the command-line experiment runner."""

import json
import warnings

import numpy as np
import pytest

from mesoncollapse.cli import main
from mesoncollapse.master_eq import RECORD_COLUMNS


def run_cli(args):
    return main(args)


def read_table(path):
    """Parse a CSV output into (header comments, columns, rows)."""
    comments, columns, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, columns, rows


class TestExact:

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "exact.csv"
        code = run_cli(["exact", "--model", "qmupl", "--lambda", "0.2",
                        "--tmax", "3.2", "--samples", "4",
                        "--out", str(out)])
        assert code == 0
        comments, columns, rows = read_table(out)
        assert columns == list(RECORD_COLUMNS)
        assert len(rows) == 4
        assert any("version = " in c for c in comments)
        assert any("lambda = 0.2" in c for c in comments)
        p_same = float(rows[-1][1])
        p_other = float(rows[-1][2])
        assert p_same + p_other == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, tmp_path):
        out = tmp_path / "exact.json"
        assert run_cli(["exact", "--tmax", "1.0", "--samples", "2",
                        "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["columns"] == list(RECORD_COLUMNS)
        assert len(doc["rows"]) == 2
        assert doc["config"]["tmax"] == 1.0


class TestDeterminism:

    def test_byte_identical_output(self, tmp_path):
        args = ["ensemble", "--model", "qmupl", "--lambda", "0.2",
                "--tmax", "0.5", "--samples", "2", "--dt", "0.01",
                "--ntraj", "30", "--seed", "5", "--grid-points", "64",
                "--integrator", "ito-nonlinear"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConfigFile:

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("lambda = 0.2\ntmax = 2.0\nsamples = 2\n")
        out = tmp_path / "out.csv"
        assert run_cli(["exact", "--config", str(cfg), "--samples", "3",
                        "--out", str(out)]) == 0
        comments, _, rows = read_table(out)
        assert len(rows) == 3  # flag wins over the file
        assert any("tmax = 2.0" in c for c in comments)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("lambduh = 0.2\n")
        assert run_cli(["exact", "--config", str(cfg)]) == 2

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# an experiment\n\nlambda = 0.1  # coupling\n")
        out = tmp_path / "out.csv"
        assert run_cli(["exact", "--config", str(cfg), "--samples", "1",
                        "--out", str(out)]) == 0


class TestExitCodes:

    def test_invalid_parameter_is_config_error(self):
        assert run_cli(["exact", "--lambda", "-1"]) == 2

    @pytest.mark.parametrize("args", [
        ["exact", "--lambda", "nan"],
        ["exact", "--tmax", "nan"],
        ["exact", "--tmax", "inf"],
        ["me", "--lambda", "inf"],
        ["me", "--dt", "0"],
        ["me", "--dt", "nan"],
        ["ensemble", "--dt", "-0.01"],
        ["theta-check", "--eps", "nan"],
        ["exact", "--grid-extent", "0"],
    ])
    def test_non_finite_or_non_positive_is_config_error(self, args, tmp_path,
                                                        capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(args + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()  # no NaN rows written

    def test_bad_worker_env_is_config_error(self, monkeypatch, tmp_path,
                                            capsys):
        monkeypatch.setenv("MESONCOLLAPSE_WORKERS", "abc")
        code = run_cli(["ensemble", "--tmax", "0.02", "--samples", "1",
                        "--dt", "0.01", "--ntraj", "2", "--grid-points", "64",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "MESONCOLLAPSE_WORKERS" in capsys.readouterr().err

    def test_numerical_error_status(self, tmp_path):
        # CSL smearing unresolved by the grid -> numerical failure (1)
        code = run_cli(["me", "--model", "csl", "--gamma", "0.1",
                        "--rc", "0.05", "--grid-points", "64",
                        "--tmax", "0.1", "--samples", "1", "--dt", "0.05",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_compare_pass_exit_zero(self, tmp_path):
        code = run_cli(["compare", "--model", "qmupl", "--lambda", "0.2",
                        "--tmax", "1.0", "--samples", "2", "--dt", "0.005",
                        "--ntraj", "300", "--seed", "7",
                        "--grid-points", "64",
                        "--out", str(tmp_path / "cmp.csv")])
        assert code == 0
        comments, columns, rows = read_table(tmp_path / "cmp.csv")
        assert "verdict" in columns
        assert all(r[-1] == "PASS" for r in rows)
        assert any("verdict = PASS" in c for c in comments)


    def test_compare_nonlinear_coarse_dt_finite(self, tmp_path):
        """lam dt = 5: the collapse kind still runs to a verdict with
        finite cells instead of failing on the step size."""
        out = tmp_path / "cmp.csv"
        code = run_cli(["compare", "--model", "qmupl", "--lambda", "50",
                        "--tmax", "1.0", "--samples", "2", "--dt", "0.1",
                        "--ntraj", "20", "--seed", "3", "--grid-points", "64",
                        "--integrator", "ito-nonlinear", "--out", str(out)])
        assert code in (0, 1)
        _, _, rows = read_table(out)
        assert len(rows) == 2
        assert all(np.isfinite(float(cell)) for row in rows for cell in row[:6])


class TestThetaCheck:

    def test_sweep_approaches_half(self, tmp_path):
        out = tmp_path / "theta.csv"
        assert run_cli(["theta-check", "--tmax", "1.0",
                        "--mollifier", "asymmetric-triangle",
                        "--ntraj", "500", "--seed", "2",
                        "--out", str(out)]) == 0
        _, columns, rows = read_table(out)
        assert columns[:3] == ["eps", "i_epsilon", "theta_zero"]
        i_eps = np.array([float(r[1]) for r in rows])
        theta = np.array([float(r[2]) for r in rows])
        # sweep eps = t/10, t/30, t/100: monotone approach to 1/2
        assert np.all(np.diff(np.abs(i_eps - 0.5)) <= 1e-12)
        assert np.allclose(theta, 1.0 - i_eps)
        assert abs(i_eps[-1] - 0.5) < 1e-3


class TestMeAndDyson:

    def test_me_matches_exact_closed_form(self, tmp_path):
        a, b = tmp_path / "me.csv", tmp_path / "exact.csv"
        common = ["--model", "qmupl", "--lambda", "0.2", "--tmax", "2.0",
                  "--samples", "4", "--grid-points", "128"]
        assert run_cli(["me"] + common + ["--dt", "0.01", "--out", str(a)]) == 0
        assert run_cli(["exact"] + common + ["--out", str(b)]) == 0
        _, _, me_rows = read_table(a)
        _, _, exact_rows = read_table(b)
        for m, e in zip(me_rows, exact_rows):
            assert float(m[1]) == pytest.approx(float(e[1]), abs=1e-8)

    def test_dyson_source_column(self, tmp_path):
        out = tmp_path / "dyson.csv"
        assert run_cli(["dyson", "--model", "qmupl", "--lambda", "0.01",
                        "--tmax", "1.0", "--samples", "2", "--order", "1",
                        "--out", str(out)]) == 0
        _, _, rows = read_table(out)
        assert all(r[-1] == "dyson-1" for r in rows)

    def test_dyson_overflow_is_numerical_error(self, tmp_path, capsys):
        """A diverging truncation is a numerical failure, not NaN rows."""
        out = tmp_path / "dyson.csv"
        code = run_cli(["dyson", "--model", "qmupl", "--lambda", "1e300",
                        "--tmax", "1", "--samples", "2", "--grid-points", "64",
                        "--out", str(out)])
        assert code == 1
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()

    def test_dyson_overflow_prints_no_warning(self, capsys):
        """The diverging truncation exits 1 with no rows and no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(["dyson", "--model", "qmupl", "--lambda", "1e300",
                            "--tmax", "1", "--samples", "2",
                            "--grid-points", "64"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "RuntimeWarning" not in captured.err
        assert "numerical error" in captured.err
