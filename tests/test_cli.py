"""Tests for the command-line experiment runner."""

import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mesoncollapse import DensityBlocks, build_csl
from mesoncollapse.cli import _SCHEMA, build_parser, main
from mesoncollapse.master_eq import RECORD_COLUMNS


ROOT = Path(__file__).resolve().parent.parent


def run_cli(args):
    return main(args)


def run_cli_process(args, script=None, env=None):
    """The CLI in a fresh interpreter: (exit status, stdout, stderr).

    ``script`` replaces ``-m mesoncollapse.cli`` with ``-c script``; it
    receives ``args`` as ``sys.argv[1:]``.  ``env`` entries override the
    inherited environment."""
    env = os.environ | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    entry = ["-c", script] if script else ["-m", "mesoncollapse.cli"]
    proc = subprocess.run([sys.executable] + entry + args,
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# a non-positive mL, or an m0^2, rC^2, dm^2 or CSL self-overlap g*g(0)
# outside the float range: config errors
_OUT_OF_RANGE_MASSES_AND_LENGTHS = [
    ["exact", "--dm", "1e200", "--samples", "2"],
    ["exact", "--m0", "1e200", "--dm", "1e199", "--samples", "2"],
    ["exact", "--model", "csl", "--gamma", "1", "--rc", "1e200"],
    ["me", "--model", "csl", "--gamma", "1", "--rc", "1e200"],
    ["compare", "--model", "csl", "--gamma", "1", "--rc", "1e200"],
    ["exact", "--model", "csl", "--gamma", "1", "--rc", "1e-200"],
    ["me", "--dm", "1e200"],
    ["dyson", "--dm", "1e200"],
    ["exact", "--m0", "1e-200", "--dm", "1e-201"],
    ["exact", "--dm", "3"],
    ["exact", "--model", "csl", "--gamma", "1", "--rc", "1e-150", "--dim", "3"],
    ["me", "--model", "csl", "--gamma", "1", "--rc", "1e-150", "--dim", "3"],
]

# routes whose 1-D result does not extend to dim 3: the CSL rate is a product
# over coordinates, and a truncated series of a sum is no product of series
_UNSUPPORTED_DIMENSIONS = [
    ["me", "--model", "csl", "--gamma", "0.4", "--rc", "0.5", "--dim", "3",
     "--tmax", "2", "--samples", "1", "--grid-points", "160",
     "--grid-extent", "16"],
    ["dyson", "--lambda", "0.2", "--dim", "3"],
]


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

    @pytest.mark.parametrize("command", ["exact", "me", "ensemble", "dyson",
                                         "theta-check", "compare"])
    def test_value_outside_its_set_is_config_error(self, command, tmp_path,
                                                   capsys):
        """A file value gets the checks of the same value given as a flag."""
        for line in ("integrator = foo", "mollifier = foo", "model = foo",
                     "format = xml", "dim = 2", "order = 3", "seed = -1",
                     "samples = 0", "dt = nan"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            assert run_cli([command, "--config", str(cfg)]) == 2, line
            assert "config error" in capsys.readouterr().err, line

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
        ["ensemble", "--seed", "-1", "--ntraj", "2", "--grid-points", "32"],
        ["compare", "--seed", "-1", "--ntraj", "2", "--grid-points", "32"],
        ["theta-check", "--seed", "-1", "--ntraj", "100"],
        ["exact", "--tmax", "1e308", "--samples", "2"],
        ["compare", "--tmax", "1", "--dt", "5e-324", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],
        # numpy refuses the first sample array; the second wraps to empty
        ["exact", "--samples", "4611686018427387904"],
        ["exact", "--samples", "9223372036854775806"],
    ])
    def test_non_finite_or_non_positive_is_config_error(self, args, tmp_path,
                                                        capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(args + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()  # no NaN rows written

    def test_unwritable_out_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run_cli(["exact", "--samples", "2", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS and /proc/self/statm are Linux's")
    @pytest.mark.parametrize("args", [
        ["exact", "--samples", "1000000000"],
        ["me", "--grid-points", "20000", "--tmax", "1000", "--samples",
         "100000", "--dt", "0.01"],
    ])
    def test_out_of_memory_is_config_error(self, args, tmp_path):
        """The child caps its own address space 1 GiB above its size after
        import, so the multi-GB request fails without being allocated.  The
        ``me`` request is its (times, points) series, 32 GB."""
        script = (
            "import os, resource, sys\n"
            "from mesoncollapse.cli import main\n"
            "size = int(open('/proc/self/statm').read().split()[0])\n"
            "limit = size * os.sysconf('SC_PAGE_SIZE') + (1 << 30)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "sys.exit(main(sys.argv[1:]))\n")
        out = tmp_path / "x.csv"
        code, _, err = run_cli_process(args + ["--out", str(out)], script)
        assert code == 2
        assert "config error: out of memory" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--dim", "3"],
        ["--integrator", "wong-zakai", "--eps", "1e-320"],
        ["--seed", "-1"],
        ["--tmax", "1", "--dt", "5e-324"],
        ["--ntraj", "0"],
    ])
    def test_ensemble_and_compare_reject_alike(self, args, capsys):
        common = ["--ntraj", "2", "--samples", "1", "--tmax", "0.01",
                  "--dt", "0.01", "--grid-points", "32"]
        codes = [run_cli([command] + common + args)
                 for command in ("ensemble", "compare")]
        assert codes == [2, 2]
        err = capsys.readouterr().err
        assert err.count("config error") == 2

    def test_wong_zakai_dt_above_eps_over_4_is_numerical_error(self):
        code, _, err = run_cli_process(
            ["compare", "--integrator", "wong-zakai", "--eps", "0.04",
             "--dt", "0.0100001", "--tmax", "0.1", "--samples", "2",
             "--ntraj", "2", "--grid-points", "32"])
        assert code == 1
        assert err.count("numerical error:") == 1
        assert "exceeds eps/4" in err and "Traceback" not in err

    def test_worker_env_is_not_read(self, monkeypatch, capsys):
        """Ensembles run in one process: MESONCOLLAPSE_WORKERS, once a worker
        count, is ignored, whatever its value."""
        args = ["ensemble", "--tmax", "0.02", "--samples", "1", "--dt", "0.01",
                "--ntraj", "2", "--grid-points", "64"]
        monkeypatch.setenv("MESONCOLLAPSE_WORKERS", "abc")
        assert run_cli(args) == 0
        ignored = capsys.readouterr()
        monkeypatch.delenv("MESONCOLLAPSE_WORKERS")
        assert run_cli(args) == 0
        assert capsys.readouterr() == ignored

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

    @pytest.mark.parametrize("kind", ["ito-nonlinear", "ito-linear",
                                      "stratonovich"])
    def test_compare_agreeing_trajectories_pass(self, kind, tmp_path):
        """At lam = 0 every trajectory agrees to rounding, so the stderr is
        floored at the rounding level of a probability and a difference of
        a few ulps passes; the printed stderr is the floored one."""
        out = tmp_path / "cmp.csv"
        code = run_cli(["compare", "--integrator", kind, "--ntraj", "10",
                        "--tmax", "0.2", "--samples", "2", "--out", str(out)])
        assert code == 0
        _, columns, rows = read_table(out)
        for row in rows:
            cell = dict(zip(columns, row))
            assert cell["verdict"] == "PASS"
            z = ((float(cell["p_ensemble"]) - float(cell["p_exact"]))
                 / float(cell["stderr_ensemble"]))
            assert float(cell["z_score"]) == pytest.approx(z, rel=1e-12)

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

    @pytest.mark.parametrize("args", [
        ["theta-check", "--tmax", "1", "--eps", "1e-300", "--ntraj", "100"],
        ["theta-check", "--tmax", "1", "--eps", "1e300", "--ntraj", "100"],
        ["theta-check", "--tmax", "1", "--eps", "5e-324", "--ntraj", "100"],
        ["theta-check", "--tmax", "1", "--eps", "1e308", "--ntraj", "100"],
        ["theta-check", "--tmax", "1.7e308", "--eps", "1e306", "--ntraj", "100"],
        ["me", "--lambda", "1e300", "--tmax", "1", "--samples", "2",
         "--grid-points", "32"],
        ["ensemble", "--lambda", "1e300", "--tmax", "0.01", "--dt", "0.001",
         "--samples", "2", "--ntraj", "4", "--grid-points", "32"],
        ["ensemble", "--integrator", "ito-linear", "--tmax", "1", "--dt",
         "1e-12", "--samples", "1", "--ntraj", "1", "--grid-points", "32"],
        ["me", "--tmax", "1", "--dt", "1e-300", "--samples", "2"],
        ["ensemble", "--tmax", "1", "--dt", "1e-300", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],
        ["me", "--tmax", "1", "--dt", "5e-324", "--samples", "2"],
        ["ensemble", "--tmax", "1", "--dt", "5e-324", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],
        ["compare", "--tmax", "1", "--dt", "5e-324", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],
        ["exact", "--tmax", "1e308", "--samples", "2"],
        ["exact", "--samples", "4611686018427387904"],
        ["ensemble", "--integrator", "ito-nonlinear", "--tmax", "1", "--dt",
         "1e-12", "--samples", "1", "--ntraj", "1", "--grid-points", "32"],
        ["exact", "--model", "csl", "--gamma", "1e307", "--rc", "0.001",
         "--samples", "2"],
    ] + _OUT_OF_RANGE_MASSES_AND_LENGTHS + _UNSUPPORTED_DIMENSIONS)
    def test_extreme_values_keep_exit_contract(self, args):
        """0, 1 or 2, never a traceback or a numpy warning, and no NaN cell
        on success."""
        code, out, err = run_cli_process(args)
        assert code in (0, 1, 2)
        if args in _OUT_OF_RANGE_MASSES_AND_LENGTHS + _UNSUPPORTED_DIMENSIONS:
            assert code == 2 and err.startswith("config error:")
            assert out == "" and err.count("\n") == 1
        assert "Traceback" not in err
        assert "Warning" not in err
        if code == 0:
            assert "nan" not in out.lower()
        if "1e-12" in args:
            # xi and W are drawn only at the sample times, so 1e12 steps
            # cost nothing, for the linear and the collapse kind alike
            rows = [line.split(",") for line in out.splitlines()
                    if line and not line.startswith("#")][1:]
            assert code == 0 and len(rows) == 1
            assert all(np.isfinite(float(cell)) for cell in rows[0][:5])


class TestOptionTable:

    def test_one_flag_per_key_from_the_table(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        for command, p in sub.choices.items():
            flags = [a for a in p._actions if a.dest not in ("help", "config")]
            assert sorted(a.dest for a in flags) == sorted(_SCHEMA), command
            for action in flags:
                kind, _, allowed, _ = _SCHEMA[action.dest]
                assert action.option_strings == [
                    "--" + action.dest.replace("_", "-")]
                assert action.type is kind
                assert action.default is None  # a file value is not overridden
                assert action.choices == (allowed if isinstance(allowed, tuple)
                                          else None)


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

    def test_me_rejects_a_dim_before_building_anything(self, monkeypatch,
                                                       capsys):
        """CSL me at dim 3 exits 2 without building the density."""
        def refuse(cls, state):
            raise AssertionError("density built for a rejected dim")
        monkeypatch.setattr(DensityBlocks, "from_state", classmethod(refuse))
        assert run_cli(_UNSUPPORTED_DIMENSIONS[0]) == 2
        assert "supports dim=1 only" in capsys.readouterr().err

    def test_me_calls_the_builder_bound_in_cli(self, monkeypatch, capsys):
        """The model builder is looked up by name when ``me`` runs, so a
        rebinding of ``cli.build_csl`` (a spy, a timing wrapper) is called."""
        from mesoncollapse import cli
        calls = []

        def spy(params, grid):
            calls.append(grid.n_points)
            return build_csl(params, grid)
        monkeypatch.setattr(cli, "build_csl", spy)
        assert run_cli(["me", "--model", "csl", "--gamma", "0.4",
                        "--grid-points", "32", "--tmax", "0.2", "--samples",
                        "2", "--dt", "0.01"]) == 0
        assert calls == [32]
        assert "me-numeric" in capsys.readouterr().out

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


# runs the CLI, then prints which of the named modules the process loaded
_LOADED_SCRIPT = (
    "import sys\n"
    "from mesoncollapse.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print('loaded:', [m for m in sys.argv[1].split(',') if m in sys.modules],\n"
    "      file=sys.stderr)\n"
    "sys.exit(code)\n")

# CSL on 96 points: 4 sample segments x 96 channels of normals and one
# 96 x 2 complex amplitude row fit the noise cap more than 2500 times over,
# the largest chunk, so 2600 trajectories run as two chunks
_TWO_CHUNK_COMPARE = [
    "compare", "--model", "csl", "--gamma", "0.3", "--rc", "1.0",
    "--grid-points", "96", "--grid-extent", "16",
    "--integrator", "stratonovich", "--tmax", "2", "--dt", "0.001",
    "--samples", "4", "--ntraj", "2600", "--seed", "3"]


class TestStartup:
    """Modules one command path needs are imported inside that path."""

    def test_exact_loads_no_pool_json_polynomial_or_random(self):
        heavy = ("concurrent.futures", "multiprocessing", "json",
                 "numpy.polynomial", "numpy.random")
        code, out, err = run_cli_process(
            [",".join(heavy), "exact", "--tmax", "1", "--samples", "2"],
            _LOADED_SCRIPT)
        assert code == 0
        assert out.count("\n") > 2  # the CSV table was written
        assert err.strip() == "loaded: []"

    @pytest.mark.parametrize("args", [
        ["me", "--tmax", "1", "--samples", "3", "--grid-points", "64"],
        ["ensemble", "--tmax", "0.1", "--dt", "0.01", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],
        ["compare", "--tmax", "0.1", "--dt", "0.01", "--samples", "2",
         "--ntraj", "4", "--grid-points", "32"],            # one chunk
        ["dyson", "--tmax", "1", "--samples", "2"],
        ["theta-check", "--tmax", "1", "--ntraj", "100"],
    ], ids=lambda args: args[0])
    def test_no_command_loads_numpy_ma(self, args):
        """Distinct sample times and steps come from sets: ``np.unique``
        would import numpy.ma on its first call."""
        code, _, err = run_cli_process(["numpy.ma"] + args, _LOADED_SCRIPT)
        assert code == 0, err
        assert "loaded: []" in err

    def test_two_chunk_compare_ignores_worker_env(self, monkeypatch):
        """Two chunks run in this process whatever MESONCOLLAPSE_WORKERS
        says: no pool module is loaded, and the bytes are those of a run
        without the variable."""
        monkeypatch.delenv("MESONCOLLAPSE_WORKERS", raising=False)
        outputs = []
        for env in ({}, {"MESONCOLLAPSE_WORKERS": "2"}):
            code, out, err = run_cli_process(
                ["concurrent.futures"] + _TWO_CHUNK_COMPARE, _LOADED_SCRIPT,
                env=env)
            assert code == 0, err
            assert "loaded: []" in err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_theta_check_json_in_fresh_process(self):
        code, out, err = run_cli_process(
            ["theta-check", "--tmax", "1", "--ntraj", "200", "--format", "json"])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["columns"][:3] == ["eps", "i_epsilon", "theta_zero"]
        eps, _, theta_zero = doc["rows"][-1][:3]
        assert eps == pytest.approx(1.0 / 100.0)
        assert abs(theta_zero - 0.5) < 1e-3


class TestBenchTrace:
    """The benchmark's tracing wrapper still sees what it measures."""

    def test_traced_me_counts_the_density_and_the_build(self):
        n, steps = 32, 20
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                       if p))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "trace_cli.py"), "me",
             "--model", "csl", "--gamma", "0.4", "--grid-points", str(n),
             "--tmax", "0.2", "--samples", "2", "--dt", "0.01"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines()
                 if line.startswith("BENCH-TRACE ")]
        assert len(lines) == 1
        trace = json.loads(lines[0][len("BENCH-TRACE "):])
        assert trace["sums"]["master_eq.me_bytes"] == 16 * 4 * n * n * steps
        assert trace["inclusive"].get("models.build", 0) > 0
        assert trace["maxes"]["models.channel_bytes"] > 0
        assert trace["missing"] == []
