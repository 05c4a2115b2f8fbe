"""Tests for the command-line experiment runner."""

import collections
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from mesoncollapse import DensityBlocks, build_csl
from mesoncollapse.cli import _COMMANDS, _SCHEMA, build_parser, entry, main
from mesoncollapse.integrators import INTEGRATOR_KINDS
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


# an empty grid, a quadrature path too long to draw, or a damping exponent
# that overflows by tmax: config errors, with no warning first
_EMPTY_GRIDS_AND_OVERFLOWS = [
    ["me", "--grid-points", "0", "--grid-extent", "8"],
    ["me", "--grid-points", "0"],
    ["compare", "--grid-points", "0", "--grid-extent", "8"],
    ["ensemble", "--grid-points", "0", "--grid-extent", "8"],
    ["dyson", "--grid-points", "0", "--grid-extent", "8"],
    ["theta-check", "--tmax", "1e10", "--eps", "1e-300"],
    ["ensemble", "--alpha", "1e10", "--lambda", "1e300", "--ntraj", "4",
     "--samples", "2", "--tmax", "0.01", "--dt", "0.01"],
    ["dyson", "--samples", "2", "--alpha", "1e10", "--lambda", "1e300"],
    ["me", "--lambda", "1e308", "--samples", "2"],
    ["exact", "--lambda", "1e308", "--samples", "2"],
    ["compare", "--lambda", "1e300", "--tmax", "1e10", "--samples", "1",
     "--dt", "1e9", "--ntraj", "4"],
    # lam max A^2 t is finite, but the collapse log-weights' -2 lam t is not
    ["ensemble", "--alpha", "1e-100", "--lambda", "1e300", "--tmax", "1e10",
     "--dt", "1e9", "--samples", "1", "--ntraj", "4", "--grid-points", "32"],
    ["compare", "--alpha", "1e-100", "--lambda", "1e300", "--tmax", "1e10",
     "--dt", "1e9", "--samples", "1", "--ntraj", "4", "--grid-points", "32"],
    # grid points whose bytes pass the largest array: rejected before numpy
    # refuses them ("array is too big") or wraps 2**63 to an empty grid
    ["me", "--grid-points", str(2 ** 60)],
    ["me", "--grid-points", str(2 ** 62)],
    ["me", "--grid-points", str(2 ** 63)],
]

# a grid that does not cover or resolve the packet, CSL smearing the grid
# does not resolve, and a Wong-Zakai step above eps/4: the config alone
# fixes each, so each is a config error
_UNRESOLVED_GRIDS_AND_STEPS = [
    ["dyson", "--grid-extent", "4", "--samples", "2"],
    ["me", "--grid-points", "16"],
    ["me", "--model", "csl", "--rc", "0.05", "--grid-points", "64"],
    ["compare", "--integrator", "wong-zakai", "--tmax", "0.1", "--samples",
     "2", "--ntraj", "4", "--grid-points", "32"],
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

    @pytest.mark.parametrize("args", [
        ["exact", "--tmax", "5e-324", "--samples", "3"],
        ["dyson", "--tmax", "5e-324", "--samples", "3", "--grid-points", "32"],
    ])
    def test_sample_times_are_distinct_and_positive(self, args, capsys):
        """tmax k / 3 underflows to 0 or repeats 5e-324: unsnapped times
        keep the distinct ones > 0, as times snapped to dt do."""
        assert run_cli(args) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")][1:]
        assert [float(row[0]) for row in rows] == [5e-324]


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
        for line in (b"integrator = foo", b"mollifier = foo", b"model = foo",
                     b"format = xml", b"dim = 2", b"order = 3", b"seed = -1",
                     b"samples = 0", b"dt = nan", b"seed = 1 \xff\xfe"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_bytes(line + b"\n")
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

    def test_wong_zakai_dt_above_eps_over_4_is_config_error(self):
        code, _, err = run_cli_process(
            ["compare", "--integrator", "wong-zakai", "--eps", "0.04",
             "--dt", "0.0100001", "--tmax", "0.1", "--samples", "2",
             "--ntraj", "2", "--grid-points", "32"])
        assert code == 2
        assert err.count("config error:") == 1
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

    def test_unresolved_csl_smearing_is_config_error(self, tmp_path):
        # CSL smearing unresolved by the grid: fixed by the config alone
        code = run_cli(["me", "--model", "csl", "--gamma", "0.1",
                        "--rc", "0.05", "--grid-points", "64",
                        "--tmax", "0.1", "--samples", "1", "--dt", "0.05",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert not (tmp_path / "x.csv").exists()

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
    ] + _OUT_OF_RANGE_MASSES_AND_LENGTHS + _UNSUPPORTED_DIMENSIONS
        + _EMPTY_GRIDS_AND_OVERFLOWS + _UNRESOLVED_GRIDS_AND_STEPS)
    def test_extreme_values_keep_exit_contract(self, args):
        """0, 1 or 2, never a traceback or a numpy warning, and no NaN cell
        on success."""
        code, out, err = run_cli_process(args)
        assert code in (0, 1, 2)
        if args in (_OUT_OF_RANGE_MASSES_AND_LENGTHS + _UNSUPPORTED_DIMENSIONS
                    + _EMPTY_GRIDS_AND_OVERFLOWS + _UNRESOLVED_GRIDS_AND_STEPS):
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


# drawn values of the size keys stay at most this, so one run takes well
# under a second; their defaults (128 points, 1000 trajectories, 10 samples)
# still run when the key is not drawn
_CAPS = {"grid_points": 64, "ntraj": 150, "samples": 3}

# the sign rules' boundaries (+-0 and the subnormal +-5e-324), the float
# range's edges and a few ordinary values; ints add the int64 edge 2**63
_FLOAT_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                 -1.0, 0.2, 1.0, 8.0)
_INT_VALUES = (-1, 0, 1, 2, 2 ** 63 - 1, 2 ** 63)


# grid sizes whose points array passes the largest array, the last by 2**63
_HUGE_GRID_POINTS = (2 ** 60, 2 ** 63 - 1, 2 ** 63)


def _schema_values(key):
    """Values of one config key, built from its ``_SCHEMA`` row: every
    allowed choice, or boundary values of its type and sign rule; and text
    that is no value of the key: empty, not a number, a fraction for an int
    key, or outside its allowed set."""
    kind, default, allowed, _ = _SCHEMA[key]
    malformed = ("", "x") + (("1.5",) if kind is int else ())
    if isinstance(allowed, tuple):
        return st.sampled_from(allowed + malformed + ("%s9" % allowed[-1],))
    if kind is float:
        return st.sampled_from(_FLOAT_VALUES + ((default,) if default else ())
                               + malformed)
    if key in _CAPS:
        huge = _HUGE_GRID_POINTS if key == "grid_points" else ()
        return st.sampled_from((-1, 0, 1, 2, _CAPS[key]) + huge + malformed)
    return st.sampled_from(_INT_VALUES + malformed)


@st.composite
def _cli_runs(draw):
    """(command, {key: (value, spelled ``--key value``?)}, write to --out?)
    over 1-6 keys of the table; a key not spelled apart is ``--key=value``.
    Half the ``dyson`` runs draw ``lambda`` alone, from [0, 1e300]: past a
    coupling of about 0.1 the truncated series leaves [0, 1] or the float
    range, a numerical failure (exit 1)."""
    keys = draw(st.lists(st.sampled_from([k for k in _SCHEMA if k != "out"]),
                         min_size=1, max_size=6, unique=True))
    command = draw(st.sampled_from(list(_COMMANDS)))
    values = {key: (draw(_schema_values(key)), draw(st.booleans()))
              for key in keys}
    if command == "dyson" and draw(st.booleans()):
        values = {"lambda": (draw(st.floats(min_value=0.0, max_value=1e300)),
                             draw(st.booleans()))}
    return command, values, draw(st.booleans())


def _cells(text, fmt):
    """Every cell of a CSV or JSON table that is a number."""
    if fmt == "json":
        return [c for row in json.loads(text)["rows"] for c in row
                if not isinstance(c, str)]
    cells = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:              # the header, a source or verdict
                pass
    return cells


# exit status -> examples of the property below that ended with it
_EXIT_STATUSES = collections.Counter()


class TestExitContractProperty:

    @settings(max_examples=600, deadline=None)
    @given(run=_cli_runs())
    def test_every_config_keeps_the_exit_contract(self, run):
        """0, 1 or 2 from ``main`` for any command and keys of the table:
        no exception and no warning; finite cells on 0; on 1 one line, a
        ``numerical error:`` with no output or the ``compare`` FAIL verdict;
        on 2 one ``config error:`` line and no output file.  Each example's
        status is recorded as a Hypothesis event."""
        command, values, to_file = run
        argv = [command]
        for key, (value, apart) in values.items():
            flag = "--" + key.replace("_", "-")
            argv += [flag, str(value)] if apart else ["%s=%s" % (flag, value)]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.txt"
            if to_file:
                argv.append("--out=%s" % path)
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(argv)
            text = path.read_text() if path.exists() else out.getvalue()
        assert code in (0, 1, 2), argv
        event("exit %d" % code)
        _EXIT_STATUSES[code] += 1
        assert caught == [], (argv, [str(w.message) for w in caught])
        if code == 0:
            fmt = values.get("format", ("csv",))[0]
            assert all(math.isfinite(c) for c in _cells(text, fmt)), argv
        if code == 1:
            numerical = err.getvalue().startswith("numerical error:")
            assert err.getvalue().count("\n") == 1, argv
            assert (numerical and text == "") or (
                command == "compare" and err.getvalue() == "verdict = FAIL\n"), argv
        if code == 2:
            assert err.getvalue().startswith("config error:"), argv
            assert err.getvalue().count("\n") == 1, argv
            assert text == "", argv

    def test_the_property_reaches_every_exit_status(self):
        """The property's fixed example set ends with 0, with 1 and with 2
        at least once each, so each of its three clauses is exercised; run
        alone, this test runs the property first."""
        if not _EXIT_STATUSES:
            self.test_every_config_keeps_the_exit_contract()
        assert all(_EXIT_STATUSES[code] >= 1 for code in (0, 1, 2)), _EXIT_STATUSES


_CSL_64 = ["--model", "csl", "--gamma", "0.4", "--rc", "1.0",
           "--grid-points", "64", "--grid-extent", "16"]
_QMUPL_64 = ["--model", "qmupl", "--lambda", "0.2", "--grid-points", "64"]
_SMALL_ENSEMBLE = ["--tmax", "1", "--dt", "0.01", "--samples", "3",
                   "--ntraj", "40", "--seed", "5"]


class TestOutputDigests:
    """The stdout of one small run per command and integrator kind, and of
    ``--format json``, is pinned by its SHA-256: a change that means to keep
    the output keeps every byte.

    The digests hold for this numpy build.  To regenerate them, print
    ``hashlib.sha256(out.encode()).hexdigest()`` for each run; a change of
    any digest is a change of the CLI output and is declared in CHANGES.md.
    """

    @pytest.mark.parametrize("args,digest", [
        (["exact"] + _QMUPL_64 + ["--samples", "4"],
         "89f3c222dec5b7054da262891ca113560b5a99c3bdc74350e676f49537d8fdf7"),
        (["exact"] + _CSL_64 + ["--dim", "3", "--samples", "4"],
         "394d14cf76e90525f57e3e3587279fca09a0516d088a67b0276d10a07ab6f415"),
        (["me"] + _CSL_64 + ["--tmax", "2", "--samples", "4", "--dt", "0.01"],
         "3a83238f95c722fae085e57f2cea48b753a70952bbda002a77a86ebbf13205d2"),
        (["me"] + _QMUPL_64 + ["--dim", "3", "--tmax", "2", "--samples", "4",
                               "--dt", "0.01"],
         "dfcf1f228521e50d71e04c9b8da2cc112ed6b608e0baf23cfbbda7f5ffa96030"),
        (["dyson"] + _CSL_64 + ["--tmax", "2", "--samples", "3", "--order", "2"],
         "56f823f7b491dadd0dbc07428cd776170b4dd3e228ba85c3890c0e62205bac9d"),
        (["dyson"] + _CSL_64 + ["--tmax", "2", "--samples", "3", "--order", "0"],
         "7d996605041d071830efb7773f0586d33e23f47a84be8e8f7c299f2b581b640f"),
        (["dyson"] + _QMUPL_64 + ["--tmax", "2", "--samples", "3", "--order", "1"],
         "689a6123f78ddc8649849b4913aaab0601d66a79572e591a8db5471fe3c47104"),
        (["theta-check", "--tmax", "1", "--eps", "0.05", "--ntraj", "200",
          "--seed", "3"],
         "808483aa7a8c7436beeaa309de26b1751b7a5e5782d09bc9d470e1d81eb5a22b"),
        (["ensemble"] + _QMUPL_64 + _SMALL_ENSEMBLE
         + ["--integrator", "ito-nonlinear"],
         "2c22718e2c18824a715906cdefa9066c2a85682cfd6812b321c6316f69e86e79"),
        (["ensemble"] + _QMUPL_64 + _SMALL_ENSEMBLE
         + ["--integrator", "ito-linear"],
         "4c2ad80a4d93f9b80d38b8620de22b2e975df6f0389c0e60fab37998480d69bf"),
        (["ensemble"] + _CSL_64 + _SMALL_ENSEMBLE
         + ["--integrator", "stratonovich"],
         "6deb3cffb16830da91e92aa7cb834a3fed37c8ed7bc2777002a9fb7bdd62cb5f"),
        (["ensemble"] + _QMUPL_64 + _SMALL_ENSEMBLE
         + ["--integrator", "wong-zakai", "--eps", "0.1"],
         "8605ce06a7fc04ef3c0f567fa20f1ff8372dd2be7150e919c53f9156d21edbc1"),
        (["compare"] + _CSL_64 + _SMALL_ENSEMBLE
         + ["--integrator", "ito-nonlinear"],
         "4c33b7f3c21a0df8005ff9e0c6a14915580421472bff5af9e2f51d36de6ab6ab"),
        (["compare"] + _QMUPL_64 + _SMALL_ENSEMBLE + ["--format", "json"],
         "3b9af8bdae98fa43e09e1d767085bfb44b0abc7db2a40586afc0066d2fd00ae3"),
        (["exact"] + _QMUPL_64 + ["--dim", "3", "--samples", "4"],
         "2874c262cdcf940e4ef44e9039d11909b780cadb76f83232eec6df5dc2472f0d"),
        (["exact"] + _CSL_64 + ["--samples", "4"],
         "c82a90013c36f31ff590ed5a402c9846eb68e411b60f9da0f9d1084004fbedd7"),
    ], ids=["exact", "exact-csl-dim3", "me-csl", "me-qmupl-dim3", "dyson",
            "dyson-order0", "dyson-order1-qmupl", "theta-check", "ito-nonlinear", "ito-linear", "stratonovich",
            "wong-zakai", "compare", "compare-json", "exact-qmupl-dim3",
            "exact-csl"])
    def test_stdout_digest(self, args, digest, capsys):
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOptionTable:

    def test_one_flag_per_key_from_the_table(self):
        """One parser: a command positional offering the commands, and one
        text flag per key, typed and checked later as a file value is."""
        parser = build_parser()
        assert sorted(a.dest for a in parser._actions) == sorted(
            list(_SCHEMA) + ["command", "config", "help", "version"])
        command, = [a for a in parser._actions if not a.option_strings]
        assert command.dest == "command"
        assert list(command.choices) == list(_COMMANDS)
        for action in parser._actions:
            if action.dest in _SCHEMA:
                assert action.option_strings == [
                    "--" + action.dest.replace("_", "-")]
                assert action.type is None and action.choices is None
                assert action.default is None  # a file value is not overridden

    def test_help_shows_each_allowed_set(self):
        text = " ".join(build_parser().format_help().split())
        for key, (_, _, allowed, _) in _SCHEMA.items():
            if isinstance(allowed, tuple):
                assert "--%s {%s}" % (key.replace("_", "-"),
                                      ",".join(map(str, allowed))) in text

    @pytest.mark.parametrize("key,text", [
        ("tmax", "x"), ("samples", "1.5"), ("integrator", "foo"), ("dim", "2"),
        ("dm", "-1e200"), ("lambda", "-inf")])
    def test_flag_and_file_values_fail_alike(self, key, text, tmp_path, capsys):
        """The same text as a flag and as a file line: exit 2 and the same
        single ``config error:`` line."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("%s = %s\n" % (key, text))
        errors = []
        for argv in (["exact", "--" + key, text], ["exact", "--config", str(cfg)]):
            assert run_cli(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("config error:"), argv
            assert captured.err.count("\n") == 1, argv
            errors.append(captured.err)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("args,unrecognized", [
        (["exact", "--gam", "-1e5", "--samples", "2"], "--gam -1e5"),
        (["exact", "--samp", "2"], "--samp 2"),
        (["exact", "--gamma=0.1", "--integ=ito-linear"], "--integ=ito-linear")])
    def test_abbreviated_flag_is_a_usage_error(self, args, unrecognized,
                                               capsys):
        """No prefix of a flag stands for the flag: argparse's usage error,
        exit 2, names it among the unrecognized arguments."""
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: %s" % unrecognized in captured.err

    def test_options_may_precede_the_command(self, capsys):
        flags = ["--model", "csl", "--gamma", "0.4", "--tmax", "1",
                 "--samples", "3"]
        outputs = []
        for argv in (["exact"] + flags, flags + ["exact"],
                     flags[:4] + ["exact"] + flags[4:]):
            assert run_cli(argv) == 0, argv
            outputs.append(capsys.readouterr())
        assert outputs[0].out.count("\n") > 3
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


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

    def test_dyson_outside_the_unit_interval_is_numerical_error(self, capsys):
        """At lam = 2 the order-2 series gives p_same = 7.035 at t = 6.4,
        with p_same + p_other = 1: a numerical failure with one line and no
        rows, not a table with status 0."""
        code = run_cli(["dyson", "--lambda", "2", "--order", "2", "--samples",
                        "3", "--grid-points", "64"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("numerical error: p_same lies outside")
        assert captured.err.count("\n") == 1

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

# ``python -m mesoncollapse.cli`` with gc.freeze counted; the command line
# is sys.argv[1:]
_FREEZE_COUNT_SCRIPT = (
    "import gc, runpy, sys\n"
    "calls, freeze = [], gc.freeze\n"
    "gc.freeze = lambda: (calls.append(None), freeze())\n"
    "try:\n"
    "    runpy.run_module('mesoncollapse.cli', run_name='__main__',\n"
    "                     alter_sys=True)\n"
    "finally:\n"
    "    print('freezes:', len(calls), file=sys.stderr)\n")

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

    def test_cli_import_adds_only_the_listed_modules(self):
        """Beyond numpy and builtins, ``import mesoncollapse.cli`` loads the
        package and argparse, copy, dataclasses and gettext, no more."""
        script = (
            "import json, sys, numpy\n"
            "before = set(sys.modules)\n"
            "import mesoncollapse.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before\n"
            "                        - set(sys.builtin_module_names))))\n")
        code, out, err = run_cli_process([], script)
        assert code == 0, err
        added = set(json.loads(out))
        package = {m for m in added if m.split(".")[0] == "mesoncollapse"}
        assert "mesoncollapse.cli" in package
        assert added - package <= {"argparse", "copy", "dataclasses", "gettext"}

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

    @pytest.mark.parametrize("args", [
        ["theta-check", "--tmax", "1", "--ntraj", "100"],
    ] + [["compare", "--tmax", "0.1", "--dt", "0.01", "--samples", "2",
          "--ntraj", "4", "--grid-points", "32", "--eps", "0.04",
          "--integrator", kind] for kind in INTEGRATOR_KINDS],
        ids=lambda args: args[-1] if args[0] == "compare" else args[0])
    def test_noise_draws_load_no_openssl(self, args):
        """numpy.random loads, but not the ``secrets`` it imports for
        unseeded generators, nor hmac and OpenSSL behind it."""
        modules = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")
        code, _, err = run_cli_process([",".join(modules)] + args,
                                       _LOADED_SCRIPT)
        assert code == 0, err
        assert "loaded: ['numpy.random']" in err

    def test_theta_check_loads_no_polynomial(self):
        """The Gauss-Legendre rule is stored, not rebuilt by ``leggauss``."""
        code, _, err = run_cli_process(
            ["numpy.polynomial", "theta-check", "--tmax", "1", "--ntraj", "100"],
            _LOADED_SCRIPT)
        assert code == 0, err
        assert "loaded: []" in err

    def test_process_entry_freezes_once_and_main_never(self, monkeypatch,
                                                       capsys):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append(None))
        args = ["exact", "--tmax", "1", "--samples", "2"]
        assert main(args) == 0
        assert calls == []
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["mesoncollapse"] + args)
        assert entry() == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == expected
        # python -m runs the same entry
        code, _, err = run_cli_process(args, _FREEZE_COUNT_SCRIPT)
        assert code == 0, err
        assert err.strip() == "freezes: 1"

    @pytest.mark.parametrize("args", [
        ["exact", "--tmax", "1", "--samples", "3"],
        ["theta-check", "--tmax", "1", "--ntraj", "100"],
    ], ids=lambda args: args[0])
    def test_module_entry_prints_the_bytes_of_main(self, args, capsys):
        assert main(args) == 0
        expected = capsys.readouterr().out
        code, out, err = run_cli_process(args)
        assert code == 0, err
        assert out == expected

    def test_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"mesoncollapse": "mesoncollapse.cli:entry"}

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
