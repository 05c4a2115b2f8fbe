"""Experiment runner: exact / ME / ensemble / Dyson / theta-check / compare.

Configuration is a flat ``key = value`` text file plus command-line flags
(flags win).  Every output file embeds the fully resolved configuration in
a comment header, so identical config + seed gives byte-identical output.

Exit statuses: 0 success (and all verdicts pass), 1 numerical failure,
2 usage / configuration error.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (DensityBlocks, Grid, GridResolutionError,
                   InvariantViolationError, ModelParams, NormDivergenceError,
                   ParameterError, make_gaussian_state)
from .integrators import IntegratorSpec, resolve_workers, run_ensemble
from .master_eq import (RECORD_COLUMNS, dyson_flavor_probabilities,
                        flavor_record, me_flavor_probabilities)
from .models import CSL, QMUPL, build_csl, build_qmupl
from .noise import (MOLLIFIER_KINDS, Mollifier, UnderResolvedKernelError,
                    i_epsilon_monte_carlo, i_epsilon_quadrature)

_NUMERICAL_ERRORS = (NormDivergenceError, InvariantViolationError,
                     UnderResolvedKernelError, GridResolutionError)

# every recognized config key with (type, default)
_SCHEMA = {
    "model": (str, "qmupl"),
    "dm": (float, 1.0),
    "m0": (float, 1.0),
    "lambda": (float, 0.0),
    "gamma": (float, 0.0),
    "rc": (float, 1.0),
    "alpha": (float, 1.0),
    "dim": (int, 1),
    "tmax": (float, 6.4),
    "samples": (int, 10),
    "ntraj": (int, 1000),
    "seed": (int, 1),
    "dt": (float, 1e-3),
    "integrator": (str, "ito-nonlinear"),
    "mollifier": (str, "gaussian"),
    "eps": (float, None),
    "order": (int, 2),
    "grid_points": (int, 128),
    "grid_extent": (float, None),
    "out": (str, None),
    "format": (str, "csv"),
}

# float keys that must be strictly positive; every float key must be finite
_POSITIVE = ("dm", "m0", "rc", "alpha", "tmax", "dt", "eps", "grid_extent")


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError("%s:%d: expected 'key = value', got %r"
                                     % (path, lineno, raw.rstrip()))
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _SCHEMA:
                raise ParameterError("%s:%d: unknown config key %r"
                                     % (path, lineno, key))
            values[key] = value
    return values


def _coerce(key, value):
    kind = _SCHEMA[key][0]
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ParameterError("config key %r: cannot parse %r as %s"
                             % (key, value, kind.__name__)) from None


def resolve_config(args):
    """Merge defaults, config file, and command-line flags (flags win)."""
    config = {key: default for key, (_, default) in _SCHEMA.items()}
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            config[key] = _coerce(key, value)
    for key in _SCHEMA:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            config[key] = flag
    if config["model"] not in ("qmupl", "csl"):
        raise ParameterError("model must be 'qmupl' or 'csl', got %r"
                             % config["model"])
    if config["format"] not in ("csv", "json"):
        raise ParameterError("format must be 'csv' or 'json', got %r"
                             % config["format"])
    if config["samples"] < 1:
        raise ParameterError("samples must be >= 1, got %d" % config["samples"])
    for key, (kind, _) in _SCHEMA.items():
        value = config[key]
        if kind is not float or value is None:
            continue
        if not np.isfinite(value):
            raise ParameterError("%s must be finite, got %r" % (key, value))
        if key in _POSITIVE and value <= 0:
            raise ParameterError("%s must be positive, got %r" % (key, value))
    return config


def _build_params(config):
    m0, dm = config["m0"], config["dm"]
    return ModelParams(m0=m0, mH=m0 + dm / 2.0, mL=m0 - dm / 2.0,
                       lam=config["lambda"], gamma=config["gamma"],
                       rC=config["rc"], alpha=config["alpha"],
                       dim=config["dim"])


def _build_grid(config):
    extent = config["grid_extent"]
    if extent is None:
        extent = 8.0 * np.sqrt(config["alpha"])
    return Grid.centered(config["grid_points"], extent)


def _build_model(config, params, grid):
    if config["model"] == "qmupl":
        return build_qmupl(params, grid)
    return build_csl(params, grid)


def _model_label(config):
    return QMUPL if config["model"] == "qmupl" else CSL


def _sample_times(config, snap_dt=None):
    """Evenly spaced sample times in (0, tmax], snapped to multiples of dt."""
    times = config["tmax"] * np.arange(1, config["samples"] + 1) / config["samples"]
    if snap_dt is not None:
        times = np.round(times / snap_dt) * snap_dt
        times = np.unique(times[times > 0])
        if times.size == 0:
            raise ParameterError("tmax=%g is below one step dt=%g"
                                 % (config["tmax"], snap_dt))
    return times


def _config_lines(config, extra=()):
    lines = ["version = %s" % __version__]
    lines += ["%s = %s" % (key, config[key]) for key in sorted(config)
              if key != "out"]
    lines += list(extra)
    return lines


def _emit_table(config, columns, rows, extra_header=()):
    """Write a table as CSV (with a '#' comment header) or JSON."""
    if config["format"] == "csv":
        text = "".join("# %s\n" % line for line in _config_lines(config, extra_header))
        text += ",".join(columns) + "\n"
        for row in rows:
            text += ",".join(_format_cell(cell) for cell in row) + "\n"
    else:
        doc = {
            "version": __version__,
            "config": {key: config[key] for key in sorted(config) if key != "out"},
            "notes": list(extra_header),
            "columns": list(columns),
            "rows": [[cell if isinstance(cell, str) else float(cell)
                      for cell in row] for row in rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if config["out"]:
        with open(config["out"], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_cell(cell):
    if isinstance(cell, str):
        return cell
    return repr(float(cell))


def _record_rows(record):
    return [(t, ps, po, es, eo, record.source)
            for t, ps, po, es, eo in zip(record.times, record.p_same,
                                         record.p_other, record.stderr_same,
                                         record.stderr_other)]


def _emit_record(config, record, extra_header=()):
    record.validate()
    _emit_table(config, RECORD_COLUMNS, _record_rows(record), extra_header)


def _require_eps(config, default):
    return config["eps"] if config["eps"] is not None else default


def run_exact(config):
    params = _build_params(config)
    record = flavor_record(params, _sample_times(config), _model_label(config))
    _emit_record(config, record)
    return 0


def run_me(config):
    params = _build_params(config)
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    rho0 = _initial_density(params, grid)
    times = _sample_times(config, snap_dt=config["dt"])
    record = me_flavor_probabilities(model, rho0, times, config["dt"],
                                     dim=params.dim)
    _emit_record(config, record)
    return 0


def _initial_density(params, grid):
    return DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))


def _ensemble_spec(config):
    kind = config["integrator"]
    mollifier = None
    if kind == "wong-zakai":
        eps = _require_eps(config, config["tmax"] / 40.0)
        mollifier = Mollifier(config["mollifier"], eps)
    return IntegratorSpec(kind=kind, dt=config["dt"], mollifier=mollifier)


def run_ensemble_cmd(config):
    params = _build_params(config)
    if params.dim != 1:
        raise ParameterError("trajectory ensembles support dim=1 only")
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    initial = make_gaussian_state(params, grid, "M0")
    spec = _ensemble_spec(config)
    workers = resolve_workers(default=os.cpu_count() or 1)
    times = _sample_times(config, snap_dt=spec.dt)
    t_max = float(times[-1])
    result = run_ensemble(model, spec, initial, t_max, config["ntraj"],
                          config["seed"], sample_times=times,
                          n_workers=workers)
    _emit_record(config, result.to_transition_record(spec.kind))
    return 0


def run_dyson(config):
    params = _build_params(config)
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    record = dyson_flavor_probabilities(model, _initial_density(params, grid),
                                        _sample_times(config), config["order"])
    _emit_record(config, record)
    return 0


def run_theta_check(config):
    t = config["tmax"]
    if config["eps"] is not None:
        eps_values = [config["eps"]]
    else:
        eps_values = [t / 10.0, t / 30.0, t / 100.0]
    if config["mollifier"] not in MOLLIFIER_KINDS:
        raise ParameterError("unknown mollifier %r" % config["mollifier"])
    rows = []
    for eps in eps_values:
        m = Mollifier(config["mollifier"], eps)
        i_eps = i_epsilon_quadrature(m, t)
        estimate, stderr = i_epsilon_monte_carlo(m, t, config["ntraj"],
                                                 config["seed"])
        rows.append((eps, i_eps, 1.0 - i_eps, estimate, stderr))
    columns = ("eps", "i_epsilon", "theta_zero", "mc_estimate", "mc_stderr")
    _emit_table(config, columns, rows)
    return 0


def run_compare(config):
    """Oracle triangle: exact vs grid ME vs trajectory ensemble at 3 sigma."""
    params = _build_params(config)
    if params.dim != 1:
        raise ParameterError("compare mode supports dim=1 only")
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    spec = _ensemble_spec(config)
    workers = resolve_workers(default=os.cpu_count() or 1)
    times = _sample_times(config, snap_dt=spec.dt)
    exact = flavor_record(params, times, _model_label(config))
    me = me_flavor_probabilities(model, _initial_density(params, grid),
                                 times, spec.dt, dim=params.dim)
    initial = make_gaussian_state(params, grid, "M0")
    result = run_ensemble(model, spec, initial, float(times[-1]),
                          config["ntraj"], config["seed"], sample_times=times,
                          n_workers=workers)
    ens = result.to_transition_record(spec.kind)

    rows = []
    all_pass = True
    for i, t in enumerate(times):
        stderr = max(float(ens.stderr_same[i]), 1e-300)
        z = (float(ens.p_same[i]) - float(exact.p_same[i])) / stderr
        me_err = abs(float(me.p_same[i]) - float(exact.p_same[i]))
        verdict = "PASS" if (abs(z) <= 3.0 and me_err < 1e-2) else "FAIL"
        all_pass &= verdict == "PASS"
        rows.append((t, exact.p_same[i], me.p_same[i], ens.p_same[i],
                     stderr, z, verdict))
    columns = ("time", "p_exact", "p_me", "p_ensemble", "stderr_ensemble",
               "z_score", "verdict")
    overall = "verdict = %s" % ("PASS" if all_pass else "FAIL")
    _emit_table(config, columns, rows, extra_header=(overall,))
    print(overall, file=sys.stderr)
    return 0 if all_pass else 1


_COMMANDS = {
    "exact": run_exact,
    "me": run_me,
    "ensemble": run_ensemble_cmd,
    "dyson": run_dyson,
    "theta-check": run_theta_check,
    "compare": run_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mesoncollapse",
        description="Collapse-model dynamics of neutral two-level mesons.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help="run the %s experiment" % name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--model", choices=("qmupl", "csl"))
        p.add_argument("--dm", type=float, help="mass splitting mH - mL")
        p.add_argument("--m0", type=float, help="reference mass")
        p.add_argument("--lambda", dest="lambda", type=float,
                       help="QMUPL coupling")
        p.add_argument("--gamma", type=float, help="CSL coupling")
        p.add_argument("--rc", type=float, help="CSL smearing length")
        p.add_argument("--alpha", type=float,
                       help="initial Gaussian position variance parameter")
        p.add_argument("--dim", type=int, choices=(1, 3))
        p.add_argument("--tmax", type=float)
        p.add_argument("--samples", type=int, help="number of sample times")
        p.add_argument("--ntraj", type=int,
                       help="trajectories (or Monte Carlo paths)")
        p.add_argument("--seed", type=int)
        p.add_argument("--dt", type=float)
        p.add_argument("--integrator",
                       choices=("ito-nonlinear", "ito-linear",
                                "stratonovich", "wong-zakai"))
        p.add_argument("--mollifier", choices=MOLLIFIER_KINDS)
        p.add_argument("--eps", type=float, help="mollifier width")
        p.add_argument("--order", type=int, choices=(0, 1, 2),
                       help="Dyson truncation order")
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--grid-extent", dest="grid_extent", type=float)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
    except (ParameterError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](config)
    except ParameterError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
