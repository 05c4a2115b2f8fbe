"""Experiment runner: exact / ME / ensemble / Dyson / theta-check / compare.

Configuration is a flat ``key = value`` text file plus command-line flags
(flags win).  Every key is declared once, in ``_SCHEMA``, with its type,
default, allowed values or sign rule and help text; the ``--key`` flags are
generated from it, and a value is checked the same way whether it came from
a file or a flag.  ``seed`` must be >= 0.  Every output file embeds the fully
resolved configuration in a comment header, so identical config + seed
gives byte-identical output.

Exit statuses: 0 success (and all verdicts pass), 1 numerical failure,
2 usage / configuration error.  A request too large for memory and an
``--out`` that cannot be written are configuration errors, and no output
file is left behind.
"""

import argparse
import sys

import numpy as np

from . import __version__
from .core import (DensityBlocks, Grid, GridResolutionError,
                   InvariantViolationError, ModelParams, NormDivergenceError,
                   ParameterError, make_gaussian_state)
from .integrators import (_RESOLUTION, INTEGRATOR_KINDS, IntegratorSpec,
                          run_ensemble)
from .master_eq import (RECORD_COLUMNS, dyson_flavor_probabilities,
                        flavor_record, me_flavor_probabilities,
                        require_me_dim)
from .models import CSL, QMUPL, build_csl, build_qmupl
from .noise import (MOLLIFIER_KINDS, Mollifier, UnderResolvedKernelError,
                    i_epsilon_monte_carlo, i_epsilon_quadrature)

_NUMERICAL_ERRORS = (NormDivergenceError, InvariantViolationError,
                     UnderResolvedKernelError, GridResolutionError)

# model key -> closed-form label
_MODELS = {"qmupl": QMUPL, "csl": CSL}

# the sign rule a key's value must obey; every float must also be finite
_SIGN_RULES = {"positive": lambda v: v > 0, "non-negative": lambda v: v >= 0}

# every config key: (type, default, allowed values or sign rule, help)
_SCHEMA = {
    "model": (str, "qmupl", tuple(_MODELS), "collapse model"),
    "dm": (float, 1.0, "positive", "mass splitting mH - mL"),
    "m0": (float, 1.0, "positive", "reference mass"),
    "lambda": (float, 0.0, None, "QMUPL coupling"),
    "gamma": (float, 0.0, None, "CSL coupling"),
    "rc": (float, 1.0, "positive", "CSL smearing length"),
    "alpha": (float, 1.0, "positive",
              "initial Gaussian position variance parameter"),
    "dim": (int, 1, (1, 3), "spatial dimension"),
    "tmax": (float, 6.4, "positive", "last sample time"),
    "samples": (int, 10, "positive", "number of sample times"),
    "ntraj": (int, 1000, None, "trajectories (or Monte Carlo paths)"),
    "seed": (int, 1, "non-negative", "non-negative random seed"),
    "dt": (float, 1e-3, "positive", "time step"),
    "integrator": (str, "ito-nonlinear", INTEGRATOR_KINDS, "trajectory scheme"),
    "mollifier": (str, "gaussian", MOLLIFIER_KINDS, "mollifier kernel"),
    "eps": (float, None, "positive", "mollifier width (default: tmax/40;"
             " theta-check sweeps tmax/10, tmax/30, tmax/100)"),
    "order": (int, 2, (0, 1, 2), "Dyson truncation order"),
    "grid_points": (int, 128, None, "number of grid points"),
    "grid_extent": (float, None, "positive",
                    "grid length (default: 8 sqrt(alpha))"),
    "out": (str, None, None, "output path (default: stdout)"),
    "format": (str, "csv", ("csv", "json"), "output format"),
}


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
            kind = _SCHEMA[key][0]
            try:
                values[key] = kind(value)
            except ValueError:
                raise ParameterError("config key %r: cannot parse %r as %s"
                                     % (key, value, kind.__name__)) from None
    return values


def resolve_config(args):
    """Merge defaults, config file, and command-line flags (flags win)."""
    config = {key: default for key, (_, default, _, _) in _SCHEMA.items()}
    if args.config:
        config.update(_parse_config_file(args.config))
    for key in _SCHEMA:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    for key, (kind, _, allowed, _) in _SCHEMA.items():
        value = config[key]
        if value is None:
            continue
        if isinstance(allowed, tuple) and value not in allowed:
            raise ParameterError("%s must be one of %s, got %r"
                                 % (key, list(allowed), value))
        if kind is float and not np.isfinite(value):
            raise ParameterError("%s must be finite, got %r" % (key, value))
        if allowed in _SIGN_RULES and not _SIGN_RULES[allowed](value):
            raise ParameterError("%s must be %s, got %r" % (key, allowed, value))
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
    # the builders are looked up by name at call time, so a rebinding of
    # them (a timing wrapper, a test spy) is seen
    build = build_csl if _MODELS[config["model"]] == CSL else build_qmupl
    return build(params, grid)


def _sample_times(config, snap_dt=None):
    """Evenly spaced sample times in (0, tmax], snapped to multiples of dt."""
    try:
        steps = np.arange(1, config["samples"] + 1)
    except ValueError:                   # numpy: "array is too big"
        steps = ()
    if len(steps) != config["samples"]:  # near 2**63 arange wraps to empty
        raise ParameterError("samples=%d exceeds the largest array"
                             % config["samples"])
    with np.errstate(over="ignore"):     # an overflow is rejected below
        times = config["tmax"] * steps / config["samples"]
        if snap_dt is not None:
            times = np.round(times / snap_dt) * snap_dt
    if not np.all(np.isfinite(times)):
        raise ParameterError("tmax=%g in %d samples (dt=%s) gives a non-finite"
                             " sample time" % (config["tmax"], config["samples"],
                                               snap_dt))
    if snap_dt is not None:
        # a set, not np.unique: its first call imports numpy.ma
        times = np.array(sorted(set(times[times > 0].tolist())))
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
        import json  # only the JSON format needs it, so CSV runs skip it
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


def run_exact(config):
    params = _build_params(config)
    record = flavor_record(params, _sample_times(config), _MODELS[config["model"]])
    _emit_record(config, record)
    return 0


def run_me(config):
    # before anything is built: a rejected dim must not cost the density
    require_me_dim(_MODELS[config["model"]], config["dim"])
    params = _build_params(config)
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
    times = _sample_times(config, snap_dt=config["dt"])
    record = me_flavor_probabilities(model, rho0, times, config["dt"],
                                     dim=params.dim)
    _emit_record(config, record)
    return 0


def _ensemble(config):
    """Set up and run the trajectory ensemble of `ensemble` and `compare`.

    Returns (params, model, initial state, sample times, ensemble record).
    """
    params = _build_params(config)
    if params.dim != 1:
        raise ParameterError("trajectory ensembles support dim=1 only")
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    mollifier = None
    if config["integrator"] == "wong-zakai":
        mollifier = Mollifier(config["mollifier"],
                              config["eps"] or config["tmax"] / 40.0)
    spec = IntegratorSpec(kind=config["integrator"], dt=config["dt"],
                          mollifier=mollifier)
    times = _sample_times(config, snap_dt=spec.dt)
    initial = make_gaussian_state(params, grid, "M0")
    result = run_ensemble(model, spec, initial, float(times[-1]),
                          config["ntraj"], config["seed"], sample_times=times)
    return params, model, initial, times, result.to_transition_record(spec.kind)


def run_ensemble_cmd(config):
    _emit_record(config, _ensemble(config)[-1])
    return 0


def run_dyson(config):
    params = _build_params(config)
    if params.dim != 1:
        raise ParameterError("the Dyson series supports dim=1 only")
    grid = _build_grid(config)
    model = _build_model(config, params, grid)
    record = dyson_flavor_probabilities(model,
                                        make_gaussian_state(params, grid, "M0"),
                                        _sample_times(config), config["order"])
    _emit_record(config, record)
    return 0


def run_theta_check(config):
    t = config["tmax"]
    if config["eps"] is not None:
        eps_values = [config["eps"]]
    else:
        eps_values = [t / 10.0, t / 30.0, t / 100.0]
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
    """Oracle triangle: exact vs grid ME vs trajectory ensemble at 3 sigma.

    A ``wong-zakai`` ensemble is the eps-mollified mean, judged against the
    eps -> 0 closed form: its O(eps) early bias (4.3 to 7.1 sigma at 4000
    trajectories on the csl-field bench model) makes a large-ntraj compare
    FAIL by construction.
    """
    params, model, initial, times, ens = _ensemble(config)
    # the closed form after run_ensemble has checked the sample times
    exact = flavor_record(params, times, _MODELS[config["model"]])
    me = me_flavor_probabilities(model, DensityBlocks.from_state(initial),
                                 times, config["dt"])

    rows = []
    all_pass = True
    for i, t in enumerate(times):
        # trajectories that agree to rounding: their stderr is rounding too
        stderr = max(float(ens.stderr_same[i]), _RESOLUTION)
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
    # one declaration of the options, shared by every subcommand
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", help="flat key = value config file")
    for key, (kind, default, allowed, text) in _SCHEMA.items():
        options.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                             choices=allowed if isinstance(allowed, tuple) else None,
                             help=text if default is None
                             else "%s (default: %s)" % (text, default))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[options],
                       help="run the %s experiment" % name)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args))
    except (ParameterError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("config error: out of memory: %s" % exc, file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
