"""Experiment runner: exact / ME / ensemble / Dyson / theta-check / compare.

Configuration is a flat ``key = value`` text file plus command-line flags,
``--key value`` or ``--key=value`` alike (flags win), given before or after
the command.  Every key is declared once, in ``_SCHEMA``, with its type,
default, allowed values or sign rule and help text; ``_value`` types a
value and ``resolve_config`` checks it the same way whether it came from a
file or a flag.  ``seed`` must be >= 0.  Every output file embeds the fully
resolved configuration in a comment header, so identical config + seed
gives byte-identical output.

Exit statuses: 0 success (and all verdicts pass), 1 numerical failure, 2
usage / configuration error.  An ``InvariantViolationError`` exits 1; a
``ParameterError`` (a value the config alone makes wrong, such as a grid
that does not cover or resolve the packet, unresolved CSL smearing or a
Wong-Zakai step above eps/4), a request too large for memory and an
``--out`` that cannot be written exit 2.  No output file is left behind.
"""

import argparse
import gc
import sys

import numpy as np

from . import __version__
from .core import (DensityBlocks, Grid, InvariantViolationError, ModelParams,
                   ParameterError, make_gaussian_state)
from .integrators import (_RESOLUTION, INTEGRATOR_KINDS, IntegratorSpec,
                          run_ensemble)
from .master_eq import (RECORD_COLUMNS, dyson_flavor_probabilities,
                        flavor_record, me_flavor_probabilities,
                        require_me_dim)
from .models import CSL, QMUPL, build_csl, build_qmupl
from .noise import (MOLLIFIER_KINDS, Mollifier, i_epsilon_monte_carlo,
                    i_epsilon_quadrature)

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


def _value(key, text):
    kind = _SCHEMA[key][0]
    try:
        return kind(text)
    except ValueError:
        raise ParameterError("config key %r: cannot parse %r as %s"
                             % (key, text, kind.__name__)) from None


def _parse_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError("%s: %s" % (path, exc)) from None
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        values[key] = _value(key, value)
    return values


def resolve_config(args):
    """Merge defaults, config file, and command-line flags (flags win)."""
    config = {key: default for key, (_, default, _, _) in _SCHEMA.items()}
    if args.config:
        config.update(_parse_config_file(args.config))
    for key in _SCHEMA:
        if getattr(args, key) is not None:
            config[key] = _value(key, getattr(args, key))
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


def _sample_times(config, snap_dt=None):
    """Evenly spaced sample times in (0, tmax], snapped to multiples of dt;
    times that round to 0 or to an earlier time are dropped."""
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
    # the distinct times > 0, from a set: np.unique imports numpy.ma
    times = np.array(sorted(set(times[times > 0].tolist())))
    if times.size == 0:                  # only a snap to dt can leave none
        raise ParameterError("tmax=%g is below one step dt=%g"
                             % (config["tmax"], snap_dt))
    return times


def _emit_table(config, columns, rows, extra_header=()):
    """Write a table as CSV (with a '#' comment header) or JSON."""
    shown = {key: config[key] for key in sorted(config) if key != "out"}
    if config["format"] == "csv":
        lines = ["version = %s" % __version__] + ["%s = %s" % kv for kv in shown.items()]
        text = "".join("# %s\n" % line for line in lines + list(extra_header))
        text += ",".join(columns) + "\n"
        for row in rows:
            text += ",".join(cell if isinstance(cell, str) else repr(float(cell))
                             for cell in row) + "\n"
    else:
        import json  # only the JSON format needs it, so CSV runs skip it
        doc = {
            "version": __version__,
            "config": shown,
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


def _emit_record(config, record):
    record.validate()
    series = zip(record.times, record.p_same, record.p_other,
                 record.stderr_same, record.stderr_other)
    _emit_table(config, RECORD_COLUMNS, [row + (record.source,) for row in series])


def _grid_route(config, snap, dim_rule=None):
    """(model, M0 state, sample times, snapped to dt if ``snap``) of me,
    dyson, ensemble or compare.  The dim rule, ``dim_rule`` or dim 1, runs
    before anything is built.  lam max A^2 bounds every damping rate, and
    the collapse log-weights reach 4 lam max A^2 t: an overflow of that by
    the last sample time is a config error."""
    label = _MODELS[config["model"]]
    if dim_rule is not None:
        dim_rule(label, config["dim"])
    elif config["dim"] != 1:
        raise ParameterError("dyson, ensemble and compare support dim=1"
                             " only, got dim=%d" % config["dim"])
    params = _build_params(config)
    extent = config["grid_extent"] or 8.0 * np.sqrt(config["alpha"])
    grid = Grid.centered(config["grid_points"], extent)
    # the builders are looked up by name at call time, so a rebinding of
    # them (a timing wrapper, a test spy) is seen
    model = (build_csl if label == CSL else build_qmupl)(params, grid)
    times = _sample_times(config, config["dt"] if snap else None)
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        rate = (model.coupling * np.max(model.profile_square_sum())
                * np.max(model.mass_ratio) ** 2)
        bound = 4.0 * rate * times[-1]
    if not np.isfinite(bound):
        raise ParameterError("the damping exponent at t=%g overflows" % times[-1])
    return model, make_gaussian_state(params, grid, "M0"), times


def _exact_record(config, times):
    return flavor_record(_build_params(config), times, _MODELS[config["model"]])


def _me_record(config, model, state, times):
    return me_flavor_probabilities(model, DensityBlocks.from_state(state),
                                   times, config["dt"], dim=config["dim"])


def _dyson_record(config, model, state, times):
    return dyson_flavor_probabilities(model, state, times, config["order"])


def _ensemble_record(config, model, state, times):
    mollifier = None
    if config["integrator"] == "wong-zakai":
        mollifier = Mollifier(config["mollifier"],
                              config["eps"] or config["tmax"] / 40.0)
    spec = IntegratorSpec(kind=config["integrator"], dt=config["dt"],
                          mollifier=mollifier)
    result = run_ensemble(model, spec, state, float(times[-1]),
                          config["ntraj"], config["seed"], times)
    return result.to_transition_record(spec.kind)


def _record_command(build, **route):
    """The command that emits ``build(config, ...)`` on ``_grid_route(config,
    **route)``, or on the sample times alone for no ``route``, and exits 0."""
    def run(config):
        args = _grid_route(config, **route) if route else (_sample_times(config),)
        _emit_record(config, build(config, *args))
        return 0
    return run


def run_theta_check(config):
    t = config["tmax"]
    eps_values = ([config["eps"]] if config["eps"] is not None
                  else [t / 10.0, t / 30.0, t / 100.0])
    rows = []
    for eps in eps_values:
        m = Mollifier(config["mollifier"], eps)
        # the Monte Carlo first: it rejects a path too long for the quadrature
        estimate, stderr = i_epsilon_monte_carlo(m, t, config["ntraj"],
                                                 config["seed"])
        i_eps = i_epsilon_quadrature(m, t)
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
    model, state, times = _grid_route(config, snap=True)
    ens = _ensemble_record(config, model, state, times)
    # the closed form after run_ensemble has checked the sample times
    exact = _exact_record(config, times)
    me = _me_record(config, model, state, times)

    rows = []
    for i, t in enumerate(times):
        # trajectories that agree to rounding: their stderr is rounding too
        stderr = max(float(ens.stderr_same[i]), _RESOLUTION)
        z = (float(ens.p_same[i]) - float(exact.p_same[i])) / stderr
        me_err = abs(float(me.p_same[i]) - float(exact.p_same[i]))
        verdict = "PASS" if (abs(z) <= 3.0 and me_err < 1e-2) else "FAIL"
        rows.append((t, exact.p_same[i], me.p_same[i], ens.p_same[i],
                     stderr, z, verdict))
    columns = ("time", "p_exact", "p_me", "p_ensemble", "stderr_ensemble",
               "z_score", "verdict")
    all_pass = all(row[-1] == "PASS" for row in rows)
    overall = "verdict = %s" % ("PASS" if all_pass else "FAIL")
    _emit_table(config, columns, rows, extra_header=(overall,))
    print(overall, file=sys.stderr)
    return 0 if all_pass else 1


_COMMANDS = {
    "exact": _record_command(_exact_record),
    "me": _record_command(_me_record, snap=True, dim_rule=require_me_dim),
    "ensemble": _record_command(_ensemble_record, snap=True),
    "dyson": _record_command(_dyson_record, snap=False),
    "theta-check": run_theta_check,
    "compare": run_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mesoncollapse", allow_abbrev=False,
        description="Collapse-model dynamics of neutral two-level mesons.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS, help="experiment to run")
    parser.add_argument("--config", help="flat key = value config file")
    for key, (_, default, allowed, text) in _SCHEMA.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            metavar="{%s}" % ",".join(map(str, allowed))
                            if isinstance(allowed, tuple) else None,
                            help=text if default is None
                            else "%s (default: %s)" % (text, default))
    return parser


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_float_values(argv):
    """``argv`` with each ``--key value`` whose value parses as a float
    written ``--key=value``: argparse takes a separate value that starts
    with ``-`` and is no plain decimal (-1e200, -inf) for an option."""
    flags = {"--" + key.replace("_", "-") for key in _SCHEMA}
    joined = []
    for arg in argv:
        if joined and joined[-1] in flags and _is_float(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None):
    args = build_parser().parse_args(
        _join_float_values(sys.argv[1:] if argv is None else argv))
    try:
        return _COMMANDS[args.command](resolve_config(args))
    except (ParameterError, OSError, MemoryError) as exc:
        cause = "out of memory: " if isinstance(exc, MemoryError) else ""
        print("config error: %s%s" % (cause, exc), file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print("numerical error: %s" % exc, file=sys.stderr)
        return 1


def entry():
    """Process entry point (``python -m mesoncollapse.cli`` and the
    ``mesoncollapse`` script): ``main`` on the command line, with the heap
    built by the imports frozen first.

    Frozen objects are left out of every collection, so interpreter
    teardown no longer sweeps the ~100k objects numpy makes at import.
    ``main`` itself never freezes: in-process callers keep their heap
    collectable.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
