"""Run the mesoncollapse CLI once with timing wrappers around each layer.

Usage: python3 bench/trace_cli.py <mesoncollapse arguments...>

The package must be importable (run.py puts ``src`` on PYTHONPATH).  The
wrappers are installed from this file, so the program itself is unchanged:
its standard output is byte-identical to ``python3 -m mesoncollapse.cli``.
After the command finishes, one line ``BENCH-TRACE <json>`` goes to standard
error with, per span name, the inclusive and self time, plus computed counts.

Spans made inside process-pool workers stay in those workers and are lost;
run.py traces ensembles serially where it needs their inner spans.
"""

import functools
import json
import pickle
import sys
import time
from collections import defaultdict

TRACE_PREFIX = "BENCH-TRACE "


class Tracer:
    """In-memory spans (name, parent, start, end) and counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sums = defaultdict(int)
        self.maxes = defaultdict(int)
        self.missing = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = [name, self.stack[-1] if self.stack else -1,
                time.perf_counter(), None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[3] = time.perf_counter()

    def summary(self):
        """Inclusive time per name (outermost spans only) and self time."""
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, parent, start, end in self.spans:
            if end is not None and parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            if end is None:
                continue
            duration = end - start
            self_time[name] += duration - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                inclusive[name] += duration
        return {"inclusive": dict(inclusive), "self": dict(self_time),
                "sums": dict(self.sums), "maxes": dict(self.maxes),
                "missing": self.missing}


class TimedGenerator:
    """Proxy for a numpy Generator that times every draw and counts its bytes."""

    def __init__(self, tracer, generator):
        self._tracer = tracer
        self._generator = generator

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr

        def timed(*args, **kwargs):
            out = self._tracer.call("noise.draw", attr, *args, **kwargs)
            self._tracer.sums["noise.draw_bytes"] += getattr(out, "nbytes", 8)
            return out
        return timed


def _array_bytes(obj):
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values())


def _replace_everywhere(original, replacement):
    """Rebind every mesoncollapse module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "mesoncollapse" or name.startswith("mesoncollapse."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    """Wrap the public entry points of each layer; return the traced main."""
    modules = {name: sys.modules.get("mesoncollapse." + name)
               for name in ("cli", "core", "models", "noise", "master_eq",
                            "integrators")}

    def lookup(module, attr):
        fn = getattr(modules[module], attr, None)
        if fn is None:
            tracer.missing.append("%s.%s" % (module, attr))
        return fn

    def wrap(module, attr, span, after=None, name_of=None):
        original = lookup(module, attr)
        if original is None:
            return None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = name_of(*args, **kwargs) if name_of else span
            out = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        _replace_everywhere(original, wrapper)
        return wrapper

    def count_model(model, *_args, **_kwargs):
        tracer.maxes["models.channel_bytes"] = max(
            tracer.maxes["models.channel_bytes"], _array_bytes(model))

    def count_me(_record, model, rho0, times, dt, *_args, **_kwargs):
        steps = round(max(float(t) for t in times) / dt)
        entries = getattr(rho0.blocks, "size", 0)
        tracer.sums["master_eq.me_entry_steps"] += entries * steps
        tracer.sums["master_eq.me_bytes"] += entries * steps * 16

    def count_ensemble(_result, model, spec, initial, t_max, n_traj, *_a, **_k):
        tracer.sums["integrators.traj_steps.%s" % spec.kind] += (
            int(n_traj) * round(t_max / spec.dt))
        tracer.maxes["integrators.model_pickle_bytes"] = max(
            tracer.maxes["integrators.model_pickle_bytes"],
            len(pickle.dumps(model)))

    wrap("core", "make_gaussian_state", "core.state")
    blocks_cls = getattr(modules["core"], "DensityBlocks", None)
    if blocks_cls is not None and hasattr(blocks_cls, "from_state"):
        from_state = blocks_cls.from_state.__func__
        blocks_cls.from_state = classmethod(
            lambda cls, state: tracer.call("core.state", from_state, cls, state))
    else:
        tracer.missing.append("core.DensityBlocks.from_state")
    for name in ("build_qmupl", "build_csl"):
        wrap("models", name, "models.build", after=count_model)

    path_generator = lookup("noise", "path_generator")
    if path_generator is not None:
        def traced_path_generator(*args, **kwargs):
            return TimedGenerator(tracer, tracer.call(
                "noise.draw", path_generator, *args, **kwargs))
        _replace_everywhere(path_generator, traced_path_generator)
    wrap("noise", "i_epsilon_quadrature", "noise.quad")
    wrap("noise", "i_epsilon_monte_carlo", "noise.mc")

    wrap("master_eq", "decoherence_rates", "master_eq.rates")
    wrap("master_eq", "me_flavor_probabilities", "master_eq.me", after=count_me)
    wrap("master_eq", "dyson_expand", "master_eq.dyson")
    kernel_cls = getattr(modules["master_eq"], "SuperoperatorKernel", None)
    if kernel_cls is not None and hasattr(kernel_cls, "from_model"):
        from_model = kernel_cls.from_model.__func__
        kernel_cls.from_model = classmethod(
            lambda cls, model: tracer.call("master_eq.dyson", from_model, cls, model))
    wrap("master_eq", "flavor_record", "master_eq.closed_form")

    wrap("integrators", "run_ensemble", None, after=count_ensemble,
         name_of=lambda model, spec, *a, **k: "integrators.ensemble.%s" % spec.kind)

    return wrap("cli", "main", "cli.main")


def main(argv):
    tracer = Tracer()
    start = time.perf_counter()
    import mesoncollapse.cli  # noqa: F401  (timed: every invocation pays it)
    tracer.spans.append(["cli.import", -1, start, time.perf_counter()])
    traced_main = install(tracer)
    try:
        status = traced_main(argv)
    except SystemExit as exc:  # argparse usage errors
        status = exc.code
    sys.stdout.flush()
    sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary(), sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
