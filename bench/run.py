"""End-to-end benchmark of the mesoncollapse command line.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                         [--tiny]

Each workload is a fixed list of CLI invocations.  One iteration runs them
back to back, each in a fresh ``python3 -m mesoncollapse.cli`` process, from
this one process (a closed loop with one client).  Iterations
repeat for about ``--seconds`` seconds with the same inputs, so every
repeat must print byte-identical output.  Every invocation passes a
correctness gate; see ``check_output``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced iterations with iterations run through ``trace_cli.py`` and reports
per-layer metrics and the tracing overhead.  ``--tiny`` shrinks every
workload for the smoke check.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable report and one ``report = <json>`` line
with quartiles, counts and run metadata.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TRACE_PREFIX = "BENCH-TRACE "
KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")
NPROC = len(os.sched_getaffinity(0))

CALL_TIMEOUT_S = 120.0   # one CLI invocation
RUN_BUDGET_S = 150.0     # start no iteration that would end after this
SETUP_REPEATS = 7
# one BLAS thread per process keeps workers x BLAS threads <= nproc on every
# workload; a second thread made the 640-point ``me`` slower, not faster
BLAS_THREADS = 1
VERDICT_Z = 3.0          # the CLI's own compare verdict
GATE_Z = 5.0             # benchmark failure threshold, in standard errors


@dataclass
class Command:
    name: str
    argv: list
    check: str            # "record", "compare" or "theta"
    traj_steps: int = 0


@dataclass
class Workload:
    model: dict           # model flags, also the set-up probe's input
    workers: int
    commands: list


def _num(x):
    return repr(float(x)) if isinstance(x, float) else str(x)


def _model_flags(model):
    flags = []
    for key, value in model.items():
        flags += ["--" + key.replace("_", "-"), _num(value)]
    return flags


def qmupl_triangle(seed, tiny):
    """One QMUPL channel: the integrators' per-step kernel does the work."""
    model = {"model": "qmupl", "lambda": 0.2, "alpha": 1.0,
             "grid_points": 64, "grid_extent": 16.0}
    ntraj, tmax = 64, (0.6 if tiny else 7.2)
    base = _model_flags(model) + ["--dt", "0.001", "--tmax", _num(tmax),
                                  "--samples", "12", "--ntraj", str(ntraj),
                                  "--seed", str(seed)]
    steps = round(tmax / 1e-3)
    return Workload(model, workers=1, commands=[
        Command("compare-" + kind, ["compare"] + base + ["--integrator", kind],
                "compare", ntraj * steps)
        for kind in ("ito-nonlinear", "ito-linear", "stratonovich")])


def csl_field(seed, tiny):
    """96 CSL channels, parallel chunks: noise, einsum and dispatch load."""
    model = {"model": "csl", "gamma": 0.3, "rc": 1.0,
             "grid_points": 96, "grid_extent": 16.0}
    ntraj, tmax = (16, 0.4) if tiny else (86, 2.0)
    eps = tmax / 40.0
    base = _model_flags(model) + ["--tmax", _num(tmax), "--samples", "8",
                                  "--ntraj", str(ntraj), "--seed", str(seed)]
    commands = [Command("compare-wong-zakai",
                        ["compare"] + base + ["--integrator", "wong-zakai",
                                              "--mollifier", "gaussian",
                                              "--eps", _num(eps),
                                              "--dt", _num(eps / 4.0)],
                        "compare", ntraj * 160)]
    for kind in ("ito-nonlinear", "stratonovich"):
        commands.append(Command(
            "compare-" + kind,
            ["compare"] + base + ["--integrator", kind, "--dt", "0.001"],
            "compare", ntraj * round(tmax / 1e-3)))
    return Workload(model, workers=NPROC, commands=commands)


def oracle_deterministic(seed, tiny):
    """No trajectories: closed forms, grid ME, Dyson and the I(eps) check."""
    model = {"model": "csl", "gamma": 0.4, "rc": 0.5,
             "grid_points": 160 if tiny else 640,
             "grid_extent": 16.0 if tiny else 64.0}
    flags = _model_flags(model)
    series = ["--tmax", "2.0", "--samples", "20"]
    commands = [
        Command("exact", ["exact"] + flags + series, "record"),
        Command("me", ["me"] + flags + series + ["--dt", "0.01"], "record"),
        Command("dyson", ["dyson"] + flags + ["--tmax", "2.0", "--samples",
                                              "2" if tiny else "6",
                                              "--order", "2"], "record"),
    ]
    for mollifier in ("gaussian", "box", "asymmetric-exponential",
                      "asymmetric-triangle"):
        commands.append(Command(
            "theta-" + mollifier,
            ["theta-check", "--mollifier", mollifier, "--tmax", "1.0",
             "--eps", "0.01", "--ntraj", "200" if tiny else "1000",
             "--seed", str(seed)], "theta"))
    return Workload(model, workers=1, commands=commands)


WORKLOADS = {
    "qmupl-triangle": qmupl_triangle,
    "csl-field": csl_field,
    "oracle-deterministic": oracle_deterministic,
}


# ---------------------------------------------------------------- processes

@dataclass
class Call:
    status: int
    stdout: bytes
    stderr: str
    wall_s: float
    trace: dict = None


def child_env(workers):
    env = dict(os.environ)
    # cache bytecode under src/ as an installed package would, whatever the
    # caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(SRC)
    env["MESONCOLLAPSE_WORKERS"] = str(workers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_process(argv, env):
    """Run one child in its own session; kill the whole group (the child
    and its pool workers) on timeout or when this process is stopped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        out, err = proc.communicate()
        return Call(-9, out, err.decode(errors="replace") + "\ntimeout",
                    time.perf_counter() - start)
    except BaseException:
        _kill_group(proc)
        proc.wait()
        raise
    return Call(proc.returncode, out, err.decode(errors="replace"),
                time.perf_counter() - start)


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_cli(command, env, traced):
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "trace_cli.py")] + command.argv
    else:
        argv = [sys.executable, "-m", "mesoncollapse.cli"] + command.argv
    call = run_process(argv, env)
    if traced:
        lines = call.stderr.splitlines()
        if lines and lines[-1].startswith(TRACE_PREFIX):
            call.trace = json.loads(lines[-1][len(TRACE_PREFIX):])
            call.stderr = "\n".join(lines[:-1])
    return call


# ---------------------------------------------------------------- correctness

def parse_table(stdout):
    """CSV body of a CLI output: (header comments, columns, rows of str)."""
    comments, body = [], []
    for line in stdout.decode().splitlines():
        (comments if line.startswith("#") else body).append(line)
    if not body:
        raise ValueError("no table in output")
    columns = body[0].split(",")
    rows = [line.split(",") for line in body[1:]]
    if not rows or any(len(r) != len(columns) for r in rows):
        raise ValueError("ragged or empty table")
    return comments, columns, rows


def _floats(columns, row, text_columns=()):
    values = {}
    for name, cell in zip(columns, row):
        if name in text_columns:
            values[name] = cell
            continue
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError("non-finite cell %s=%s" % (name, cell))
        values[name] = value
    return values


def check_output(command, call):
    """Gate one invocation.  Returns (ok, verdict_misses, reason, rows).

    Every invocation exits 0, prints only finite cells, and keeps
    p_same + p_other = 1 within 3 stated stderrs.  ``compare`` keeps
    |p_me - p_exact| < 1e-2.  An ensemble |z| above 3 is the CLI's own FAIL
    verdict (exit 1) and counts as a verdict miss.  The ensemble fails when
    |p_ensemble - p_exact| exceeds 5 worst-case standard errors
    sqrt(p (1 - p) / n_traj): no [0, 1]-valued variable of mean p has a
    larger variance, whereas the sample stderr misses heavy tails.
    ``theta-check`` keeps theta_zero within 1e-3 of 1/2 at eps = t/100 and
    the Monte Carlo estimate within 5 stderrs of the quadrature.
    """
    try:
        comments, columns, rows = parse_table(call.stdout)
        misses = 0
        if command.check == "record":
            if call.status != 0:
                return False, 0, "exit status %d" % call.status, None
            values = [_floats(columns, r, ("source",)) for r in rows]
            for v in values:
                err = 3.0 * math.hypot(v["stderr_same"], v["stderr_other"]) + 1e-9
                if abs(v["p_same"] + v["p_other"] - 1.0) > err:
                    return False, 0, "p_same + p_other != 1 at t=%g" % v["time"], None
        elif command.check == "compare":
            values = [_floats(columns, r, ("verdict",)) for r in rows]
            ntraj = int(command.argv[command.argv.index("--ntraj") + 1])
            for v in values:
                z = (v["p_ensemble"] - v["p_exact"]) / v["stderr_ensemble"]
                if abs(z - v["z_score"]) > 1e-6 * max(1.0, abs(z)):
                    return False, 0, "z_score column inconsistent", None
                if abs(v["p_me"] - v["p_exact"]) >= 1e-2:
                    return False, 0, "ME vs exact %g at t=%g" % (
                        abs(v["p_me"] - v["p_exact"]), v["time"]), None
                p = v["p_exact"]
                worst = math.sqrt(max(p * (1.0 - p), 0.0) / ntraj)
                if abs(v["p_ensemble"] - p) > GATE_Z * worst + 1e-9:
                    return False, 0, "ensemble off by %g > 5 x %g at t=%g" % (
                        abs(v["p_ensemble"] - p), worst, v["time"]), None
                if abs(z) > VERDICT_Z:
                    misses += 1
            expected = 1 if misses else 0
            if call.status != expected:
                return False, misses, "exit status %d with %d verdict misses" % (
                    call.status, misses), None
        else:
            if call.status != 0:
                return False, 0, "exit status %d" % call.status, None
            values = [_floats(columns, r) for r in rows]
            t = float(command.argv[command.argv.index("--tmax") + 1])
            finest = [v for v in values if abs(v["eps"] - t / 100.0) < 1e-12]
            if not finest:
                return False, 0, "no row at eps = t/100", None
            for v in finest:
                if abs(v["theta_zero"] - 0.5) > 1e-3:
                    return False, 0, "theta_zero = %g" % v["theta_zero"], None
            for v in values:
                if abs(v["mc_estimate"] - v["i_epsilon"]) > GATE_Z * v["mc_stderr"]:
                    return False, 0, "Monte Carlo I(eps) off by > 5 stderr", None
        return True, misses, "", values
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return False, 0, "unreadable output (%s): %s" % (exc, call.stderr[-300:]), None


def check_me_against_exact(results):
    """``me`` and ``exact`` share sample times; they must agree within 1e-2."""
    exact, me = results.get("exact"), results.get("me")
    if exact is None or me is None:
        return True
    for e, m in zip(exact, me):
        if abs(e["time"] - m["time"]) < 1e-9 and abs(e["p_same"] - m["p_same"]) >= 1e-2:
            return False
    return True


# ---------------------------------------------------------------- the run

@dataclass
class Variant:
    name: str
    traced: bool
    workers: int
    walls: list = field(default_factory=list)
    traces: list = field(default_factory=list)   # per-iteration merged traces


class Run:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.verdict_misses = 0
        self.failures = []
        self.first_output = {}
        self.first_counts = {}

    def invoke(self, command, variant, outputs):
        call = run_cli(command, child_env(variant.workers),
                       variant.traced)
        self.attempted += 1
        ok, misses, reason, values = check_output(command, call)
        self.verdict_misses += misses
        reference = self.first_output.setdefault(command.name, call.stdout)
        if ok and call.stdout != reference:
            ok, reason = False, "output differs from the first repeat"
        if ok and variant.traced:
            if call.trace is None:
                ok, reason = False, "no trace line"
            else:
                counts = (call.trace["sums"], call.trace["maxes"])
                key = (variant.name, command.name)
                if counts != self.first_counts.setdefault(key, counts):
                    ok, reason = False, "computed counts differ between repeats"
        if values is not None:
            outputs[command.name] = values
        if not ok:
            self.failed += 1
            self.failures.append("%s [%s]: %s" % (command.name, variant.name, reason))
        return call

    def iteration(self, variant):
        outputs, traces = {}, []
        start = time.perf_counter()
        for command in self.workload.commands:
            traces.append(self.invoke(command, variant, outputs).trace)
        wall = time.perf_counter() - start
        if not check_me_against_exact(outputs):
            self.failed += 1
            self.failures.append("me vs exact differ by >= 1e-2 [%s]" % variant.name)
        variant.walls.append(wall)
        if variant.traced:
            variant.traces.append(merge_traces(t for t in traces if t))
        return wall


def merge_traces(traces):
    merged = {"inclusive": {}, "self": {}, "sums": {}, "maxes": {}, "missing": set()}
    for trace in traces:
        for part in ("inclusive", "self", "sums"):
            for key, value in trace[part].items():
                merged[part][key] = merged[part].get(key, 0) + value
        for key, value in trace["maxes"].items():
            merged["maxes"][key] = max(merged["maxes"].get(key, 0), value)
        merged["missing"].update(trace["missing"])
    return merged


def measure_setup(workload):
    """Median wall time of fresh processes that import and build the model."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"),
            json.dumps(workload.model)]
    env = child_env(workload.workers)
    walls, failures = [], 0
    for i in range(SETUP_REPEATS + 1):
        call = run_process(argv, env)
        if call.status != 0:
            failures += 1
            sys.stderr.write(call.stderr[-500:])
        elif i > 0:                       # the first run warms file caches
            walls.append(call.wall_s)
    return walls, failures


def run_variants(run, variants, seconds, t_start, min_rounds):
    rounds, t_loop = 0, time.perf_counter()
    while True:
        for variant in variants:
            run.iteration(variant)
        rounds += 1
        now = time.perf_counter()
        per_round = (now - t_loop) / rounds
        if now - t_start + per_round > RUN_BUDGET_S:
            break
        if rounds >= min_rounds and now - t_loop + per_round > seconds:
            break
    return rounds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metadata(args, workload, seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "MESONCOLLAPSE_WORKERS": workload.workers, "workload": args.workload,
            "seed": args.seed, "cli_seed": seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}


# per-layer time metrics and the span whose inclusive time each one reads
LAYER_SPANS = {
    "cli.import_s": "cli.import",
    "core.state_s": "core.state",
    "models.build_s": "models.build",
    "noise.draw_s": "noise.draw",
    "noise.quad_s": "noise.quad",
    "noise.mc_s": "noise.mc",
    "master_eq.rates_s": "master_eq.rates",
    "master_eq.me_s": "master_eq.me",
    "master_eq.dyson_s": "master_eq.dyson",
    "master_eq.closed_form_s": "master_eq.closed_form",
}


def layer_metrics(layer, parallel, untraced, traced):
    """Per-layer metrics: medians over the traced iterations of ``layer``."""
    def med(value, traces=layer.traces):
        return statistics.median(value(t) for t in traces)

    def get(part, name):
        return lambda t: t[part].get(name, 0)

    def rate(count, span):
        return lambda t: _rate(t["sums"].get(count, 0), t["inclusive"].get(span, 0))

    def ensemble_s(t):
        return sum(t["inclusive"].get("integrators.ensemble." + k, 0) for k in KINDS)

    metrics = {name: (med(get("inclusive", span)), "s")
               for name, span in LAYER_SPANS.items()}
    metrics["cli.self_s"] = (med(get("self", "cli.main")), "s")
    for name in ("models.channel_bytes", "integrators.model_pickle_bytes"):
        metrics[name] = (med(get("maxes", name)), "bytes")
    for name in ("noise.draw_bytes", "master_eq.me_bytes"):
        metrics[name] = (med(get("sums", name)), "bytes")
    metrics["master_eq.me_entry_steps_per_s"] = (
        med(rate("master_eq.me_entry_steps", "master_eq.me")), "1/s")
    for kind in KINDS:
        span = "integrators.ensemble." + kind
        metrics["integrators.ensemble_s." + kind] = (med(get("inclusive", span)), "s")
        metrics["integrators.traj_steps_per_s." + kind] = (
            med(rate("integrators.traj_steps." + kind, span)), "1/s")
    metrics["integrators.step_self_s"] = (med(lambda t: sum(
        t["self"].get("integrators.ensemble." + k, 0) for k in KINDS)), "s")
    efficiency = 0.0
    if parallel is not None:
        efficiency = _rate(med(ensemble_s),
                           NPROC * med(ensemble_s, parallel.traces))
    metrics["integrators.parallel_eff"] = (efficiency, "1")
    metrics["trace.overhead_s"] = (
        statistics.median(traced.walls) - statistics.median(untraced.walls), "s")
    return metrics


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke check)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "mesoncollapse" / "cli.py").is_file():
        print("bench: no mesoncollapse sources under %s" % SRC, file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    seed = args.seed % 2 ** 31
    workload = WORKLOADS[args.workload](seed, args.tiny)
    run = Run(workload)
    setup_walls, setup_failures = measure_setup(workload)
    run.attempted += SETUP_REPEATS + 1
    run.failed += setup_failures
    if setup_failures:
        run.failures.append("%d set-up probes failed" % setup_failures)
    if not setup_walls:
        print("bench: the set-up probe failed", file=sys.stderr)
        return 1

    untraced = Variant("untraced", False, workload.workers)
    variants = [untraced]
    parallel = layer = traced = None
    if args.trace:
        traced = Variant("traced", True, workload.workers)
        variants.append(traced)
        layer = traced
        if workload.workers > 1:
            # pool workers keep their spans: trace a serial run as well
            layer = Variant("traced-serial", True, 1)
            variants.append(layer)
            parallel = traced
    rounds = run_variants(run, variants, args.seconds, t_start,
                          min_rounds=2)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if not args.trace and workload.workers > 1:
        # results must not depend on the worker count: rerun one command,
        # chosen by the seed, with one worker (the traced run compares all
        # of them through its serial variant)
        command = workload.commands[seed % len(workload.commands)]
        run.invoke(command, Variant("serial-check", False, 1), {})

    wall_q1, wall_med, wall_q3 = quartiles(untraced.walls)
    setup_q1, setup_med, setup_q3 = quartiles(setup_walls)
    traj_steps = sum(c.traj_steps for c in workload.commands)
    if args.trace:
        metrics = layer_metrics(layer, parallel, untraced, traced)
    else:
        metrics = {"wall_s": (wall_med, "s"), "setup_s": (setup_med, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    report = {
        "metadata": metadata(args, workload, seed),
        "rounds": rounds,
        "wall_s": {"median": wall_med, "q1": wall_q1, "q3": wall_q3,
                   "samples": len(untraced.walls)},
        "setup_s": {"median": setup_med, "q1": setup_q1, "q3": setup_q3,
                    "samples": len(setup_walls)},
        "traj_steps": traj_steps,
        "traj_steps_per_s": traj_steps / wall_med if traj_steps else None,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": run.failed / run.attempted,
        "verdict_misses": run.verdict_misses,
        "failures": run.failures,
        "commands": [" ".join(["mesoncollapse"] + c.argv) for c in workload.commands],
    }
    if args.trace:
        report["untraced_wall_s"] = statistics.median(untraced.walls)
        report["traced_wall_s"] = statistics.median(traced.walls)
        report["computed_counts"] = layer.traces[0]["sums"] | layer.traces[0]["maxes"]
        report["missing_spans"] = sorted(layer.traces[0]["missing"])

    print("workload %s, seed %d, %d rounds, nproc %d" % (
        args.workload, args.seed, rounds, NPROC))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("  %-40s %14.6g %s   (q1 %.4g, q3 %.4g)" % (
        "wall_s quartiles" + (" (untraced)" if args.trace else ""), wall_med,
        "s", wall_q1, wall_q3))
    if traj_steps:
        print("  %-40s %14.6g %s" % ("traj_steps_per_s", report["traj_steps_per_s"], "1/s"))
    print("  %-40s %14.6g %s" % ("failed_frac", report["failed_frac"], "1"))
    print("  %-40s %14d %s" % ("verdict_misses", run.verdict_misses, "count"))
    for failure in run.failures:
        print("  FAILED: " + failure)
    print("report = " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
