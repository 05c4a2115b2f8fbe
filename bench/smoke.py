"""Smoke check of the benchmark: every workload at tiny size, both modes.

Usage: python3 bench/smoke.py

Asserts that each run is correct and that its last line carries every
metric BENCHMARK.json names (end-to-end without tracing, per-layer with
tracing), each with the declared unit.  Takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, trace):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report = "))[9:])
    return json.loads(lines[-1]), report


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, report = run(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: last line keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"]:
                problems.append("%s: incorrect: %s" % (label, report["failures"]))
            names = {m["name"] for m in declared}
            if set(result["metrics"]) != names:
                problems.append("%s: metrics differ from BENCHMARK.json: %s" % (
                    label, sorted(set(result["metrics"]) ^ names)))
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: %s = %r" % (label, m["name"], got))
            for key in ("failed_frac", "verdict_misses", "metadata", "wall_s"):
                if key not in report:
                    problems.append("%s: report lacks %s" % (label, key))
            print("%-40s ok=%s" % (label, not problems), flush=True)
    for problem in problems:
        print("FAIL " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
