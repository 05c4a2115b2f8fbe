"""Set-up cost of one CLI invocation, in a fresh process.

Usage: python3 bench/setup_probe.py '<json of model, coupling, rC, alpha,
grid_points, grid_extent>'

Imports ``mesoncollapse.cli`` (as every invocation does), then builds the
workload's grid, collapse model and initial state through the public API,
and exits.  run.py times the whole process from the outside.
"""

import json
import sys


def main(spec):
    import mesoncollapse.cli  # noqa: F401
    from mesoncollapse import (DensityBlocks, Grid, ModelParams, build_csl,
                               build_qmupl, make_gaussian_state)

    params = ModelParams(m0=1.0, mH=1.5, mL=0.5, lam=spec.get("lambda", 0.0),
                         gamma=spec.get("gamma", 0.0), rC=spec.get("rc", 1.0),
                         alpha=spec.get("alpha", 1.0), dim=1)
    grid = Grid.centered(spec["grid_points"], spec["grid_extent"])
    build = build_qmupl if spec["model"] == "qmupl" else build_csl
    build(params, grid)
    DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
