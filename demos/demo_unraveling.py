"""Three stochastic unravelings of the same master equation.

The nonlinear (collapse) SDE and the linear SDE are different pathwise
processes with the same ensemble average; the linear SDE's Ito and
Stratonovich forms share one exact pathwise solution.  This script runs a
modest ensemble of each kind and compares the mean flavor probabilities
against the exact closed form -- and shows the pathwise difference:
collapse trajectories develop across-trajectory variance of the mass
populations, while the linear trajectories are exactly unitary and
mass-diagonal, so their mass populations stay frozen (sd exactly 0).

Run:  python3 demos/demo_unraveling.py        (about ten seconds)
"""

import numpy as np

from mesoncollapse import (Grid, IntegratorSpec, ModelParams, build_qmupl,
                           make_gaussian_state, qmupl_flavor_probabilities,
                           run_ensemble)


def main():
    params = ModelParams(lam=0.2, alpha=1.0)
    grid = Grid.centered(64, 16.0)
    model = build_qmupl(params, grid)
    initial = make_gaussian_state(params, grid, "M0")

    times = np.array([1.0, 2.0, 3.0])
    n_traj = 1500
    dt = 2e-3

    print("ensemble mean P(M0) vs exact, %d trajectories each" % n_traj)
    print("%16s" % "t", "  ".join("%10.1f" % t for t in times))
    ps, _ = qmupl_flavor_probabilities(params, times)
    print("%16s" % "exact", "  ".join("%10.5f" % p for p in ps))
    for kind in ("ito-nonlinear", "ito-linear", "stratonovich"):
        res = run_ensemble(model, IntegratorSpec(kind, dt), initial,
                           float(times[-1]), n_traj, seed=42,
                           sample_times=times)
        row = "  ".join("%10.5f" % p for p in res.flavor_mean[:, 0])
        mass_sd = float(np.sqrt(res.mass_var[-1, 0]))
        print("%16s %s   mass-pop sd %.4f" % (kind, row, mass_sd))
    print("means agree within Monte Carlo error; only the collapse SDE")
    print("spreads the per-trajectory mass populations")


if __name__ == "__main__":
    main()
