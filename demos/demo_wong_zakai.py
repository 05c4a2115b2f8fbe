"""Mollified-noise ODE solutions converge to the Stratonovich SDE.

For a fixed Wiener path, the classical (RK4) solution of the ODE driven
by the smoothed noise approaches the Stratonovich solution on the same
path as the smoothing width eps shrinks.  This script shows the terminal
state distance falling roughly like sqrt(eps) on a handful of paths.

Run:  python3 demos/demo_wong_zakai.py       (a few seconds)
"""

import numpy as np

from mesoncollapse import (Grid, ModelParams, Mollifier, build_csl,
                           integrate_wong_zakai, make_gaussian_state,
                           sample_wiener, step_stratonovich)
from mesoncollapse.noise import MollifiedNoise


def main():
    # wide packet vs short smearing length: many effective noise channels,
    # so the pathwise distance concentrates near its mean
    params = ModelParams(gamma=0.5, rC=0.25, alpha=49.0)
    grid = Grid.centered(896, 56.0)
    model = build_csl(params, grid)
    state0 = make_gaussian_state(params, grid, "M0")
    t_end = 2.0
    eps_values = [t_end / 10, t_end / 20, t_end / 40]

    print("terminal-state distance |WZ - Stratonovich| per path")
    print("%8s" % "path" + "".join("%14s" % ("eps=t/%d" % (t_end / e))
                                   for e in eps_values))
    for pathid in range(5):
        dists = []
        for eps in eps_values:
            m = Mollifier("gaussian", eps)
            dt = eps / 8.0
            lo, hi = m.support()
            u_lo = -hi
            n_base = int(np.ceil((t_end - lo - u_lo) / dt))
            path = sample_wiener(1000 + pathid, dt, n_base, model.n_channels)
            noise = MollifiedNoise(base=path, mollifier=m, t_grid=None,
                                   samples=None, t0=u_lo)
            t_grid = dt * np.arange(int(round(t_end / dt)) + 1)
            wz = integrate_wong_zakai(state0, model, noise, t_grid)[-1]
            ref = state0
            k0 = int(round(-u_lo / dt))
            for k in range(int(round(t_end / dt))):
                ref = step_stratonovich(ref, model, path.increments[k0 + k], dt)
            diff = wz.normalized().amplitudes - ref.normalized().amplitudes
            dists.append(np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing))
        print("%8d" % pathid + "".join("%14.5f" % d for d in dists))
    print("each halving of eps shrinks the distance (by ~1/sqrt(2))")


if __name__ == "__main__":
    main()
