"""The regularized autocorrelation integral equals 1/2 -- no free parameter.

Replacing white noise by a mollified (smoothed) version turns the formal
product "Wdot(t) x indicator integral" into the well-defined quantity

    I(eps) = int_0^t E[ Wdot_eps(t) Wdot_eps(s) ] ds,

Taking the s integral first through the kernel's CDF F_eps gives

    I(eps) = 1/2 - int dv delta_eps(v) F_eps(v - t) = 1/2 - P(V - V' >= t)

for two independent draws V, V' from the kernel.  The 1/2 is exact for
every unit-mass kernel and the remainder vanishes as eps -> 0 -- for
asymmetric kernels too, so no symmetry assumption is hiding anywhere.  A
would-be free parameter theta(0) = 1 - I is therefore pinned to 1/2.

Run:  python3 demos/demo_theta_check.py
"""

import numpy as np

from mesoncollapse import (MOLLIFIER_KINDS, Mollifier, i_epsilon_monte_carlo,
                           i_epsilon_quadrature)


def main():
    t = 1.0
    print("I(eps) by deterministic quadrature, t = %g" % t)
    header = "%24s" % "kernel" + "".join("%12s" % ("eps=t/%d" % d)
                                         for d in (5, 20, 100))
    print(header)
    for kind in MOLLIFIER_KINDS:
        row = "%24s" % kind
        for d in (5, 20, 100):
            row += "%12.6f" % i_epsilon_quadrature(Mollifier(kind, t / d), t)
        print(row)
    print("every kernel -> 1/2; theta(0) = 1 - I -> 1/2\n")

    print("Monte Carlo cross-check (gaussian kernel, eps = t/100)")
    est, err = i_epsilon_monte_carlo(Mollifier("gaussian", t / 100), t,
                                     n_paths=10 ** 4, seed=7)
    print("estimate %.4f +- %.4f  (quadrature %.6f)"
          % (est, err, i_epsilon_quadrature(Mollifier("gaussian", t / 100), t)))

    print("\na deliberately wide box kernel (eps = 2t) does NOT give 1/2:")
    print("I = %.6f (analytic value 3/8)"
          % i_epsilon_quadrature(Mollifier("box", 2.0 * t), t))


if __name__ == "__main__":
    main()
