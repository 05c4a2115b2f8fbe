"""Tests for Wiener paths, mollifiers, and the autocorrelation integral."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesoncollapse import (MOLLIFIER_KINDS, Mollifier, NoisePath,
                           ParameterError, UnderResolvedKernelError,
                           i_epsilon_monte_carlo, i_epsilon_quadrature,
                           mollify, sample_wiener)
from mesoncollapse.noise import (MAX_NOISE_BYTES, _merged_breakpoints,
                                 _panel_quadrature, gaussian_factor,
                                 mollified_values, path_generator,
                                 window_integrals)


def kernel_autocorrelation(m, s):
    """C(s) = int delta_eps(u) delta_eps(s + u) du for a scalar shift s."""
    lo, hi = m.support()
    a = max(lo, lo - s)
    b = min(hi, hi - s)
    if b <= a:
        return 0.0
    bps = list(m.support()) + [bp - s for bp in m.support()]
    points = _merged_breakpoints(bps, a, b)
    return _panel_quadrature(lambda u: m.pdf(u) * m.pdf(s + u),
                             points, max_panel=m.eps / 2.0)


def i_epsilon_nested(m, t):
    """Reference I(eps) = 1/2 int_{-t}^{t} C(s) ds by nested quadrature.

    The change of variables u -> s - u of the raw double integral, with C
    itself a quadrature at every outer node: independent of the CDF.
    """
    lo, hi = m.support()
    a = max(-t, lo - hi)
    b = min(t, hi - lo)
    if b <= a:
        return 0.0
    diffs = [bi - bj for bi in m.support() for bj in m.support()]
    points = _merged_breakpoints(diffs, a, b)
    vectorized = np.vectorize(lambda s: kernel_autocorrelation(m, s))
    return 0.5 * _panel_quadrature(vectorized, points, max_panel=m.eps / 2.0)


def traced_peak(call):
    """(call(), peak bytes traced by tracemalloc during the call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSampleWiener:

    def test_reproducible_from_seed(self):
        a = sample_wiener(42, 0.01, 500, 2)
        b = sample_wiener(42, 0.01, 500, 2)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seeds_differ(self):
        a = sample_wiener(1, 0.01, 100)
        b = sample_wiener(2, 0.01, 100)
        assert not np.array_equal(a.increments, b.increments)

    def test_increment_variance(self):
        """Sample variance of 1e5 increments is dt within 3 sigma.

        Var of the variance estimator is ~2 dt^2 / n for Gaussians.
        """
        dt = 0.01
        path = sample_wiener(1, dt, 10 ** 5, 1)
        var = np.var(path.increments)
        sigma = dt * np.sqrt(2.0 / path.increments.size)
        assert abs(var - dt) < 3.0 * sigma

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0, "n_steps": 10},
        {"dt": 0.1, "n_steps": 0},
        {"dt": 0.1, "n_steps": 10, "n_channels": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            sample_wiener(1, **kwargs)

    def test_streams_independent_of_generation_order(self):
        a = path_generator(5, 7).normal(size=4)
        path_generator(5, 3).normal(size=4)  # interleaved draw
        b = path_generator(5, 7).normal(size=4)
        assert np.array_equal(a, b)


class TestMollifier:

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_nonnegative_unit_mass(self, kind):
        m = Mollifier(kind, 0.3)
        lo, hi = m.support()
        x = np.linspace(lo, hi, 200001)
        pdf = m.pdf(x)
        assert np.all(pdf >= 0.0)
        assert np.trapezoid(pdf, x) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_vanishes_outside_support(self, kind):
        m = Mollifier(kind, 0.3)
        lo, hi = m.support()
        assert m.pdf(np.array([lo - 1.0, hi + 1.0])).max() < 1e-12
        assert hi - lo < 50.0 * m.eps  # effective width O(eps)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            Mollifier("cauchy", 0.1)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ParameterError):
            Mollifier("box", 0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_nonfinite_eps_rejected(self, eps):
        with pytest.raises(ParameterError):
            Mollifier("gaussian", eps)

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_cdf_matches_integrated_pdf(self, kind):
        """Inside and across every breakpoint, F(x) equals the panel
        quadrature of the pdf from the lower support end to x."""
        m = Mollifier(kind, 0.3)
        lo, hi = m.support()
        bps = m.support()
        xs = sorted(set(np.linspace(lo, hi, 23)) | set(bps)
                    | {b + d for b in bps for d in (-1e-3, 1e-3)})
        for x in xs:
            points = _merged_breakpoints(bps, lo, x) if x > lo else [lo]
            expected = _panel_quadrature(m.pdf, points, max_panel=m.eps / 2.0)
            assert abs(float(m.cdf(x)) - expected) < 1e-13, x

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_cdf_zero_below_one_above_nondecreasing(self, kind):
        m = Mollifier(kind, 0.3)
        lo, hi = m.support()
        assert np.all(m.cdf(np.array([lo - 1.0, lo, -np.inf])) == 0.0)
        assert np.all(m.cdf(np.array([hi, hi + 1.0, np.inf])) == 1.0)
        x = np.linspace(lo - 0.1, hi + 0.1, 20001)
        assert np.all(np.diff(m.cdf(x)) >= 0.0)

    @given(st.sampled_from(MOLLIFIER_KINDS),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=30, deadline=None)
    def test_unit_mass_property(self, kind, eps):
        m = Mollifier(kind, eps)
        lo, hi = m.support()
        x = np.linspace(lo, hi, 40001)
        assert np.trapezoid(m.pdf(x), x) == pytest.approx(1.0, abs=1e-4)


class TestMollify:

    def test_under_resolved_grid_rejected(self):
        path = sample_wiener(1, 0.01, 100)
        m = Mollifier("gaussian", 0.02)
        with pytest.raises(UnderResolvedKernelError):
            mollify(path, m, np.linspace(0.0, 1.0, 11))

    def test_linearity(self):
        """The smoothed samples are linear in the underlying increments."""
        m = Mollifier("box", 0.2)
        t = np.linspace(0.0, 1.0, 41)
        a = sample_wiener(1, 0.01, 100)
        b = sample_wiener(2, 0.01, 100)
        combo = type(a)(seed=0, dt=0.01,
                        increments=2.0 * a.increments + 3.0 * b.increments)
        direct = mollify(combo, m, t).samples
        assert np.allclose(direct, 2.0 * mollify(a, m, t).samples
                           + 3.0 * mollify(b, m, t).samples, atol=1e-12)

    def test_zero_increments_give_zero_samples(self):
        path = sample_wiener(1, 0.01, 100)
        zero = type(path)(seed=0, dt=0.01,
                          increments=np.zeros_like(path.increments))
        out = mollify(zero, Mollifier("gaussian", 0.1),
                      np.linspace(0.0, 1.0, 101))
        assert np.all(out.samples == 0.0)

    def test_kernel_quadrature_normalized(self):
        """Unit increment reproduces the kernel; its grid sum is ~1/dt scale."""
        dt = 0.005
        n = 200
        inc = np.zeros((n, 1))
        inc[n // 2, 0] = 1.0
        path = sample_wiener(1, dt, n)
        unit = type(path)(seed=0, dt=dt, increments=inc)
        t = np.arange(0.0, n * dt, dt)
        out = mollify(unit, Mollifier("gaussian", 0.05), t)
        assert np.sum(out.samples) * dt == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", ["gaussian", "box"])
    def test_time_integral_approaches_wiener_endpoint(self, kind):
        """RMS of int Wdot dt - W_T over 100 paths at least halves with eps."""
        dt = 0.002
        n = 500
        t_grid = np.arange(0.0, 1.0 + dt / 2, dt)
        rms = []
        for eps in (0.16, 0.08):
            errs = []
            for seed in range(100):
                path = sample_wiener(seed, dt, n)
                samples = mollified_values(path, Mollifier(kind, eps), t_grid)
                integral = np.trapezoid(samples[:, 0], t_grid)
                errs.append(integral - path.increments.sum(axis=0)[0])
            rms.append(np.sqrt(np.mean(np.square(errs))))
        assert rms[1] <= 0.75 * rms[0]


class TestIEpsilonQuadrature:

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_limit_is_half(self, kind):
        """eps = t/100 gives 1/2 for symmetric and asymmetric kernels alike."""
        assert i_epsilon_quadrature(Mollifier(kind, 0.01), 1.0) == \
            pytest.approx(0.5, abs=1e-3)

    def test_wide_box_matches_brute_force(self):
        """Box kernel with eps = 2t against an independent 2-D quadrature.

        Direct double integral int_0^t ds int du d(t-u) d(s-u) on a fine
        trapezoid mesh, no change of variables.
        """
        t, eps = 1.0, 2.0
        m = Mollifier("box", eps)
        value = i_epsilon_quadrature(m, t)
        # midpoint rule in u with cell edges aligned to every kernel jump,
        # so the piecewise-constant integrand is integrated exactly; the
        # resulting inner integral is piecewise linear in s, so the outer
        # trapezoid on the same mesh is exact too
        h = 1.0 / 1000
        u = np.arange(-eps, t + eps, h) + h / 2.0
        s = np.arange(0.0, t + h / 2, h)
        inner = (m.pdf(s[:, None] - u[None, :])
                 @ m.pdf(t - u)) * h
        brute = np.trapezoid(inner, s)
        assert value != pytest.approx(0.5, abs=1e-3)
        assert value == pytest.approx(brute, abs=1e-6)

    def test_box_double_width_analytic(self):
        """eps = 2t has the closed form 3/8 for the box kernel."""
        assert i_epsilon_quadrature(Mollifier("box", 2.0), 1.0) == \
            pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("eps,t", [(0.3, 1.0), (0.05, 0.2)])
    @pytest.mark.parametrize("kind,closed_form", [
        ("gaussian", lambda eps, t: 0.5 * math.erf(t / (2.0 * eps))),
        ("asymmetric-exponential", lambda eps, t: 0.5 * (1.0 - math.exp(-t / eps))),
        ("box", lambda eps, t: 0.5),
        ("asymmetric-triangle", lambda eps, t: 0.5),
    ])
    def test_closed_forms(self, kind, closed_form, eps, t):
        """I(eps) = 1/2 int_{-t}^{t} C(s) ds in closed form.

        The Gaussian autocorrelation is a Gaussian of width eps sqrt(2); the
        one-sided exponential gives a two-sided exponential; the box and the
        triangle autocorrelations vanish beyond |s| = eps <= t, so their
        whole unit mass falls inside [-t, t].
        """
        assert abs(i_epsilon_quadrature(Mollifier(kind, eps), t)
                   - closed_form(eps, t)) < 1e-13

    def test_first_order_convergence(self):
        """|I - 1/2| shrinks at least linearly in eps for the smooth kernel."""
        errs = [abs(i_epsilon_quadrature(Mollifier("asymmetric-exponential", e), 1.0) - 0.5)
                for e in (0.08, 0.04, 0.02)]
        assert errs[1] <= 0.6 * errs[0]
        assert errs[2] <= 0.6 * errs[1]

    def test_nonpositive_t_rejected(self):
        with pytest.raises(ParameterError):
            i_epsilon_quadrature(Mollifier("box", 0.1), 0.0)

    @given(st.sampled_from(MOLLIFIER_KINDS),
           st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e-2, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_nested_reference(self, kind, eps, t):
        """One CDF pass equals the nested quadrature, lies in [0, 1/2] and
        does not decrease in t; eps > t included."""
        m = Mollifier(kind, eps)
        value = i_epsilon_quadrature(m, t)
        assert abs(value - i_epsilon_nested(m, t)) < 1e-13
        assert 0.0 <= value <= 0.5
        assert i_epsilon_quadrature(m, 1.5 * t) >= value

    def test_autocorrelation_even_for_symmetric_kernel(self):
        m = Mollifier("gaussian", 0.2)
        assert kernel_autocorrelation(m, 0.13) == \
            pytest.approx(kernel_autocorrelation(m, -0.13), abs=1e-12)


class TestIEpsilonMonteCarlo:

    def test_agrees_with_quadrature(self):
        m = Mollifier("gaussian", 0.01)
        estimate, stderr = i_epsilon_monte_carlo(m, 1.0, 10 ** 4, seed=11)
        exact = i_epsilon_quadrature(m, 1.0)
        assert abs(estimate - exact) < 3.0 * stderr

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_window_integral_matches_fine_trapezoid(self, kind):
        """Same draws: each path's exact window integral against a trapezoid
        of its sampled Wdot(s) on a fine s grid, at O(ds^2).

        ds = h/3 and h/9 put every kernel jump (at a half-integer multiple
        of h) at a cell midpoint, where the trapezoid stays second order.
        The Monte Carlo draws each path's (Wdot(t), window integral) pair
        through the ``gaussian_factor`` of the same two weight rows.
        """
        m, t, n_paths, seed = Mollifier(kind, 0.1), 1.0, 300, 5
        h = m.eps / 8.0
        t_mid, window = window_integrals(m, [t], t, h)
        dw = path_generator(seed).normal(0.0, np.sqrt(h), size=(n_paths, t_mid.size))
        exact = dw @ window[0]
        paths = NoisePath(seed=seed, dt=h, increments=dw.T)   # one path per channel
        errs = []
        for ds in (h / 3.0, h / 9.0):
            s = np.linspace(0.0, t, int(round(t / ds)) + 1)
            trap = np.trapezoid(mollified_values(paths, m, s, t0=t_mid[0] - h / 2.0),
                                s, axis=0)
            errs.append(np.max(np.abs(trap - exact)))
            assert errs[-1] < 100.0 * ds ** 2
        assert errs[1] <= errs[0] / 8.0 + 1e-13
        factor = gaussian_factor([m.pdf(t - t_mid), window[0]], h)
        wdot_t, integral = factor @ path_generator(seed).standard_normal((2, n_paths))
        estimate, _ = i_epsilon_monte_carlo(m, t, n_paths, seed)
        assert estimate == pytest.approx(np.mean(wdot_t * integral), rel=1e-14)

    def test_draws_stay_within_noise_cap(self):
        """eps = t/1000 draws two normals per path, not its increments."""
        _, peak = traced_peak(lambda: i_epsilon_monte_carlo(
            Mollifier("gaussian", 1e-3), 1.0, 200, seed=1))
        assert peak < 50 * 2 ** 20

    def test_path_beyond_noise_cap_rejected(self):
        t = 1.0
        eps = 8.0 * t / (MAX_NOISE_BYTES // 8)
        with pytest.raises(ParameterError):
            i_epsilon_monte_carlo(Mollifier("box", eps), t, 100, seed=1)

    def test_too_few_paths_rejected(self):
        with pytest.raises(ParameterError):
            i_epsilon_monte_carlo(Mollifier("box", 0.1), 1.0, 50, seed=1)

    def test_closer_to_half_at_smaller_eps(self):
        """For the asymmetric exponential kernel I(eps) = 1/2 - e^{-t/eps}/2,
        so its gap to 1/2 is nonzero and shrinks with eps; each Monte Carlo
        estimate lies within 5 stderr of its own quadrature value."""
        gaps = []
        for eps in (1.0, 0.5, 0.25):
            m = Mollifier("asymmetric-exponential", eps)
            quad = i_epsilon_quadrature(m, 1.0)
            assert quad == pytest.approx(0.5 - 0.5 * math.exp(-1.0 / eps),
                                         abs=1e-12)
            gaps.append(0.5 - quad)
            estimate, stderr = i_epsilon_monte_carlo(m, 1.0, 2000, seed=7)
            assert abs(estimate - quad) < 5.0 * stderr
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestGaussianFactor:

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_factor_reproduces_window_covariance(self, kind):
        """L L^T = h w w^T to rounding for the window weights of a stop at
        t = 0 (a zero row: the Gram matrix is singular and has no Cholesky
        factor) and of stops every h at eps = 4h (nearly dependent rows);
        L is square and finite, and its row for t = 0 is zero, so
        W^eps(0) = 0 on every path."""
        m = Mollifier(kind, 0.08)
        h = m.eps / 4.0
        for times in (np.array([0.0, 0.5, 1.0]), h * np.arange(1, 41)):
            _, w = window_integrals(m, times, times[-1], h)
            factor = gaussian_factor(w, h)
            gram = h * w @ w.T
            assert factor.shape == gram.shape
            assert np.all(np.isfinite(factor))
            assert np.max(np.abs(factor @ factor.T - gram)) < \
                1e-14 * np.max(gram)
        _, w = window_integrals(m, [0.0, 0.5], 0.5, h)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(h * w @ w.T)
        assert np.all(gaussian_factor(w, h)[0] == 0.0)


class TestItoIsometry:

    def test_step_function_integral_variance(self):
        """E[(int f dW)^2] = int f^2 dt for a deterministic step function."""
        dt = 0.01
        n = 100
        rng = path_generator(123)
        f = np.sin(np.arange(n) * 0.2) + 0.5
        n_paths = 2 * 10 ** 4
        dw = rng.normal(0.0, np.sqrt(dt), size=(n_paths, n))
        integrals = dw @ f
        target = np.sum(f ** 2) * dt
        sample = np.mean(integrals ** 2)
        stderr = np.std(integrals ** 2) / np.sqrt(n_paths)
        assert abs(sample - target) < 3.0 * stderr
