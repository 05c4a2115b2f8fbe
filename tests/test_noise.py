"""Tests for Wiener paths, mollifiers, and the autocorrelation integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesoncollapse import (MOLLIFIER_KINDS, Mollifier, ParameterError,
                           UnderResolvedKernelError, i_epsilon_monte_carlo,
                           i_epsilon_quadrature, kernel_autocorrelation,
                           mollify, sample_wiener)
from mesoncollapse.noise import mollified_values, path_generator


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

    def test_cumulative_starts_at_zero(self):
        path = sample_wiener(3, 0.1, 10, 2)
        w = path.cumulative()
        assert w.shape == (11, 2)
        assert np.all(w[0] == 0.0)
        assert np.allclose(w[-1], path.increments.sum(axis=0))

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
                errs.append(integral - path.cumulative()[-1, 0])
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
    def test_folded_trapezoid_matches_path_trapezoid(self, kind):
        """Same draws, the trapezoid taken over each sampled Wdot(s) path."""
        m, t, n_paths, seed, chunk = Mollifier(kind, 0.1), 1.0, 300, 5, 128
        lo, hi = m.support()
        h = m.eps / 8.0
        n_inc = int(np.ceil((t - lo + hi) / h))
        t_mid = -hi + (np.arange(n_inc) + 0.5) * h
        s_grid = np.linspace(0.0, t, int(np.round(t / h)) + 1)
        kernel_s = m.pdf(s_grid[:, None] - t_mid[None, :])
        kernel_t = m.pdf(t - t_mid)
        rng = path_generator(seed)
        vals = []
        for done in range(0, n_paths, chunk):
            dw = rng.normal(0.0, np.sqrt(h), size=(min(chunk, n_paths - done), n_inc))
            vals.append((dw @ kernel_t) * np.trapezoid(dw @ kernel_s.T, s_grid, axis=1))
        vals = np.concatenate(vals)
        estimate, stderr = i_epsilon_monte_carlo(m, t, n_paths, seed, chunk=chunk)
        assert estimate == pytest.approx(np.mean(vals), rel=1e-12)
        assert stderr == pytest.approx(np.std(vals, ddof=1) / np.sqrt(n_paths),
                                       rel=1e-12)

    def test_too_few_paths_rejected(self):
        with pytest.raises(ParameterError):
            i_epsilon_monte_carlo(Mollifier("box", 0.1), 1.0, 50, seed=1)

    def test_closer_to_half_at_smaller_eps(self):
        wide, _ = i_epsilon_monte_carlo(Mollifier("box", 0.1), 1.0,
                                        2000, seed=7)
        narrow, _ = i_epsilon_monte_carlo(Mollifier("box", 0.001), 1.0,
                                          2000, seed=7)
        assert abs(narrow - 0.5) < abs(wide - 0.5) + 0.05


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
