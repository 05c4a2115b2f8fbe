"""Tests for trajectory integrators and ensemble averaging."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesoncollapse import (MOLLIFIER_KINDS, DensityBlocks, Grid, GridState,
                           IntegratorSpec, Mollifier, ModelParams, NormDivergenceError,
                           ParameterError, UnderResolvedKernelError,
                           build_csl, build_qmupl, integrate_wong_zakai,
                           make_gaussian_state, me_flavor_probabilities,
                           mollify, qmupl_flavor_probabilities, run_ensemble,
                           sample_wiener, step_ito_linear, step_ito_nonlinear,
                           step_stratonovich)
from mesoncollapse.core import IDX_L
from mesoncollapse import integrators
from mesoncollapse.integrators import (INTEGRATOR_KINDS, _mean_stderr,
                                      _merge_moments, _moments, _run_chunk)
from mesoncollapse.master_eq import _hl_diagonal
from mesoncollapse.noise import (MollifiedNoise, NoisePath, gaussian_factor,
                                 path_generator, window_integrals)


def qmupl_setup(lam=0.2, n=64, extent=16.0):
    params = ModelParams(lam=lam)
    grid = Grid.centered(n, extent)
    model = build_qmupl(params, grid)
    state = make_gaussian_state(params, grid, "M0")
    return params, grid, model, state


class TestIntegratorSpec:

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            IntegratorSpec(kind="milstein", dt=0.01)

    def test_mollifier_required_iff_wong_zakai(self):
        with pytest.raises(ParameterError):
            IntegratorSpec(kind="wong-zakai", dt=0.01)
        with pytest.raises(ParameterError):
            IntegratorSpec(kind="ito-linear", dt=0.01,
                           mollifier=Mollifier("box", 0.1))
        IntegratorSpec(kind="wong-zakai", dt=0.01,
                       mollifier=Mollifier("box", 0.1))


class TestNoiseFreeLimit:

    @pytest.mark.parametrize("step", [step_ito_nonlinear, step_ito_linear,
                                      step_stratonovich])
    def test_lambda_zero_full_flip(self, step):
        """With lam=0 all schemes reduce to the diagonal phase rotation:
        M0 at t = pi/dm has flipped to M0bar up to O(dt) scheme error."""
        params, _, model, state = qmupl_setup(lam=0.0)
        dt = np.pi / params.dm / 2000
        dW = np.zeros(model.n_channels)
        for _ in range(2000):
            state = step(state, model, dW, dt)
        state = state.normalized()
        assert state.flavor_probability("M0bar") == pytest.approx(1.0, abs=1e-4)

    def test_all_schemes_identical_at_lambda_zero(self):
        """At lam=0 every step approximates the rotation exp(-iH dt): the
        collapse step is exact, Euler-Maruyama and Heun are within their
        local truncation bounds (h dt)^2/2 and (h dt)^3/6."""
        params, grid, model, state = qmupl_setup(lam=0.0)
        dW = np.zeros(model.n_channels)
        dt = 0.01
        exact = state.amplitudes * np.exp(-1j * model.hamiltonian * dt)
        hdt = float(np.max(model.hamiltonian)) * dt

        def dist(step):
            diff = step(state, model, dW, dt).amplitudes - exact
            return np.sqrt(np.sum(np.abs(diff) ** 2) * grid.spacing)

        assert dist(step_ito_nonlinear) < 1e-12
        assert dist(step_ito_linear) <= hdt ** 2 / 2.0
        assert dist(step_stratonovich) <= hdt ** 3 / 6.0


class TestPathwiseProperties:

    def test_mass_purity_per_trajectory(self):
        """A pure mass eigenstate never develops the other component."""
        params, grid, model, _ = qmupl_setup(lam=0.5)
        state = make_gaussian_state(params, grid, "H")
        rng = path_generator(9)
        for _ in range(200):
            dW = rng.normal(0.0, 0.1, size=model.n_channels)
            state = step_ito_nonlinear(state, model, dW, 0.01)
        assert np.max(np.abs(state.amplitudes[:, IDX_L])) == 0.0

    def test_linear_scheme_mass_populations_frozen(self):
        """The linear SDE's generator is a mass-diagonal phase: pathwise
        mass populations are constant in continuum, so the discrete drift
        is pure scheme error and vanishes under dt refinement."""
        from mesoncollapse.integrators import _em_linear
        params, grid, model, state0 = qmupl_setup(lam=0.5)
        rms = []
        for dt in (0.01, 0.00125):
            drifts = []
            for seed in range(30):
                n_steps = int(round(1.0 / dt))
                path = sample_wiener(seed, dt, n_steps, model.n_channels)
                amp = np.array(state0.amplitudes)
                for k in range(n_steps):
                    amp = _em_linear(amp, model, path.increments[k], dt)
                prob = np.abs(amp) ** 2
                ph = prob[:, 0].sum() / prob.sum()
                drifts.append(ph - 0.5)
            rms.append(np.sqrt(np.mean(np.square(drifts))))
        assert rms[0] < 0.05
        assert rms[1] < 0.55 * rms[0]  # shrinks under an 8x refinement

    def test_nonlinear_trajectories_develop_flavor_variance(self):
        """Collapse vs no collapse: nonlinear trajectories have nonzero
        across-trajectory variance of the flavor probability, while the
        linear-unitary ones spread much less."""
        params, _, model, state = qmupl_setup(lam=0.5)
        t_max, dt, n = 2.0, 0.004, 60
        res_nl = run_ensemble(model, IntegratorSpec("ito-nonlinear", dt),
                              state, t_max, n, seed=3,
                              sample_times=np.array([t_max]))
        # stderr * sqrt(n) is the sample standard deviation
        sd_nl = float(res_nl.flavor_stderr[0, 0]) * np.sqrt(n)
        assert sd_nl > 0.01

    def test_stratonovich_matches_exact_exponential(self):
        """Single channel, H=0: phi_t = exp(i sqrt(lam) A W_t) phi_0.

        The Heun endpoint error is O(dt) in RMS over the path ensemble.
        """
        lam = 0.3
        grid = Grid.centered(64, 16.0)
        params = ModelParams(lam=lam, mH=1.0 + 1e-12, mL=1.0)  # dm ~ 0
        model = build_qmupl(params, grid)
        state0 = make_gaussian_state(ModelParams(), grid, "M0")
        errs = []
        for dt in (0.01, 0.005):
            n_steps = int(round(1.0 / dt))
            rms = []
            for seed in range(20):
                path = sample_wiener(seed, dt, n_steps, model.n_channels)
                state = state0
                for k in range(n_steps):
                    state = step_stratonovich(state, model, path.increments[k], dt)
                w_t = path.increments.sum(axis=0)
                a = model.channels[0]
                # remove the tiny Hamiltonian phase, keep the noise factor
                phase = np.exp(1j * np.sqrt(lam) * a * w_t[0]
                               - 1j * model.hamiltonian * 1.0)
                exact = state0.amplitudes * phase
                rms.append(np.sqrt(np.sum(np.abs(state.amplitudes - exact) ** 2)
                                   * grid.spacing))
            errs.append(np.mean(rms))
        assert errs[1] <= 0.65 * errs[0]  # ~O(dt) strong error

    def test_norm_drift_vanishes_under_refinement(self):
        """ito-linear norm drift over fixed T shrinks with dt."""
        params, _, model, state0 = qmupl_setup(lam=0.5)
        drifts = []
        for dt in (0.01, 0.005, 0.0025):
            n_steps = int(round(1.0 / dt))
            path = sample_wiener(5, dt, n_steps, model.n_channels)
            state = state0
            for k in range(n_steps):
                state = step_ito_linear(state, model, path.increments[k], dt)
            drifts.append(abs(state.norm() - 1.0))
        assert drifts[2] < drifts[0]

    def test_linear_step_norm_divergence_raises(self):
        """One Euler-Maruyama step at a large dt changes the norm by far
        more than 10 %: it must raise, not return a blown-up state."""
        params, _, model, state = qmupl_setup(lam=0.5)
        with pytest.raises(NormDivergenceError):
            step_ito_linear(state, model, np.full(model.n_channels, 3.0), 1.0)


class TestWongZakai:

    def test_zero_noise_is_pure_hamiltonian(self):
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        dt = 0.01
        n_steps = 100
        path = sample_wiener(1, dt, n_steps + 80, model.n_channels)
        zero = type(path)(seed=0, dt=dt,
                          increments=np.zeros_like(path.increments))
        m = Mollifier("gaussian", 0.08)
        noise = MollifiedNoise(base=zero, mollifier=m,
                               t_grid=None, samples=None,
                               t0=-m.support()[1])
        t_grid = dt * np.arange(n_steps + 1)
        states = integrate_wong_zakai(state0, model, noise, t_grid)
        t = t_grid[-1]
        expected = state0.amplitudes * np.exp(-1j * model.hamiltonian * t)
        assert np.allclose(states[-1].amplitudes, expected, atol=1e-10)
        assert abs(states[-1].norm() - 1.0) < 1e-10

    def test_under_resolved_grid_rejected(self):
        params, grid, model, state0 = qmupl_setup()
        path = sample_wiener(1, 0.05, 40, model.n_channels)
        m = Mollifier("box", 0.05)
        noise = MollifiedNoise(base=path, mollifier=m, t_grid=None,
                               samples=None, t0=0.0)
        with pytest.raises(UnderResolvedKernelError):
            integrate_wong_zakai(state0, model, noise,
                                 0.05 * np.arange(41))

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_ensemble_path_draws_through_gaussian_factor(self, kind):
        """One run_ensemble trajectory is psi_0 exp(-iHt + i sqrt(lam)
        field(W^eps(t))) with W^eps = L z at the sample times: z the
        trajectory's stream (21, 0), one normal per sample time and channel,
        and L the ``gaussian_factor`` of the window weights."""
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        m = Mollifier(kind, 0.08)
        dt, n_steps = m.eps / 4.0, 24
        times = dt * np.array([12, n_steps])
        spec = IntegratorSpec("wong-zakai", dt, mollifier=m)
        res = run_ensemble(model, spec, state0, times[-1], 1, seed=21,
                           sample_times=times)
        path = list(integrators._exact_path(model, spec, state0.amplitudes,
                                            n_steps, [12, n_steps],
                                            [path_generator(21, 0)]))
        _, weights = window_integrals(m, times, times[-1], dt)
        z = path_generator(21, 0).standard_normal((2, model.n_channels))
        w_eps = gaussian_factor(weights, dt) @ z
        for k, t in enumerate(times):
            exact = GridState(state0.amplitudes * np.exp(
                -1j * model.hamiltonian * t
                + 1j * np.sqrt(0.3) * model.field(w_eps[k])), grid)
            amp = path[k][0]
            assert np.max(np.abs(amp - exact.amplitudes)) < 1e-12
            assert res.flavor_mean[k, 0] == pytest.approx(
                exact.flavor_probability("M0"), abs=1e-12)

    @pytest.mark.parametrize("kind", MOLLIFIER_KINDS)
    def test_ensemble_path_is_rk4_limit(self, kind):
        """The pathwise solution psi_0 exp(-iHt + i sqrt(lam) field(W^eps))
        with W^eps the window weights times a path's base increments is what
        RK4 on the same increments converges to: at fourth order for the
        smooth Gaussian kernel, at first order for the kernels with jumps."""
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        m = Mollifier(kind, 0.08)
        dt, n_steps = m.eps / 4.0, 24
        t_max = n_steps * dt
        t_mid, weights = window_integrals(m, [t_max], t_max, dt)
        dw = path_generator(21, 0).normal(0.0, np.sqrt(dt),
                                          size=(t_mid.size, model.n_channels))
        path = GridState(state0.amplitudes * np.exp(
            -1j * model.hamiltonian * t_max
            + 1j * np.sqrt(0.3) * model.field(weights[0] @ dw)), grid)
        noise = MollifiedNoise(base=NoisePath(21, dt, dw), mollifier=m,
                               t_grid=None, samples=None, t0=-m.support()[1])
        errs = []
        for refine in (2, 4):
            t_grid = np.linspace(0.0, t_max, refine * n_steps + 1)
            rk4 = integrate_wong_zakai(state0, model, noise, t_grid)[-1]
            errs.append(np.max(np.abs(DensityBlocks.from_state(path).blocks
                                      - DensityBlocks.from_state(rk4).blocks)))
        order = 4 if kind == "gaussian" else 1
        assert errs[0] / errs[1] > 0.8 * 2 ** order
        assert errs[1] < (1e-9 if kind == "gaussian" else 3e-3)

    def test_ensemble_rejects_dt_above_eps_over_4(self):
        """run_ensemble checks dt <= eps/4 as integrate_wong_zakai and
        mollify do, with the same 1e-12 eps slack."""
        _, _, model, state0 = qmupl_setup()
        m = Mollifier("gaussian", 0.04)

        def run(dt):
            spec = IntegratorSpec("wong-zakai", dt, mollifier=m)
            return run_ensemble(model, spec, state0, 10 * dt, 1, seed=1, n_samples=1)
        run(m.eps / 4.0)
        with pytest.raises(UnderResolvedKernelError, match="eps/4"):
            run(m.eps / 4.0 * (1.0 + 1e-9))

    def test_ensemble_freezes_mass_populations(self):
        params, _, model, state0 = qmupl_setup(lam=0.5)
        spec = IntegratorSpec("wong-zakai", 0.005,
                              mollifier=Mollifier("gaussian", 0.02))
        res = run_ensemble(model, spec, state0, 1.0, 200, seed=14, n_samples=5)
        assert np.all(res.mass_var == 0.0)
        assert np.allclose(res.mass_mean, 0.5, rtol=0.0, atol=1e-14)

    def test_ensemble_matches_eps_exact_curve(self):
        """W^eps(t) is Gaussian with variance v(t) = dt sum_k w[t, k]^2 per
        channel, so the mollified mean is the HL-diagonal master equation
        with damping time v(t) and phase time t.  Past the kernel's support
        t - v(t) is the Gaussian kernel's E|V - V'| = 2 eps / sqrt(pi).
        4000 trajectories on the 96-point CSL model meet that curve within
        4 sigma at each of 8 times to t = 2."""
        params = ModelParams(gamma=0.3, rC=1.0)
        grid = Grid.centered(96, 16.0)
        model = build_csl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        m = Mollifier("gaussian", 0.05)
        dt, times = m.eps / 4.0, 0.25 * np.arange(1, 9)
        res = run_ensemble(model, IntegratorSpec("wong-zakai", dt, mollifier=m),
                           state0, 2.0, 4000, seed=1, sample_times=times)
        _, weights = window_integrals(m, times, 2.0, dt)
        v = dt * np.sum(weights ** 2, axis=1)
        assert np.allclose(times - v, 2.0 * m.eps / np.sqrt(np.pi), atol=1e-4)
        phase, rate, z0 = _hl_diagonal(model, state0)
        p_same = 0.5 + (np.exp(phase * times)
                        * (np.exp(-np.multiply.outer(v, rate)) @ z0)).real
        z = (res.flavor_mean[:, 0] - p_same) / res.flavor_stderr[:, 0]
        assert np.max(np.abs(z)) < 4.0


class TestRunEnsemble:

    def test_single_trajectory_equals_direct_run(self):
        """One collapse trajectory is psi_0 exp(-iHt + sqrt(lam) A Y_t -
        lam A^2 t), normalized, with Y_t = W_t + 2 sqrt(lam) A(xi) t rebuilt
        from the trajectory's own noise stream: first one uniform, which
        picks xi from the cumulative |psi_0|^2, then one normal per channel
        for each of the segments of 20 and 30 steps."""
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        dt, times = 0.01, np.array([0.2, 0.5])
        spec = IntegratorSpec("ito-nonlinear", dt)
        res = run_ensemble(model, spec, state0, 0.5, 1, seed=21,
                           sample_times=times)
        path = list(integrators._exact_path(model, spec, state0.amplitudes, 50,
                                            [20, 50], [path_generator(21, 0)]))
        rng = path_generator(21, 0)
        cum = np.cumsum(np.abs(state0.amplitudes.reshape(-1)) ** 2)
        xi = np.flatnonzero(cum > rng.random() * cum[-1])[0]
        a = model.channels
        a_xi = a.reshape(model.n_channels, -1)[:, xi]
        z = rng.standard_normal((2, model.n_channels))
        w = np.cumsum(z * np.sqrt(dt * np.array([20, 30]))[:, None], axis=0)
        for k, t in enumerate(times):
            y_t = w[k] + 2.0 * np.sqrt(0.3) * a_xi * t
            exact = GridState(state0.amplitudes * np.exp(
                -1j * model.hamiltonian * t
                + np.sqrt(0.3) * np.einsum("i,inm->nm", y_t, a)
                - 0.3 * np.sum(a ** 2, axis=0) * t), grid).normalized()
            amp = GridState(path[k][0], grid).normalized()
            assert np.max(np.abs(amp.amplitudes - exact.amplitudes)) < 1e-12
            assert res.flavor_mean[k, 0] == pytest.approx(
                exact.flavor_probability("M0"), abs=1e-12)

    def test_collapse_independent_of_dt(self):
        """xi and W are drawn only at the sample times, so the step size
        drops out: at dt = 1e-9 a segment spans 3e8 steps and still costs
        one normal per channel."""
        params, _, model, state0 = qmupl_setup(lam=0.3)
        times = np.array([0.2, 0.5])
        runs = [run_ensemble(model, IntegratorSpec("ito-nonlinear", dt), state0,
                             0.5, 20, seed=6, sample_times=times)
                for dt in (1e-2, 1e-4, 1e-9)]
        for run in runs[1:]:
            for name in ("flavor_mean", "mass_mean"):
                assert np.max(np.abs(getattr(run, name)
                                     - getattr(runs[0], name))) < 1e-12

    def test_long_time_projection_limit(self):
        """At lam t = 2e4 every trajectory has collapsed onto one level set
        of A on the grid; with mH = 1.5 and mL = 0.5, (x, H) and (3x, L)
        share a level, and P(M0) is 1/2 on every such state.  Which level
        set is the Born rule over xi: P(H) has mean 1/2 and variance
        sum_l p_l q_l^2 - (sum_l p_l q_l)^2, q_l the H share of level l."""
        params, _, model, state0 = qmupl_setup(lam=0.2)
        t, n = 1e5, 1000
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.01), state0,
                           t, n, seed=5, sample_times=[t])
        assert np.all(np.abs(res.flavor_mean - 0.5) < 1e-12)
        assert np.all(res.flavor_stderr < 1e-12)
        assert abs(res.mass_mean[0, 0] - 0.5) < 3.0 * res.mass_stderr[0, 0]
        prob = np.abs(state0.amplitudes) ** 2
        prob /= prob.sum()
        level = np.unique(model.channels[0], return_inverse=True)[1].ravel()
        p = np.bincount(level, prob.ravel())
        q = np.bincount(level, (prob * [1.0, 0.0]).ravel())[p > 0] / p[p > 0]
        p = p[p > 0]
        mean = np.sum(p * q)
        var = np.sum(p * q ** 2) - mean ** 2
        # sampling sd of a variance estimate: sqrt((mu_4 - var^2) / n)
        sd = np.sqrt((np.sum(p * (q - mean) ** 4) - var ** 2) / n)
        assert len(p) < prob.size and mean == pytest.approx(0.5, abs=1e-12)
        assert abs(res.mass_var[0, 0] - var) < 3.0 * sd

    @pytest.mark.parametrize("kind", ["ito-linear", "stratonovich"])
    def test_linear_kinds_equal_pathwise_exact_solution(self, kind):
        """One trajectory is psi_0 exp(-iHt + i sqrt(lam) A W_t), with W_t
        the summed per-segment draws of the trajectory's own noise stream:
        one normal per channel for each of the segments of 20 and 30 steps."""
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        dt, times = 0.01, np.array([0.2, 0.5])
        spec = IntegratorSpec(kind, dt)
        res = run_ensemble(model, spec, state0, 0.5, 1, seed=21,
                           sample_times=times)
        path = list(integrators._exact_path(model, spec, state0.amplitudes, 50,
                                            [20, 50], [path_generator(21, 0)]))
        z = path_generator(21, 0).standard_normal((2, model.n_channels))
        w = np.cumsum(z * np.sqrt(dt * np.array([20, 30]))[:, None], axis=0)
        for k, t in enumerate(times):
            w_t = w[k]
            field = np.einsum("i,inm->nm", w_t, model.channels)
            exact = GridState(state0.amplitudes * np.exp(
                -1j * model.hamiltonian * t + 1j * np.sqrt(0.3) * field), grid)
            amp = path[k][0]
            assert np.max(np.abs(amp - exact.amplitudes)) < 1e-12
            assert res.flavor_mean[k, 0] == pytest.approx(
                exact.flavor_probability("M0"), abs=1e-12)

    @pytest.mark.parametrize("kind", ["ito-linear", "stratonovich"])
    def test_linear_kinds_freeze_mass_populations(self, kind):
        """Pathwise unitary and mass-diagonal: every trajectory keeps the
        initial mass populations, so their variance is exactly zero."""
        params, _, model, state0 = qmupl_setup(lam=0.5)
        res = run_ensemble(model, IntegratorSpec(kind, 0.005), state0, 1.0,
                           200, seed=14, n_samples=5)
        assert np.all(res.mass_var == 0.0)
        assert np.all(res.mass_mean == 0.5)

    def test_linear_kinds_agree(self):
        """Ito and Stratonovich forms of one SDE share one exact solution."""
        params, _, model, state0 = qmupl_setup(lam=0.2)
        a, b = (run_ensemble(model, IntegratorSpec(kind, 0.01), state0, 0.5,
                             20, seed=3) for kind in ("ito-linear", "stratonovich"))
        assert np.array_equal(a.flavor_mean, b.flavor_mean)
        assert np.array_equal(a.flavor_stderr, b.flavor_stderr)

    def test_same_seed_bit_identical(self):
        params, _, model, state0 = qmupl_setup(lam=0.2)
        spec = IntegratorSpec("stratonovich", 0.01)
        a = run_ensemble(model, spec, state0, 0.5, 30, seed=8)
        b = run_ensemble(model, spec, state0, 0.5, 30, seed=8)
        assert np.array_equal(a.flavor_mean, b.flavor_mean)

    def test_misaligned_tmax_rejected(self):
        params, _, model, state0 = qmupl_setup()
        with pytest.raises(ParameterError):
            run_ensemble(model, IntegratorSpec("ito-linear", 0.01), state0,
                         0.505, 10, seed=1)

    @pytest.mark.parametrize("dt,t_max", [(5e-324, 1.0), (1e-300, 1.0),
                                          (1e-3, 1e300)],
                             ids=["5e-324", "1e-300", "tmax-1e300"])
    def test_step_count_beyond_int64_rejected(self, dt, t_max):
        params, _, model, state0 = qmupl_setup()
        with pytest.raises(ParameterError,
                           match="is not an integer number of steps"):
            run_ensemble(model, IntegratorSpec("ito-linear", dt), state0,
                         np.float64(t_max), 1, seed=1, n_samples=2)

    @pytest.mark.parametrize("kind", ["ito-linear", "stratonovich"])
    def test_linear_kinds_independent_of_dt(self, kind):
        """W is drawn only at the sample times, so the step size drops out:
        at dt = 1e-9 a segment spans 3e8 steps and still costs one normal
        per channel."""
        params, _, model, state0 = qmupl_setup(lam=0.3)
        times = np.array([0.2, 0.5])
        means = [run_ensemble(model, IntegratorSpec(kind, dt), state0, 0.5, 20,
                              seed=6, sample_times=times).flavor_mean
                 for dt in (1e-2, 1e-4, 1e-9)]
        for mean in means[1:]:
            assert np.max(np.abs(mean - means[0])) < 1e-12

    def test_standard_normal_draws_equal_normal(self):
        """rng.normal(0, sd), the draw of ``sample_wiener`` and of each
        linear and collapse trajectory, is standard normals scaled by sd bit
        for bit on one Philox stream, for a scalar and for a per-row sd."""
        sd = np.sqrt(0.003)
        assert np.array_equal(sample_wiener(4, 0.003, 300, 5).increments,
                              path_generator(4).standard_normal((300, 5)) * sd)
        row_sd = np.sqrt(0.003 * np.arange(1, 301))[:, None]
        assert np.array_equal(path_generator(4, 9).normal(0.0, row_sd, (300, 5)),
                              path_generator(4, 9).standard_normal((300, 5)) * row_sd)

    def test_mean_matches_closed_form(self):
        """lam alpha dm^2/(2 m0^2) = 0.1, t = pi/dm: ensemble mean equals
        1/2 + cos(pi)/(2 (1 + 0.1 pi)^{1/2}) within 3 sigma."""
        params = ModelParams(lam=0.2, alpha=1.0)  # 0.2 * 1 / 2 = 0.1
        grid = Grid.centered(64, 16.0)
        model = build_qmupl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        dt = 0.002
        t = round(np.pi / dt) * dt  # pi to within one step
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", dt), state0,
                           t, 2000, seed=12, sample_times=np.array([t]))
        expected = qmupl_flavor_probabilities(params, t)[0]
        diff = abs(float(res.flavor_mean[0, 0]) - expected)
        assert diff < 3.0 * max(float(res.flavor_stderr[0, 0]), 2e-4)

    def test_flavor_and_mass_means_sum_to_one(self):
        params, _, model, state0 = qmupl_setup(lam=0.3)
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.01),
                           state0, 0.2, 25, seed=6,
                           sample_times=np.array([0.2]))
        for mean in (res.flavor_mean, res.mass_mean):
            assert np.all(np.abs(mean.sum(axis=1) - 1.0) < 1e-12)

    @pytest.mark.parametrize("kind", ["ito-nonlinear", "wong-zakai"])
    def test_repeated_sample_time_fills_every_slot(self, kind):
        """A repeated time fills each of its rows, and unsorted times get
        the rows of the sorted ones, in the order asked for."""
        params, _, model, state0 = qmupl_setup(lam=0.3)
        mollifier = Mollifier("gaussian", 0.04) if kind == "wong-zakai" else None
        res, unsorted = (
            run_ensemble(model, IntegratorSpec(kind, 0.01, mollifier=mollifier),
                         state0, 0.2, 5, seed=2, sample_times=times)
            for times in ([0.1, 0.1, 0.2], [0.2, 0.1, 0.1]))
        for name in ("flavor_mean", "flavor_stderr", "mass_mean", "mass_var"):
            rows = getattr(res, name)
            assert np.array_equal(rows[0], rows[1])
            assert np.array_equal(getattr(unsorted, name), rows[[2, 0, 1]])
        assert np.all(res.flavor_mean[0] > 0) and np.all(res.mass_mean[0] > 0)

    def test_collapse_from_mass_eigenstate_stays_finite(self):
        """psi_0 vanishes on every L entry and lam dt = 10: the shifted
        log-weights keep all outputs finite and the state pure H."""
        params, grid, model, _ = qmupl_setup(lam=200.0)
        state0 = make_gaussian_state(params, grid, "H")
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.05), state0,
                           2.0, 50, seed=4, n_samples=4)
        for name in ("flavor_mean", "flavor_stderr", "mass_mean",
                     "mass_stderr", "mass_var"):
            assert np.all(np.isfinite(getattr(res, name)))
        assert np.all(res.mass_mean[:, 0] == 1.0)
        assert np.all(res.mass_mean[:, 1] == 0.0)

    def test_csl_collapse_mean_matches_master_equation(self):
        """Many channels: the collapse ensemble mean equals the grid ME
        within 3 sigma (it is 15 sigma or more from the gamma = 0 curve),
        and the mean mass populations stay 1/2 (a wrong drift in the
        driving process moves them by 4 sigma or more)."""
        params = ModelParams(gamma=0.3, rC=1.0)
        grid = Grid.centered(32, 8.0)
        model = build_csl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        times = np.array([1.0, 2.0, 3.0])
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.01), state0,
                           3.0, 300, seed=1, sample_times=times)
        me = me_flavor_probabilities(model, DensityBlocks.from_state(state0),
                                     times, 0.01)
        z = np.abs(res.flavor_mean[:, 0] - me.p_same) / res.flavor_stderr[:, 0]
        assert np.all(z < 3.0)
        z_mass = np.abs(res.mass_mean[:, 0] - 0.5) / res.mass_stderr[:, 0]
        assert np.all(z_mass < 3.0)

    def test_mass_populations_constant(self):
        params, _, model, state0 = qmupl_setup(lam=0.4)
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.005),
                           state0, 1.0, 200, seed=14, n_samples=5)
        for k in range(res.times.size):
            err = max(float(res.mass_stderr[k, 0]), 1e-6)
            assert abs(float(res.mass_mean[k, 0]) - 0.5) < 3.0 * err + 1e-9


class TestStreamedMoments:

    @pytest.mark.parametrize("sizes", [(1000,), (1, 999), (500, 500),
                                       (7,) * 142 + (6,), (3, 640, 1, 356)])
    def test_merged_variance_matches_pooled_at_high_probability(self, sizes):
        """Per-chunk (n, mean, M2) merged in chunk order give the pooled
        sample variance where a sum of squares cancels: at p ~ 0.99 with a
        spread of 0.01, (sum p^2 - (sum p)^2 / n) / (n - 1) is off by 2e-11."""
        values = 1.0 - 0.01 * np.random.default_rng(3).exponential(size=(1000, 2))
        chunks = np.split(values, np.cumsum(sizes)[:-1])
        n, mean, m2 = functools.reduce(_merge_moments, map(_moments, chunks))
        assert n == 1000
        assert np.allclose(mean, values.mean(axis=0), rtol=1e-14, atol=0.0)
        expected = np.var(values, axis=0, ddof=1)
        assert np.all(np.abs(m2 / (n - 1) - expected) <= 1e-14 * expected)

    @pytest.mark.parametrize("kind", INTEGRATOR_KINDS)
    def test_ensemble_is_its_chunks_merged_in_order(self, kind):
        """10 trajectories run in chunks of 4, 4 and 2: every output is, bit
        for bit, ``_run_chunk`` of each chunk merged in chunk order."""
        params = ModelParams(gamma=0.3, rC=1.0)
        grid = Grid.centered(32, 8.0)
        model = build_csl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        mollifier = (Mollifier("asymmetric-triangle", 0.04)
                     if kind == "wong-zakai" else None)
        spec = IntegratorSpec(kind, 0.01, mollifier=mollifier)
        res = run_ensemble(model, spec, state0, 0.1, 10, seed=5, n_samples=2,
                           batch_size=4)
        chunks = (_run_chunk(model, spec, state0.amplitudes, 10, [5, 10], 5,
                             indices)
                  for indices in (range(0, 4), range(4, 8), range(8, 10)))
        mean, stderr, var = _mean_stderr(functools.reduce(_merge_moments, chunks))
        assert np.array_equal(res.flavor_mean, mean[:, :2])
        assert np.array_equal(res.mass_mean, mean[:, 2:])
        assert np.array_equal(res.flavor_stderr, stderr[:, :2])
        assert np.array_equal(res.mass_stderr, stderr[:, 2:])
        assert np.array_equal(res.mass_var, var[:, 2:])


class TestReducedNoise:
    """CSL ensembles draw the caller's full noise field: one normal per
    channel and sample time."""

    def csl_setup(self):
        params = ModelParams(gamma=0.3, rC=1.0)
        grid = Grid.centered(32, 8.0)
        return build_csl(params, grid), make_gaussian_state(params, grid, "M0")

    def record_chunks(self, monkeypatch):
        """Replace ``_run_chunk`` by a wrapper; returns its (model, indices)
        list, one entry per chunk run."""
        chunks = []
        run_chunk = integrators._run_chunk

        def recording_run_chunk(model, spec, amp0, n_steps, steps, seed,
                                indices):
            chunks.append((model, indices))
            return run_chunk(model, spec, amp0, n_steps, steps, seed, indices)

        monkeypatch.setattr(integrators, "_run_chunk", recording_run_chunk)
        return chunks

    def test_default_chunks_come_from_the_draws(self, monkeypatch):
        """A chunk is sized by what its trajectories draw and hold: the
        caller's 32 normals per sample segment and one complex amplitude
        row, whatever dt.  With the noise cap at 20 such trajectories, 45
        run in chunks of 20, 20 and 5 at dt = 1e-3 and 1e-7 alike."""
        model, state0 = self.csl_setup()
        row = 16 * state0.amplitudes.size
        monkeypatch.setattr(integrators, "MAX_NOISE_BYTES",
                            20 * (8 * 2 * 32 + row))
        chunks = self.record_chunks(monkeypatch)
        for dt in (1e-3, 1e-7):
            chunks.clear()
            run_ensemble(model, IntegratorSpec("stratonovich", dt), state0,
                         t_max=13.0, n_traj=45, seed=9, n_samples=2)
            assert [(m.n_channels, idx) for m, idx in chunks] == [
                (32, range(0, 20)), (32, range(20, 40)), (32, range(40, 45))]

    @pytest.mark.parametrize("kind", ["ito-nonlinear", "stratonovich"])
    def test_chunks_run_on_the_callers_model(self, monkeypatch, kind):
        """Every chunk receives the model object it was given, not a
        rebuilt one."""
        model, state0 = self.csl_setup()
        chunks = self.record_chunks(monkeypatch)
        run_ensemble(model, IntegratorSpec(kind, 0.01), state0, 0.2, 6,
                     seed=2, n_samples=2, batch_size=4)
        assert len(chunks) == 2
        assert all(m is model for m, _ in chunks)

    @pytest.mark.parametrize("kind", ["stratonovich", "wong-zakai"])
    def test_csl_mean_matches_master_equation(self, kind):
        """The linear and the mollified-noise ensemble means equal the grid
        ME within 3 sigma at every sample time (at t = 3 the ME is 15 sigma
        or more from the gamma = 0 curve)."""
        model, state0 = self.csl_setup()
        mollifier = Mollifier("gaussian", 0.04) if kind == "wong-zakai" else None
        times = np.array([1.0, 2.0, 3.0])
        res = run_ensemble(model, IntegratorSpec(kind, 0.01, mollifier=mollifier),
                           state0, 3.0, 300, seed=11, sample_times=times)
        me = me_flavor_probabilities(model, DensityBlocks.from_state(state0),
                                     times, 0.01)
        z = np.abs(res.flavor_mean[:, 0] - me.p_same) / res.flavor_stderr[:, 0]
        assert np.all(z < 3.0)


class TestCslEnsembleProperty:
    """Every pathwise CSL kind against the grid ME, by property."""

    @given(gamma=st.floats(min_value=0.05, max_value=2.0),
           r_c_spacings=st.integers(min_value=4, max_value=12),
           n=st.integers(min_value=32, max_value=64),
           kind=st.sampled_from(["ito-nonlinear", "ito-linear", "stratonovich"]),
           seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_mean_within_five_sigma_of_grid_me(self, gamma, r_c_spacings, n,
                                               kind, seed):
        """On n grid points over extent 8, each trajectory's P(M0) and P(H)
        lie in [0, 1], so their variance is at most p (1 - p) for the ME
        value p (P(H) = 1/2 at all t): the mean of n_traj trajectories stays
        within 5 sqrt(p (1 - p) / n_traj) of it, a bound that does not rest
        on the sample stderr."""
        grid = Grid.centered(n, 8.0)
        params = ModelParams(gamma=gamma, rC=r_c_spacings * grid.spacing)
        model = build_csl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        times, n_traj = np.array([0.5, 1.5, 3.0]), 400
        res = run_ensemble(model, IntegratorSpec(kind, 0.01), state0, 3.0,
                           n_traj, seed=seed, sample_times=times)
        p_same = me_flavor_probabilities(model, DensityBlocks.from_state(state0),
                                         times, 0.01).p_same
        for mean, p in ((res.flavor_mean[:, 0], p_same), (res.mass_mean[:, 0], 0.5)):
            assert np.all(np.abs(mean - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n_traj))
