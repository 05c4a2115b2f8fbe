"""Tests for trajectory integrators and ensemble averaging."""

import numpy as np
import pytest

from mesoncollapse import (DensityBlocks, Grid, GridState, IntegratorSpec,
                           Mollifier, ModelParams, NormDivergenceError,
                           ParameterError, UnderResolvedKernelError,
                           build_csl, build_qmupl, integrate_wong_zakai,
                           make_gaussian_state, me_flavor_probabilities,
                           mollify, qmupl_flavor_probabilities, run_ensemble,
                           sample_wiener, step_ito_linear, step_ito_nonlinear,
                           step_stratonovich)
from mesoncollapse.core import IDX_L
from mesoncollapse.noise import MollifiedNoise, path_generator


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
                w_t = path.cumulative()[-1]
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


class TestRunEnsemble:

    def test_single_trajectory_equals_direct_run(self):
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        dt, n_steps = 0.01, 50
        spec = IntegratorSpec("ito-nonlinear", dt)
        res = run_ensemble(model, spec, state0, n_steps * dt, 1, seed=21,
                           sample_times=np.array([n_steps * dt]))
        rng = path_generator(21, 0)
        dw = rng.normal(0.0, np.sqrt(dt), size=(n_steps, model.n_channels))
        state = state0
        for k in range(n_steps):
            state = step_ito_nonlinear(state, model, dw[k], dt)
        assert res.flavor_mean[0, 0] == pytest.approx(
            state.flavor_probability("M0"), abs=1e-12)

    @pytest.mark.parametrize("kind", ["ito-linear", "stratonovich"])
    def test_linear_kinds_equal_pathwise_exact_solution(self, kind):
        """One trajectory is psi_0 exp(-iHt + i sqrt(lam) A W_t), with W_t
        the summed increments of the trajectory's own noise stream."""
        params, grid, model, state0 = qmupl_setup(lam=0.3)
        dt, times = 0.01, np.array([0.2, 0.5])
        res = run_ensemble(model, IntegratorSpec(kind, dt), state0, 0.5, 1,
                           seed=21, sample_times=times, store_density=True)
        dw = path_generator(21, 0).normal(0.0, np.sqrt(dt),
                                          size=(50, model.n_channels))
        w = np.cumsum(dw, axis=0)
        for k, t in enumerate(times):
            w_t = w[int(round(t / dt)) - 1]
            field = np.einsum("i,inm->nm", w_t, model.channels)
            exact = GridState(state0.amplitudes * np.exp(
                -1j * model.hamiltonian * t + 1j * np.sqrt(0.3) * field), grid)
            rho = DensityBlocks.from_state(exact).blocks
            assert np.max(np.abs(res.mean_density[k].blocks - rho)) < 1e-12
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

    @pytest.mark.parametrize("kind", ["stratonovich", "ito-nonlinear"])
    def test_csl_deterministic_across_worker_counts(self, kind):
        params = ModelParams(gamma=0.3, rC=1.0)
        grid = Grid.centered(32, 8.0)
        model = build_csl(params, grid)
        state0 = make_gaussian_state(params, grid, "M0")
        kwargs = dict(t_max=0.1, n_traj=10, seed=5, n_samples=2, batch_size=4)
        spec = IntegratorSpec(kind, 0.01)
        a = run_ensemble(model, spec, state0, n_workers=1, **kwargs)
        b = run_ensemble(model, spec, state0, n_workers=2, **kwargs)
        for name in ("flavor_mean", "flavor_stderr", "mass_mean", "mass_var"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_deterministic_across_worker_counts(self):
        params, _, model, state0 = qmupl_setup(lam=0.2)
        spec = IntegratorSpec("ito-linear", 0.01)
        kwargs = dict(t_max=0.5, n_traj=40, seed=4,
                      sample_times=np.array([0.25, 0.5]), batch_size=10)
        a = run_ensemble(model, spec, state0, n_workers=1, **kwargs)
        b = run_ensemble(model, spec, state0, n_workers=4, **kwargs)
        assert np.array_equal(a.flavor_mean, b.flavor_mean)
        assert np.array_equal(a.flavor_stderr, b.flavor_stderr)
        assert np.array_equal(a.mass_mean, b.mass_mean)

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

    def test_mean_density_hermitian_unit_trace(self):
        params, _, model, state0 = qmupl_setup(lam=0.3)
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.01),
                           state0, 0.2, 25, seed=6,
                           sample_times=np.array([0.2]), store_density=True)
        rho = res.mean_density[0]
        assert abs(rho.trace() - 1.0) < 1e-9
        assert rho.hermiticity_defect() < 1e-12

    @pytest.mark.parametrize("kind", ["ito-nonlinear", "wong-zakai"])
    def test_repeated_sample_time_fills_every_slot(self, kind):
        params, _, model, state0 = qmupl_setup(lam=0.3)
        mollifier = Mollifier("gaussian", 0.04) if kind == "wong-zakai" else None
        res = run_ensemble(model, IntegratorSpec(kind, 0.01, mollifier=mollifier),
                           state0, 0.2, 5, seed=2, sample_times=[0.1, 0.1, 0.2])
        for name in ("flavor_mean", "flavor_stderr", "mass_mean", "mass_var"):
            rows = getattr(res, name)
            assert np.array_equal(rows[0], rows[1])
        assert np.all(res.flavor_mean[0] > 0) and np.all(res.mass_mean[0] > 0)

    def test_collapse_from_mass_eigenstate_stays_finite(self):
        """psi_0 vanishes on every L entry and lam dt = 10: the shifted
        log-weights keep all outputs finite and the state pure H."""
        params, grid, model, _ = qmupl_setup(lam=200.0)
        state0 = make_gaussian_state(params, grid, "H")
        res = run_ensemble(model, IntegratorSpec("ito-nonlinear", 0.05), state0,
                           2.0, 50, seed=4, n_samples=4, store_density=True)
        for name in ("flavor_mean", "flavor_stderr", "mass_mean",
                     "mass_stderr", "mass_var"):
            assert np.all(np.isfinite(getattr(res, name)))
        assert all(np.all(np.isfinite(rho.blocks)) for rho in res.mean_density)
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
