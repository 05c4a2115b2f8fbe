"""Tests for master-equation evolution and closed-form probabilities."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mesoncollapse import (CSL, QMUPL, DensityBlocks, Grid, GridState,
                           InvariantViolationError, ModelParams,
                           ParameterError, SuperoperatorKernel, build_csl,
                           build_qmupl, csl_flavor_probabilities,
                           decoherence_rates, dyson_expand,
                           dyson_flavor_probabilities,
                           evolve_me_csl_exact, evolve_me_numeric,
                           evolve_me_qmupl_exact, flavor_record,
                           make_gaussian_state, me_envelope,
                           me_flavor_probabilities,
                           qmupl_flavor_probabilities,
                           smearing_self_convolution, transition_probability)
from mesoncollapse.core import IDX_H, IDX_L
from mesoncollapse.master_eq import _hl_diagonal


def qmupl_setup(lam=0.2, alpha=1.0, n=64, extent=16.0, dim=1):
    params = ModelParams(lam=lam, alpha=alpha, dim=dim)
    grid = Grid.centered(n, extent)
    model = build_qmupl(params, grid)
    rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
    return params, grid, model, rho0


def csl_setup(gamma=0.4, rC=1.0, n=64, extent=16.0):
    params = ModelParams(gamma=gamma, rC=rC)
    grid = Grid.centered(n, extent)
    model = build_csl(params, grid)
    rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
    return params, grid, model, rho0


# the full-density evolvers besides ``evolve_me_numeric``: (rho0, t) -> rho
_DENSITY_ROUTES = {
    "dyson_expand": lambda rho0, t: dyson_expand(
        SuperoperatorKernel.from_model(qmupl_setup(lam=0.5)[2]), rho0, t, 2),
    "qmupl_exact": lambda rho0, t: evolve_me_qmupl_exact(
        rho0, ModelParams(lam=0.5), t),
    "csl_exact": lambda rho0, t: evolve_me_csl_exact(
        rho0, ModelParams(gamma=0.3), t),
}


class TestNumericVsExact:

    def test_qmupl_agreement(self):
        """Numeric stepping and the closed-form exponential are both exact."""
        params, _, model, rho0 = qmupl_setup()
        numeric = evolve_me_numeric(rho0, model, t=1.5, dt=0.01)
        exact = evolve_me_qmupl_exact(rho0, params, 1.5)
        assert np.max(np.abs(numeric.blocks - exact.blocks)) < 1e-10

    def test_csl_agreement(self):
        params = ModelParams(gamma=0.4, rC=0.5, alpha=1.0)
        grid = Grid.centered(160, 16.0)
        model = build_csl(params, grid)
        rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
        numeric = evolve_me_numeric(rho0, model, t=1.0, dt=0.02)
        exact = evolve_me_csl_exact(rho0, params, 1.0)
        # discrete channel sum vs continuum convolution: quadrature-limited
        assert np.max(np.abs(numeric.blocks - exact.blocks)) < 1e-5

    def test_lambda_zero_is_pure_phase(self):
        params, _, model, rho0 = qmupl_setup(lam=0.0)
        rho = evolve_me_numeric(rho0, model, t=0.9, dt=0.09)
        phases = np.exp(-1j * (model.hamiltonian[:, None]
                               - model.hamiltonian[None, :]) * 0.9)
        expected = rho0.blocks * phases[:, :, None, None]
        assert np.allclose(rho.blocks, expected, atol=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        _, _, model, rho0 = qmupl_setup()
        rho = evolve_me_numeric(rho0, model, t=2.0, dt=0.05)
        assert abs(rho.trace() - 1.0) < 1e-12
        assert rho.hermiticity_defect() < 1e-14

    def test_time_not_multiple_of_dt_rejected(self):
        _, _, model, rho0 = qmupl_setup()
        with pytest.raises(ParameterError):
            evolve_me_numeric(rho0, model, t=1.0, dt=0.3)

    @pytest.mark.parametrize("t,dt", [(1.0, 1e-320), (np.inf, 0.1),
                                      (np.nan, 0.1), (1.0, np.nan)])
    def test_step_count_not_an_int64_rejected(self, t, dt):
        """Overflowing or NaN step counts are parameter errors, not
        OverflowError or ValueError from the integer cast."""
        _, _, model, rho0 = qmupl_setup()
        with pytest.raises(ParameterError,
                           match="is not an integer number of steps"):
            evolve_me_numeric(rho0, model, t=t, dt=dt)

    @staticmethod
    def _entrywise(rho0, params, t, rate):
        """rho0 exp(-i(m_mu - m_nu) t - rate t) for a (2, 2, n, n) rate."""
        m = np.array([params.mH, params.mL])
        phase = -1j * (m[:, None] - m[None, :])[:, :, None, None]
        return rho0.blocks * np.exp((phase - rate) * t)

    def test_qmupl_exact_rates(self):
        """Every entry decays at lam (m_mu x - m_nu y)^2 / (2 m0^2): mu=nu
        at x=y undamped, damped spatially elsewhere."""
        params, grid, _, rho0 = qmupl_setup(lam=0.5)
        t = 0.8
        rho = evolve_me_qmupl_exact(rho0, params, t)
        k = grid.n_points // 2
        assert abs(rho.blocks[IDX_H, IDX_H, k, k]) == pytest.approx(
            abs(rho0.blocks[IDX_H, IDX_H, k, k]), rel=1e-12)
        x = grid.points
        m = np.array([params.mH, params.mL])
        mx = m[:, None, None, None] * x[None, None, :, None]
        my = m[None, :, None, None] * x[None, None, None, :]
        rate = params.lam * (mx - my) ** 2 / (2.0 * params.m0 ** 2)
        np.testing.assert_allclose(rho.blocks,
                                   self._entrywise(rho0, params, t, rate),
                                   rtol=1e-12, atol=0.0)

    def test_csl_exact_rates(self):
        """Every entry decays at (gamma / 2 m0^2) [(m_mu^2 + m_nu^2) g*g(0)
        - 2 m_mu m_nu g*g(x - y)]."""
        params = ModelParams(gamma=0.4, rC=0.5)
        grid = Grid.centered(64, 16.0)
        rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
        t = 0.8
        x = grid.points
        m = np.array([params.mH, params.mL])
        gg0 = smearing_self_convolution(params, 0.0)
        gg = smearing_self_convolution(params, x[:, None] - x[None, :])
        msq = (m[:, None] ** 2 + m[None, :] ** 2)[:, :, None, None]
        mprod = (m[:, None] * m[None, :])[:, :, None, None]
        rate = (params.gamma / (2.0 * params.m0 ** 2)
                * (msq * gg0 - 2.0 * mprod * gg))
        np.testing.assert_allclose(evolve_me_csl_exact(rho0, params, t).blocks,
                                   self._entrywise(rho0, params, t, rate),
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("setup", [qmupl_setup, csl_setup])
    def test_numeric_does_not_depend_on_dt(self, setup):
        """dt must divide t and sets nothing else: bit for bit."""
        _, _, model, rho0 = setup()
        a = evolve_me_numeric(rho0, model, t=1.5, dt=0.01)
        b = evolve_me_numeric(rho0, model, t=1.5, dt=1.5)
        assert np.array_equal(a.blocks, b.blocks)

    @pytest.mark.parametrize("start", ["negative-time", "state-times-3"])
    @pytest.mark.parametrize("route", list(_DENSITY_ROUTES))
    def test_full_density_routes_check_the_start(self, route, start):
        """Every evolver runs the grid ME's start check.  Without it, at
        t = -3 dyson_expand gave p_same = -0.285 and the QMUPL closed form
        -0.490; for a state scaled by 3, at t = 1, dyson_expand gave 6.68
        and the CSL closed form 6.83."""
        params, grid, _, rho0 = qmupl_setup(lam=0.5)
        if start == "negative-time":
            with pytest.raises(ParameterError, match="nonnegative"):
                _DENSITY_ROUTES[route](rho0, -3.0)
        else:
            state = make_gaussian_state(params, grid, "M0")
            scaled = DensityBlocks.from_state(GridState(3.0 * state.amplitudes, grid))
            with pytest.raises(InvariantViolationError, match="trace is"):
                _DENSITY_ROUTES[route](scaled, 1.0)

    def test_t_zero_is_identity(self):
        params, _, _, rho0 = qmupl_setup()
        rho = evolve_me_qmupl_exact(rho0, params, 0.0)
        assert np.array_equal(rho.blocks, rho0.blocks)


class TestClosedForms:

    def test_qmupl_initial_values(self):
        p = ModelParams(lam=0.2)
        ps, po = qmupl_flavor_probabilities(p, 0.0)
        assert ps == pytest.approx(1.0)
        assert po == pytest.approx(0.0)

    def test_qmupl_lambda_zero_is_pure_oscillation(self):
        p = ModelParams(lam=0.0)
        t = np.linspace(0.0, 10.0, 31)
        ps, po = qmupl_flavor_probabilities(p, t)
        assert np.allclose(ps, (1.0 + np.cos(p.dm * t)) / 2.0)
        assert np.allclose(ps + po, 1.0)

    def test_qmupl_dim3_is_cube_of_dim1_envelope(self):
        t = np.linspace(0.01, 20.0, 50)
        p1 = ModelParams(lam=0.2, dim=1)
        p3 = ModelParams(lam=0.2, dim=3)
        env1 = (qmupl_flavor_probabilities(p1, t)[0] - 0.5) / np.cos(p1.dm * t) * 2.0
        env3 = (qmupl_flavor_probabilities(p3, t)[0] - 0.5) / np.cos(p3.dm * t) * 2.0
        assert np.allclose(env3, env1 ** 3, rtol=1e-12)

    def test_csl_gamma_zero_is_pure_oscillation(self):
        p = ModelParams(gamma=0.0)
        t = np.linspace(0.0, 10.0, 31)
        ps, _ = csl_flavor_probabilities(p, t)
        assert np.allclose(ps, (1.0 + np.cos(p.dm * t)) / 2.0)

    def test_csl_long_time_limit(self):
        p = ModelParams(gamma=2.0, rC=0.5)
        ps, po = csl_flavor_probabilities(p, 1e4)
        assert ps == pytest.approx(0.5, abs=1e-9)
        assert po == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("closed_form", [
        lambda: qmupl_flavor_probabilities(ModelParams(lam=1e308), [6.4]),
        lambda: csl_flavor_probabilities(ModelParams(gamma=1e308, rC=1e-3), [6.4]),
        lambda: flavor_record(ModelParams(gamma=1e308, rC=1e-3), [6.4], CSL),
    ], ids=["qmupl", "csl", "record-csl"])
    def test_overflowing_exponent_rejected(self, closed_form):
        """The closed forms own the overflow rule of ``exact``: an infinite
        damping exponent is a ParameterError, not a RuntimeWarning (QMUPL)
        or a silent 1/2 (CSL)."""
        with pytest.raises(ParameterError,
                           match="damping exponent at t=6.4 overflows"):
            closed_form()

    def test_envelopes_nonincreasing(self):
        t = np.linspace(0.0, 30.0, 301)
        keep = np.abs(np.cos(1.0 * t)) > 0.5
        for ps in (qmupl_flavor_probabilities(ModelParams(lam=0.3, dim=3), t)[0],
                   csl_flavor_probabilities(ModelParams(gamma=0.3), t)[0]):
            env = 2.0 * (ps[keep] - 0.5) / np.cos(1.0 * t[keep])
            assert np.all(np.diff(env) <= 1e-12)


class TestGridMeVsClosedForm:

    def test_qmupl_interference_integral(self):
        """int rho^HL(x,x) = e^{-i dm t} / (2 (1 + lam a dm^2 t/(2 m0^2))^{1/2})."""
        params, _, model, rho0 = qmupl_setup(lam=0.2, n=128)
        t = 1.7
        rho = evolve_me_numeric(rho0, model, t, dt=0.01)
        z = complex(np.sum(rho.hl_diagonal()))
        damp = (1.0 + params.lam * params.alpha * params.dm ** 2 * t
                / (2.0 * params.m0 ** 2)) ** -0.5
        expected = np.exp(-1j * params.dm * t) * damp / 2.0
        assert abs(z - expected) < 1e-10

    def test_me_record_matches_closed_form(self):
        params, _, model, rho0 = qmupl_setup(lam=0.2, n=128)
        times = np.arange(1, 9) * 0.5
        record = me_flavor_probabilities(model, rho0, times, dt=0.01)
        ps, _ = qmupl_flavor_probabilities(params, times)
        assert np.max(np.abs(record.p_same - ps)) < 1e-10

    def test_csl_profile_independence(self):
        """Two very different initial widths give identical flavor curves."""
        times = np.arange(1, 6) * 0.4
        curves = []
        for alpha in (1.0, 4.0):
            params = ModelParams(gamma=0.4, rC=0.5, alpha=alpha)
            grid = Grid.centered(320, 32.0)
            model = build_csl(params, grid)
            rho0 = DensityBlocks.from_state(
                make_gaussian_state(params, grid, "M0"))
            curves.append(me_flavor_probabilities(model, rho0, times,
                                                  dt=0.02).p_same)
        assert np.max(np.abs(curves[0] - curves[1])) < 1e-8

    @given(csl=st.booleans(),
           coupling=st.floats(min_value=0.0, max_value=1.0),
           alpha=st.floats(min_value=0.25, max_value=4.0),
           r_c=st.floats(min_value=0.25, max_value=2.0),
           fill=st.floats(min_value=0.5, max_value=1.0),
           pad=st.floats(min_value=0.0, max_value=0.5),
           steps=st.lists(st.integers(min_value=1, max_value=400),
                          min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    @example(csl=True, coupling=0.5, alpha=0.4609375, r_c=1.203125, fill=1.0,
             pad=0.1875, steps=[400])
    def test_closed_form_matches_grid_me(self, csl, coupling, alpha, r_c,
                                         fill, pad, steps):
        """flavor_record equals the grid ME on any grid that resolves the packet.

        The spacing is a ``fill`` fraction of sqrt(alpha)/4 (and of rC/4 for
        CSL); the extent is 8 sqrt(alpha) for QMUPL and, for CSL, leaves
        4 rC between the packet's 4 sqrt(alpha) edge and each grid edge,
        both widened by ``pad``.  The grid is built from the spacing itself,
        since n * spacing / n can come out one ulp above sqrt(alpha)/4.  The
        ME normalizes the packet on the grid, so QMUPL misses at most half the tail mass beyond 4 sqrt(alpha),
        erfc(4)/2 = 7.7e-9 (measured worst 6.5e-9).  The CSL rate is flat
        wherever the smearing fits on the grid, so only the packet's tail
        sees the edge (measured worst 2.2e-11).
        """
        params = ModelParams(lam=0.0 if csl else coupling,
                             gamma=coupling if csl else 0.0,
                             rC=r_c, alpha=alpha)
        root = np.sqrt(alpha)
        if csl:
            spacing = fill * min(root, r_c) / 4.0
            extent = (1.0 + pad) * 2.0 * (4.0 * root + 4.0 * r_c)
        else:
            spacing = fill * root / 4.0
            extent = (1.0 + pad) * 8.0 * root
        n = int(np.ceil(extent / spacing))
        grid = Grid(n, spacing, -(n - 1) * spacing / 2.0)
        model = (build_csl if csl else build_qmupl)(params, grid)
        dt = 0.01
        times = dt * np.unique(steps)
        me = me_flavor_probabilities(
            model, make_gaussian_state(params, grid, "M0"), times, dt)
        exact = flavor_record(params, times, model.label)
        tol = 1e-10 if csl else 1e-8
        assert np.max(np.abs(me.p_same - exact.p_same)) < tol
        assert np.max(np.abs(me.p_other - exact.p_other)) < tol


# the routes besides ``me_flavor_probabilities`` that read the HL diagonal
_HL_ROUTES = {
    "dyson": lambda model, rho0, times: dyson_flavor_probabilities(
        model, rho0, times, 2),
    "me_envelope": lambda model, rho0, times: me_envelope(
        model, rho0, times, 0.5),
}


class TestGridMeDiagonal:
    """The flavor probabilities read only the HL diagonal of the ME."""

    @pytest.mark.parametrize("setup", [qmupl_setup, csl_setup])
    def test_hl_rate_is_diagonal_of_decoherence_rates(self, setup):
        _, _, model, rho0 = setup()
        full = np.diagonal(decoherence_rates(model)[IDX_H, IDX_L])
        _, _, rate, _ = _hl_diagonal(model, rho0, [0.5])
        np.testing.assert_allclose(rate, full, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("setup", [qmupl_setup, csl_setup])
    def test_matches_stepped_evolution(self, setup):
        _, _, model, rho0 = setup()
        times, dt = np.array([0.3, 0.9, 1.5]), 0.05
        record = me_flavor_probabilities(model, rho0, times, dt)
        envelope = me_envelope(model, rho0, times, dt)
        for i, t in enumerate(times):
            rho = evolve_me_numeric(rho0, model, t, dt)
            z = complex(np.sum(rho.hl_diagonal()))
            assert abs(record.p_same[i] - (0.5 + z.real)) < 1e-12
            assert abs(envelope[i] - 2.0 * abs(z)) < 1e-12

    @pytest.mark.parametrize("setup", [qmupl_setup, csl_setup])
    def test_state_reads_same_diagonal_as_its_projector(self, setup):
        """A GridState and its DensityBlocks give bit-identical ME and Dyson rows."""
        params, grid, model, rho0 = setup()
        state = make_gaussian_state(params, grid, "M0")
        assert np.array_equal(state.hl_diagonal(), rho0.hl_diagonal())
        times = np.array([0.3, 0.9, 1.5])
        assert np.array_equal(me_flavor_probabilities(model, state, times, 0.05).p_same,
                              me_flavor_probabilities(model, rho0, times, 0.05).p_same)
        assert np.array_equal(dyson_flavor_probabilities(model, state, times, 2).p_same,
                              dyson_flavor_probabilities(model, rho0, times, 2).p_same)

    def test_unnormalized_state_rejected(self):
        params, grid, model, _ = qmupl_setup()
        state = make_gaussian_state(params, grid, "M0")
        with pytest.raises(InvariantViolationError):
            me_flavor_probabilities(model, GridState(2.0 * state.amplitudes, grid),
                                    [0.5], dt=0.05)

    def test_negative_time_rejected(self):
        _, _, model, rho0 = qmupl_setup()
        with pytest.raises(ParameterError):
            me_flavor_probabilities(model, rho0, [0.5, -0.1], dt=0.05)

    @pytest.mark.parametrize("route", ["dyson", "me_envelope"])
    def test_every_route_rejects_a_negative_time(self, route):
        """The Dyson series and the envelope read the HL diagonal through
        the grid ME's checks (at t = -3 this model's order-2 series gave
        p_same = -0.285 without them)."""
        _, _, model, rho0 = qmupl_setup(lam=0.5)
        with pytest.raises(ParameterError, match="nonnegative"):
            _HL_ROUTES[route](model, rho0, [-3.0])

    @pytest.mark.parametrize("route", ["dyson", "me_envelope"])
    def test_every_route_rejects_an_unnormalized_state(self, route):
        """A state scaled by 3 has norm 3 (the order-2 series gave
        p_same = -3.22 for it at t = 3, and 5 at t = 0)."""
        params, grid, model, _ = qmupl_setup(lam=0.5)
        state = make_gaussian_state(params, grid, "M0")
        with pytest.raises(InvariantViolationError, match="norm 3 is not 1"):
            _HL_ROUTES[route](model, GridState(3.0 * state.amplitudes, grid),
                              [3.0])

    def test_time_off_dt_grid_rejected(self):
        _, _, model, rho0 = qmupl_setup()
        with pytest.raises(ParameterError):
            me_flavor_probabilities(model, rho0, [0.5, 0.52], dt=0.05)

    def test_csl_beyond_one_dimension_rejected(self):
        """The CSL rate is a product over coordinates, so no power of the
        1-D envelope is the dim-3 one (QMUPL's dim-3 cube is criterion 1)."""
        _, _, model, rho0 = csl_setup()
        with pytest.raises(ParameterError, match="dim=1"):
            me_flavor_probabilities(model, rho0, [0.5], dt=0.05, dim=3)


class TestTransitionProbability:

    def test_pure_initial_state(self):
        _, _, _, rho0 = qmupl_setup()
        assert transition_probability(rho0, "M0") == pytest.approx(1.0, abs=1e-10)
        assert transition_probability(rho0, "M0bar") == pytest.approx(0.0, abs=1e-10)

    def test_completeness(self):
        params, _, model, rho0 = qmupl_setup(lam=0.4)
        rho = evolve_me_numeric(rho0, model, t=1.0, dt=0.01)
        total = (transition_probability(rho, "M0")
                 + transition_probability(rho, "M0bar"))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mass_eigenstate_stays_pure(self):
        """Grid ME from |psi> x |M_H>: mass-L population stays < 1e-12."""
        params = ModelParams(lam=0.5)
        grid = Grid.centered(64, 16.0)
        model = build_qmupl(params, grid)
        rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "H"))
        rho = evolve_me_numeric(rho0, model, t=2.0, dt=0.05)
        p_l = float(np.real(np.einsum("xx->", rho.blocks[IDX_L, IDX_L]))
                    * grid.spacing)
        assert abs(p_l) < 1e-12
        assert transition_probability(rho, "L") < 1e-12


class TestTransitionRecord:

    def test_validate_catches_broken_sum(self):
        from mesoncollapse import TransitionRecord
        t = np.array([0.0, 1.0])
        with pytest.raises(InvariantViolationError):
            TransitionRecord(times=t, p_same=np.array([0.7, 0.7]),
                             p_other=np.array([0.2, 0.3]),
                             stderr_same=np.zeros(2), stderr_other=np.zeros(2),
                             source="exact-closed-form").validate()

    @pytest.mark.parametrize("p_same", [7.035, -0.25, 1.0 + 2e-9, -2e-9])
    def test_validate_rejects_a_probability_outside_the_unit_interval(self, p_same):
        """A pair that sums to 1 with one column outside [0, 1] by more
        than the tolerance is a numerical failure."""
        from mesoncollapse import TransitionRecord
        t = np.array([1.0, 2.0])
        record = TransitionRecord(times=t, p_same=np.array([0.5, p_same]),
                                  p_other=1.0 - np.array([0.5, p_same]),
                                  stderr_same=np.zeros(2),
                                  stderr_other=np.zeros(2), source="dyson-2")
        with pytest.raises(InvariantViolationError, match="outside \\[0, 1\\]"):
            record.validate()

    def test_validate_allows_the_unit_interval_within_tolerance(self):
        from mesoncollapse import TransitionRecord
        p = np.array([0.0, 1.0, -5e-10, 1.0 + 5e-10, 0.3])
        TransitionRecord(times=np.arange(1.0, 6.0), p_same=p, p_other=1.0 - p,
                         stderr_same=np.zeros(5), stderr_other=np.zeros(5),
                         source="dyson-2").validate()

    def test_validate_catches_nan(self):
        from mesoncollapse import TransitionRecord
        t = np.array([0.0, 1.0])
        with pytest.raises(InvariantViolationError):
            TransitionRecord(times=t, p_same=np.array([0.5, np.nan]),
                             p_other=np.array([0.5, np.nan]),
                             stderr_same=np.zeros(2), stderr_other=np.zeros(2),
                             source="exact-closed-form").validate()


class TestDyson:

    def test_kernel_holds_decoherence_rates(self):
        _, _, model, _ = qmupl_setup()
        kernel = SuperoperatorKernel.from_model(model)
        assert np.array_equal(kernel.rate, decoherence_rates(model))
        assert np.array_equal(kernel.hamiltonian, model.hamiltonian)

    def test_order_zero_is_free_evolution(self):
        params, _, model, rho0 = qmupl_setup(lam=0.2)
        kernel = SuperoperatorKernel.from_model(model)
        rho = dyson_expand(kernel, rho0, 1.3, 0)
        free = evolve_me_qmupl_exact(rho0, ModelParams(lam=0.0), 1.3)
        assert np.allclose(rho.blocks, free.blocks, atol=1e-12)

    def test_unsupported_order_rejected(self):
        _, _, model, rho0 = qmupl_setup()
        kernel = SuperoperatorKernel.from_model(model)
        with pytest.raises(ParameterError):
            dyson_expand(kernel, rho0, 1.0, 3)
        with pytest.raises(ParameterError):
            dyson_flavor_probabilities(model, rho0, [1.0], 3)

    @given(csl=st.booleans(),
           coupling=st.floats(min_value=0.0, max_value=1.0),
           alpha=st.floats(min_value=0.25, max_value=2.0),
           r_c=st.floats(min_value=0.5, max_value=2.0),
           fill=st.floats(min_value=0.5, max_value=1.0),
           n=st.integers(min_value=16, max_value=64),
           order=st.integers(min_value=0, max_value=2),
           mix=st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 4).filter(
               lambda c: np.linalg.norm(c) > 0.1),
           times=st.lists(st.floats(min_value=1e-3, max_value=3.0),
                          min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_diagonal_matches_full_expansion(self, csl, coupling, alpha, r_c,
                                             fill, n, order, mix, times):
        """The HL-diagonal route equals dyson_expand + transition_probability.

        The initial state is a Gaussian packet of width alpha in a random
        mass superposition, so the HH and LL traces differ from 1/2.
        """
        params = ModelParams(lam=0.0 if csl else coupling,
                             gamma=coupling if csl else 0.0,
                             rC=r_c, alpha=alpha)
        grid = Grid.centered(n, n * fill * r_c / 4.0)
        model = (build_csl if csl else build_qmupl)(params, grid)
        profile = np.exp(-grid.points ** 2 / (2.0 * alpha))
        c = np.array([mix[0] + 1j * mix[1], mix[2] + 1j * mix[3]])
        state = GridState(profile[:, None] * c[None, :], grid).normalized()
        rho0 = DensityBlocks.from_state(state)
        kernel = SuperoperatorKernel.from_model(model)
        record = dyson_flavor_probabilities(model, rho0, times, order)
        for i, t in enumerate(times):
            rho = dyson_expand(kernel, rho0, t, order)
            full = transition_probability(rho, "M0", validate=False)
            assert abs(record.p_same[i] - full) < 1e-12
            assert abs(record.p_other[i] - (1.0 - full)) < 1e-12

    def test_order_one_derivative_in_lambda(self):
        """d p_other / d lambda at lambda=0 from the order-1 expansion
        matches the symbolic derivative of the closed form:
        +cos(dm t) * (dim/2) * alpha dm^2 t / (4 m0^2) at dim=1."""
        t = 1.1
        alpha, dm, m0 = 1.0, 1.0, 1.0
        lam = 1e-6
        params, _, model, rho0 = qmupl_setup(lam=lam, n=128)
        kernel = SuperoperatorKernel.from_model(model)
        rho = dyson_expand(kernel, rho0, t, 1)
        p_other = transition_probability(rho, "M0bar", validate=False)
        p_other_free = (1.0 - np.cos(dm * t)) / 2.0
        derivative = (p_other - p_other_free) / lam
        symbolic = np.cos(dm * t) * 0.5 * alpha * dm ** 2 * t / (4.0 * m0 ** 2)
        assert derivative == pytest.approx(symbolic, rel=1e-3)

    @pytest.mark.parametrize("order,slope", [(1, 2.0), (2, 3.0)])
    def test_truncation_error_slopes(self, order, slope):
        """Order-k truncation error scales as (lambda t)^{k+1}."""
        t = 1.0
        errs = []
        lams = [0.01, 0.005, 0.0025]
        for lam in lams:
            params, _, model, rho0 = qmupl_setup(lam=lam, n=64)
            kernel = SuperoperatorKernel.from_model(model)
            approx = dyson_expand(kernel, rho0, t, order)
            exact = evolve_me_qmupl_exact(rho0, params, t)
            errs.append(abs(transition_probability(approx, "M0bar", validate=False)
                            - transition_probability(exact, "M0bar")))
        slopes = np.diff(np.log(errs)) / np.diff(np.log(lams))
        assert np.all(np.abs(slopes - slope) < 0.2)
