"""Tests for Hamiltonian / collapse-channel construction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mesoncollapse import (DensityBlocks, Grid, GridResolutionError,
                           ModelParams, build_csl, build_hamiltonian,
                           build_qmupl, evolve_me_numeric,
                           make_gaussian_state, smearing_kernel,
                           smearing_self_convolution)
from mesoncollapse.core import IDX_H, IDX_L
from mesoncollapse.master_eq import (_hl_diagonal_rate, decoherence_rates,
                                     dyson_flavor_probabilities,
                                     me_flavor_probabilities)


class TestHamiltonian:

    def test_rates_are_masses(self):
        h = build_hamiltonian(ModelParams(mH=1.5, mL=0.5))
        assert np.allclose(h, [1.5, 0.5])

    def test_mass_eigenstate_picks_up_phase(self):
        """Evolving |M_H> for time t multiplies it by exp(-i mH t)."""
        params = ModelParams()
        grid = Grid.centered(64, 16.0)
        model = build_qmupl(ModelParams(lam=0.0), grid)
        state = make_gaussian_state(params, grid, "H")
        rho = evolve_me_numeric(DensityBlocks.from_state(state), model,
                                t=0.7, dt=0.7)
        # the density matrix of a phase-rotated state is unchanged
        assert np.allclose(rho.blocks, DensityBlocks.from_state(state).blocks)
        # off-diagonal H-L coherence of M0 rotates at exp(-i dm t)
        m0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
        rho = evolve_me_numeric(m0, model, t=0.7, dt=0.7)
        ratio = rho.blocks[IDX_H, IDX_L] / m0.blocks[IDX_H, IDX_L]
        assert np.allclose(ratio, np.exp(-1j * params.dm * 0.7))

    def test_full_flip_at_half_period(self):
        """M0 becomes M0bar after t = pi/dm of free evolution.

        Oracle: direct 2x2 unitary diag(exp(-i mH t), exp(-i mL t)) applied
        to the flavor amplitudes.
        """
        params = ModelParams()
        t = np.pi / params.dm
        u = np.diag(np.exp(-1j * np.array([params.mH, params.mL]) * t))
        v0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        vbar = np.array([1.0, -1.0]) / np.sqrt(2.0)
        evolved = u @ v0
        assert abs(np.vdot(vbar, evolved)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(v0, evolved)) < 1e-12


class TestQmupl:

    def test_channel_weight_values(self):
        grid = Grid(n_points=5, spacing=1.0, origin=0.0)
        model = build_qmupl(ModelParams(mH=1.5, mL=0.5), grid)
        assert model.n_channels == 1
        assert model.channels[0, 2, IDX_H] == pytest.approx(3.0)  # x=2, mH/m0=1.5
        assert model.channels[0, 2, IDX_L] == pytest.approx(1.0)

    def test_hamiltonian_commutes_with_channels(self):
        """Both diagonal in the same basis: the commutator is exactly zero."""
        grid = Grid.centered(32, 16.0)
        model = build_qmupl(ModelParams(lam=0.5), grid)
        h = model.hamiltonian[None, None, :]
        a = model.channels
        assert np.max(np.abs(h * a - a * h)) == 0.0

    def test_me_damping_rate_matches_formula(self):
        """Finite-difference d/dt of the numeric ME at t=0 gives
        lambda |m_mu x - m_nu y|^2 / (2 m0^2) on every entry."""
        params = ModelParams(lam=0.3)
        grid = Grid.centered(64, 16.0)
        model = build_qmupl(params, grid)
        rho0 = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
        h = 1e-6
        rho_h = evolve_me_numeric(rho0, model, t=h, dt=h)
        # remove the free phase, then numerically differentiate the modulus
        rate_fd = -(np.abs(rho_h.blocks) - np.abs(rho0.blocks)) / (
            h * np.maximum(np.abs(rho0.blocks), 1e-30))
        x = grid.points
        m = np.array([params.mH, params.mL])
        mx = m[:, None, None, None] * x[None, None, :, None]
        my = m[None, :, None, None] * x[None, None, None, :]
        expected = params.lam * (mx - my) ** 2 / (2.0 * params.m0 ** 2)
        mask = np.abs(rho0.blocks) > 1e-10
        assert np.allclose(rate_fd[mask], expected[mask], rtol=1e-3, atol=1e-4)


class TestCsl:

    def setup_method(self):
        self.params = ModelParams(gamma=0.4, rC=0.5)
        self.grid = Grid.centered(160, 16.0)  # spacing 0.1 <= rC/4

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            build_csl(self.params, Grid.centered(64, 16.0))

    def test_kernel_normalized_on_grid(self):
        g = smearing_kernel(self.params, self.grid.points)
        assert np.sum(g) * self.grid.spacing == pytest.approx(1.0, abs=1e-6)

    def test_discrete_self_convolution_matches_analytic(self):
        """sum_i g(x_i - y) g(x_i - y') dx reproduces (g*g)(y - y')."""
        model = build_csl(self.params, self.grid)
        g = model.channels[:, :, IDX_H] * self.params.m0 / self.params.mH
        y0 = self.grid.n_points // 2
        discrete = np.sum(g[:, y0] * g[:, y0]) * self.grid.spacing
        analytic = smearing_self_convolution(self.params, 0.0)
        assert discrete == pytest.approx(analytic, rel=1e-4)
        assert analytic == pytest.approx(
            (4.0 * np.pi * self.params.rC ** 2) ** -0.5)

    def test_convolution_converges_quadratically(self):
        target = smearing_self_convolution(self.params, 0.0)
        errs = []
        for n in (160, 320):
            grid = Grid.centered(n, 16.0)
            g = smearing_kernel(self.params, grid.points[:, None] - 0.0)
            errs.append(abs(float(np.sum(g * g)) * grid.spacing - target))
        # trapezoid-type quadrature of a smooth periodic-decay integrand:
        # at least quadratic improvement under halving
        assert errs[1] <= errs[0] / 4.0 + 1e-12

    def test_far_separated_damping_rate(self):
        """At |x-y| >> rC the mu=nu off-diagonal rate approaches
        gamma m_mu^2 g*g(0) / m0^2 (cross term vanishes)."""
        model = build_csl(self.params, self.grid)
        rates = decoherence_rates(model)
        gg0 = smearing_self_convolution(self.params, 0.0)
        expected = self.params.gamma * self.params.mH ** 2 * gg0 / self.params.m0 ** 2
        # interior points well away from the channel-grid edge, |x-y| = 12
        i, j = self.grid.n_points // 8, 7 * self.grid.n_points // 8
        assert rates[IDX_H, IDX_H, i, j] == pytest.approx(expected, rel=1e-4)

    def test_hl_rate_at_coincident_points(self):
        """x=y, mu != nu: rate = gamma (mH-mL)^2 g*g(0) / (2 m0^2)."""
        model = build_csl(self.params, self.grid)
        rates = decoherence_rates(model)
        gg0 = smearing_self_convolution(self.params, 0.0)
        expected = self.params.gamma * self.params.dm ** 2 * gg0 / (
            2.0 * self.params.m0 ** 2)
        k = self.grid.n_points // 2
        assert rates[IDX_H, IDX_L, k, k] == pytest.approx(expected, rel=1e-3)

    def test_population_entries_undamped(self):
        model = build_csl(self.params, self.grid)
        rates = decoherence_rates(model)
        diag = np.einsum("mmxx->mx", rates)
        assert np.max(np.abs(diag)) < 1e-12


def _channel_rates(model):
    """The channel form of ``decoherence_rates``, kept as a reference:
    (coupling/2) sum_i (A_i(x,mu) - A_i(y,nu))^2 from the full channels."""
    w = model.channels
    s2 = np.sum(w ** 2, axis=0)
    cross = np.einsum("ixm,iyn->mnxy", w, w)
    return 0.5 * model.effective_coupling * (
        s2.T[:, None, :, None] + s2.T[None, :, None, :] - 2.0 * cross)


class TestProfileFormat:
    """A model stores the profile G and the mass ratios; A_i = G_i r_mu."""

    def models(self):
        params = ModelParams(lam=0.3, gamma=0.4, rC=0.5, mH=1.7, mL=0.4, m0=1.3)
        return (build_qmupl(params, Grid.centered(48, 16.0)),
                build_csl(params, Grid.centered(160, 16.0)))

    def test_channels_are_profile_times_mass_ratio(self):
        for model in self.models():
            assert model.channels.shape == (model.n_channels,
                                            model.grid.n_points, 2)
            assert np.array_equal(model.channels[:, :, IDX_L],
                                  model.profile * (0.4 / 1.3))
            assert not model.channels.flags.writeable
            assert not model.profile.flags.writeable

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_field_matches_channel_einsum(self, shape):
        rng = np.random.default_rng(5)
        for model in self.models():
            w = rng.standard_normal(shape + (model.n_channels,))
            expected = np.einsum("...i,inm->...nm", w, model.channels)
            field = model.field(w)
            assert field.shape == shape + (model.grid.n_points, 2)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(field - expected)) <= 1e-14 * scale

    def test_csl_stores_no_channel_array(self):
        """G (nc, n) is derived from the kernel samples on read, the
        (nc, n, 2) product is never stored, and the pickle a process pool
        ships carries less than G even after G was read."""
        model = self.models()[1]
        n = model.grid.n_points
        assert model.channels.shape == (n, n, 2)      # derived, not cached
        shapes = [v.shape for v in vars(model).values()
                  if isinstance(v, np.ndarray)]
        assert (n, n, 2) not in shapes
        assert model.profile.shape == (n, n)
        assert model.mass_ratio.shape == (2,)
        assert len(pickle.dumps(model)) < model.profile.nbytes

    @given(n=st.integers(min_value=8, max_value=48),
           r_c=st.floats(min_value=0.25, max_value=4.0),
           m_l=st.floats(min_value=0.05, max_value=2.0),
           dm=st.floats(min_value=1e-3, max_value=2.0),
           m0=st.floats(min_value=0.2, max_value=3.0),
           csl=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_rates_match_channel_reference(self, n, r_c, m_l, dm, m0, csl):
        params = ModelParams(m0=m0, mH=m_l + dm, mL=m_l, lam=0.7, gamma=0.7,
                             rC=r_c)
        grid = Grid.centered(n, n * r_c / 5.0)
        model = (build_csl if csl else build_qmupl)(params, grid)
        rates = decoherence_rates(model)
        reference = _channel_rates(model)
        tol = 1e-13 * np.max(np.abs(reference))
        assert np.max(np.abs(rates - reference)) <= tol
        assert np.max(np.abs(_hl_diagonal_rate(model)
                             - np.diagonal(rates[IDX_H, IDX_L]))) <= tol


class TestKernelSamples:
    """A CSL model stores its 2n - 1 kernel samples g(k dx), not G."""

    def setup_method(self):
        self.params = ModelParams(gamma=0.4, rC=0.5)
        self.grid = Grid.centered(160, 16.0)

    @staticmethod
    def largest_stored_array(model):
        return max(v.size for v in vars(model).values()
                   if isinstance(v, np.ndarray))

    def test_me_and_dyson_never_store_g(self):
        model = build_csl(self.params, self.grid)
        n = self.grid.n_points
        assert model.profile_data.shape == (2 * n - 1,)
        assert self.largest_stored_array(model) <= 2 * n
        model.profile_square_sum()
        assert self.largest_stored_array(model) <= 2 * n
        state = make_gaussian_state(self.params, self.grid, "M0")
        times = np.array([0.5, 1.0])
        me_flavor_probabilities(model, DensityBlocks.from_state(state),
                                times, 0.5)
        dyson_flavor_probabilities(model, state, times, 2)
        assert self.largest_stored_array(model) <= 2 * n

    def test_pickle_carries_the_samples_only(self):
        model = build_csl(self.params, self.grid)
        n = self.grid.n_points
        bound = 16 * (2 * n - 1) + 4096
        assert len(pickle.dumps(model)) <= bound
        profile = model.profile                   # derived and kept
        assert "profile" in vars(model)
        assert len(pickle.dumps(model)) <= bound
        copy = pickle.loads(pickle.dumps(model))
        assert "profile" not in vars(copy)
        assert np.array_equal(copy.profile, profile)
        assert copy.n_channels == n

    @given(n=st.integers(min_value=2, max_value=256),
           r_c=st.floats(min_value=0.01, max_value=100.0),
           fill=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_construction(self, n, r_c, fill):
        """G and s(x) from the samples match g(x_i - x) built on the n x n
        grid differences, for every extent fill * n rC / 4 that resolves
        the smearing."""
        params = ModelParams(gamma=0.4, rC=r_c)
        grid = Grid.centered(n, fill * n * r_c / 4.0)
        x = grid.points
        dense = smearing_kernel(params, x[:, None] - x[None, :])
        model = build_csl(params, grid)
        assert model.profile.shape == (n, n)
        assert (np.max(np.abs(model.profile - dense))
                <= 1e-14 * np.max(dense))
        squares = np.einsum("ix,ix->x", dense, dense)
        assert (np.max(np.abs(model.profile_square_sum() - squares))
                <= 1e-14 * np.max(squares))

    def test_equality_is_identity(self):
        """Two models built alike are distinct objects; both hash."""
        a = build_csl(self.params, self.grid)
        b = build_csl(self.params, self.grid)
        assert a == a and a != b
        assert len({a, b, a}) == 2
