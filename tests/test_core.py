"""Tests for domain types, basis conversions, and grid states."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mesoncollapse import (DensityBlocks, Grid, GridResolutionError,
                           GridState, InvariantViolationError, ModelParams,
                           ParameterError, flavor_to_mass, make_gaussian_state)
from mesoncollapse import build_csl, core
from mesoncollapse.core import IDX_H, IDX_L
from mesoncollapse.master_eq import (dyson_flavor_probabilities,
                                     me_flavor_probabilities)

INV_SQ2 = 1.0 / np.sqrt(2.0)


class TestModelParams:

    def test_defaults_valid(self):
        p = ModelParams()
        assert p.dm == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"m0": 0.0},
        {"mH": 0.5, "mL": 0.5},
        {"mH": 0.2, "mL": 0.5},
        {"lam": -1.0},
        {"gamma": -0.5},
        {"rC": 0.0},
        {"alpha": -2.0},
        {"dim": 2},
        {"mH": 1.0, "mL": 0.0},
        {"m0": 1e200},
        {"m0": 1e-200},
        {"rC": 1e200},
        {"rC": 1e-200},
        {"mH": 1e200, "mL": 0.5},
        {"rC": 1e-150, "dim": 3},
        {"rC": 1e150, "dim": 3},
        {"rC": 1e154},
    ])
    def test_invalid_rejected(self, kwargs):
        """A non-positive mass, an m0^2 or rC^2 that is not positive and
        finite, a CSL self-overlap (4 pi rC^2)^(-dim/2) that overflows or
        underflows to 0, or a dm^2 that overflows is a config error."""
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("name", ["m0", "mH", "lam", "gamma", "rC", "alpha"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ParameterError):
            ModelParams(**{name: value})

    def test_dm_derived(self):
        p = ModelParams(mH=2.25, mL=1.0)
        assert p.dm == pytest.approx(1.25)


class TestGrid:

    def test_centered_covers_symmetric_interval(self):
        g = Grid.centered(8, 4.0)
        assert g.spacing == pytest.approx(0.5)
        assert g.points[0] == pytest.approx(-1.75)
        assert g.points[-1] == pytest.approx(1.75)
        assert g.extent == pytest.approx(4.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ParameterError):
            Grid(n_points=1, spacing=0.1)

    def test_nonpositive_spacing_rejected(self):
        with pytest.raises(ParameterError):
            Grid(n_points=10, spacing=0.0)


class TestFlavorConversion:

    def test_m0_components(self):
        v = flavor_to_mass("M0")
        assert v[IDX_H] == pytest.approx(INV_SQ2)
        assert v[IDX_L] == pytest.approx(INV_SQ2)

    def test_m0bar_components(self):
        v = flavor_to_mass("M0bar")
        assert v[IDX_H] == pytest.approx(INV_SQ2)
        assert v[IDX_L] == pytest.approx(-INV_SQ2)

    def test_flavor_states_orthogonal(self):
        v, w = flavor_to_mass("M0"), flavor_to_mass("M0bar")
        assert abs(np.vdot(v, w)) < 1e-15

    def test_mass_labels_are_basis_vectors(self):
        assert np.array_equal(flavor_to_mass("H"), [1.0, 0.0])
        assert np.array_equal(flavor_to_mass("L"), [0.0, 1.0])

    def test_vectors_are_read_only_complex_pairs(self):
        v = flavor_to_mass("M0")
        assert v.shape == (2,) and v.dtype == complex
        with pytest.raises(ValueError):
            v[0] = 0.0

    def test_unknown_label_rejected(self):
        with pytest.raises(ParameterError):
            flavor_to_mass("tau")

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False))
    def test_isometry(self, a, b):
        """The flavor<->mass rotation preserves norms and inner products."""
        v0, vbar = flavor_to_mass("M0"), flavor_to_mass("M0bar")
        mass = a * v0 + b * vbar
        flavor_norm2 = abs(a) ** 2 + abs(b) ** 2
        assert np.linalg.norm(mass) ** 2 == pytest.approx(flavor_norm2, abs=1e-9)


class TestGaussianState:

    def setup_method(self):
        self.params = ModelParams(alpha=1.0)
        self.grid = Grid.centered(128, 16.0)

    def test_norm_is_one(self):
        state = make_gaussian_state(self.params, self.grid, "M0")
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_position_moments(self):
        """<x> = 0 and Var(x) = alpha/2 for the amplitude exp(-x^2/2a)."""
        state = make_gaussian_state(self.params, self.grid, "M0")
        x = self.grid.points
        density = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
        mean = np.sum(x * density) * self.grid.spacing
        var = np.sum(x ** 2 * density) * self.grid.spacing - mean ** 2
        assert abs(mean) < 1e-12
        assert var == pytest.approx(self.params.alpha / 2.0, rel=1e-2)

    def test_mass_populations_equal_for_m0(self):
        state = make_gaussian_state(self.params, self.grid, "M0")
        ph, pl = state.mass_populations()
        assert ph == pytest.approx(0.5, abs=1e-12)
        assert pl == pytest.approx(0.5, abs=1e-12)

    def test_flavor_probability_of_initial_state(self):
        state = make_gaussian_state(self.params, self.grid, "M0")
        assert state.flavor_probability("M0") == pytest.approx(1.0, abs=1e-12)
        assert state.flavor_probability("M0bar") == pytest.approx(0.0, abs=1e-12)

    def test_refinement_leaves_norm(self):
        """Doubling n_points at fixed extent barely changes the norm."""
        coarse = make_gaussian_state(self.params, Grid.centered(128, 16.0))
        fine = make_gaussian_state(self.params, Grid.centered(256, 16.0))
        assert abs(coarse.norm() - fine.norm()) < 1e-8

    def test_short_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            make_gaussian_state(self.params, Grid.centered(64, 4.0))

    def test_coarse_grid_rejected(self):
        with pytest.raises(GridResolutionError):
            make_gaussian_state(self.params, Grid.centered(16, 16.0))

    @pytest.mark.parametrize("n", [49, 98, 103])
    def test_grid_built_on_the_covering_extent_accepted(self, n):
        """n * (8 / n) is an ulp short of 8 for these n; the grid that
        ``Grid.centered(n, 8 sqrt(alpha))`` builds still covers the packet."""
        grid = Grid.centered(n, 8.0 * np.sqrt(self.params.alpha))
        assert grid.extent < 8.0 * np.sqrt(self.params.alpha)
        assert make_gaussian_state(self.params, grid).norm() == pytest.approx(1.0)


class TestDensityBlocks:

    def test_projector_of_pure_state(self):
        params = ModelParams()
        grid = Grid.centered(64, 16.0)
        state = make_gaussian_state(params, grid, "M0")
        rho = DensityBlocks.from_state(state)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.hermiticity_defect() < 1e-15
        rho.validate()

    def test_shape_mismatch_rejected(self):
        grid = Grid.centered(8, 16.0)
        from mesoncollapse import InvariantViolationError
        with pytest.raises(InvariantViolationError):
            DensityBlocks(np.zeros((2, 2, 4, 4)), grid)

    def test_amplitudes_read_only(self):
        state = make_gaussian_state(ModelParams(), Grid.centered(64, 16.0))
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 1.0

    def test_from_state_and_validate_hold_one_density(self):
        """Built and checked without a second array of the density's size."""
        state = make_gaussian_state(ModelParams(), Grid.centered(640, 64.0))
        tracemalloc.start()
        try:
            rho = DensityBlocks.from_state(state).validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * rho.blocks.nbytes

    def test_explicit_density_validates_in_slabs(self):
        """An explicit 640-point density is checked without a second array
        of its size: the Hermiticity scan runs in slabs."""
        amp = make_gaussian_state(ModelParams(), Grid.centered(640, 64.0)).amplitudes
        tracemalloc.start()
        try:
            blocks = np.einsum("xm,yn->mnxy", amp, np.conj(amp))
            blocks.setflags(write=False)
            rho = DensityBlocks(blocks, Grid.centered(640, 64.0)).validate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rho.blocks is blocks
        assert peak <= 1.05 * blocks.nbytes

    @given(n=st.integers(2, 40), slab_bytes=st.integers(1, 4096),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_hermiticity_defect_equals_full_difference(self, n, slab_bytes, seed):
        """Row slabs of any size, including n not a multiple of the slab
        rows, give the whole-array maximum bit for bit."""
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(2, 2, n, n)) + 1j * rng.normal(size=(2, 2, n, n))
        rho = DensityBlocks(b, Grid.centered(n, 16.0))
        full = np.max(np.abs(b - np.conj(np.transpose(b, (1, 0, 3, 2)))))
        with mock.patch.object(core, "_SLAB_BYTES", slab_bytes):
            assert rho.hermiticity_defect() == full
        assert rho.hermiticity_defect() == full

    def test_hermiticity_defect_with_several_default_slabs(self):
        n = 300                            # 54 rows per slab: a ragged last slab
        rng = np.random.default_rng(5)
        b = rng.normal(size=(2, 2, n, n)) + 1j * rng.normal(size=(2, 2, n, n))
        full = np.max(np.abs(b - np.conj(np.transpose(b, (1, 0, 3, 2)))))
        assert DensityBlocks(b, Grid.centered(n, 16.0)).hermiticity_defect() == full

    @pytest.mark.parametrize("defect", ["hermiticity", "trace", "nan"])
    def test_validate_rejects_broken_density(self, defect):
        grid = Grid.centered(64, 16.0)
        b = np.array(DensityBlocks.from_state(
            make_gaussian_state(ModelParams(), grid)).blocks)
        if defect == "hermiticity":
            b[IDX_H, IDX_L, 3, 5] += 1e-6
        elif defect == "trace":
            b *= 1.01
        else:
            b[IDX_H, IDX_L, 3, 5] = np.nan
        with pytest.raises(InvariantViolationError):
            DensityBlocks(b, grid).validate()

    def test_callers_array_is_copied_not_frozen(self):
        grid = Grid.centered(8, 16.0)
        arr = np.zeros((2, 2, 8, 8), dtype=complex)
        rho = DensityBlocks(arr, grid)
        assert arr.flags.writeable
        assert not np.shares_memory(arr, rho.blocks)
        assert not rho.blocks.flags.writeable
        view = arr.view()
        view.setflags(write=False)          # read-only, but arr can still change it
        assert not np.shares_memory(arr, DensityBlocks(view, grid).blocks)

    def test_frozen_fresh_array_is_kept(self):
        grid = Grid.centered(8, 16.0)
        arr = np.zeros((2, 2, 8, 8), dtype=complex)
        arr.setflags(write=False)
        assert DensityBlocks(arr, grid).blocks is arr

    def test_equality_is_identity(self):
        grid = Grid.centered(8, 16.0)
        arr = np.zeros((2, 2, 8, 8), dtype=complex)
        a, b = DensityBlocks(arr, grid), DensityBlocks(arr, grid)
        assert a == a and a != b
        assert len({a, b, a}) == 2


def _random_state(n, seed):
    """A normalized GridState with complex amplitudes of every sign and a
    negative zero in every third L entry."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    amp[::3, IDX_L] = complex(-0.0, -0.0)
    return GridState(amp, Grid.centered(n, 16.0)).normalized()


def _largest_stored_array(obj):
    return max((v.size for v in vars(obj).values() if isinstance(v, np.ndarray)),
               default=0)


class TestPureProjector:
    """``from_state`` holds the amplitudes; the n^2 blocks are built on read."""

    def test_holds_the_amplitudes_only(self):
        state = make_gaussian_state(ModelParams(), Grid.centered(640, 64.0))
        rho = DensityBlocks.from_state(state)
        assert rho.amplitudes is state.amplitudes
        assert _largest_stored_array(rho) <= 2 * 640
        rho.validate()
        assert _largest_stored_array(rho) <= 2 * 640

    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_blocks_are_the_projector_built_once(self, n, seed):
        state = _random_state(n, seed)
        rho = DensityBlocks.from_state(state)
        amp = state.amplitudes
        expected = np.einsum("xm,yn->mnxy", amp, np.conj(amp))
        blocks = rho.blocks
        assert blocks.tobytes() == expected.tobytes()
        assert blocks.strides == expected.strides
        assert not blocks.flags.writeable
        assert rho.blocks is blocks

    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_hl_diagonal_is_the_blocks_diagonal(self, n, seed):
        """Bit for bit, signed zeros included, and so is the state's own."""
        state = _random_state(n, seed)
        rho = DensityBlocks.from_state(state)
        z0 = rho.hl_diagonal()
        assert _largest_stored_array(rho) <= 2 * n
        expected = np.diagonal(rho.blocks[IDX_H, IDX_L]) * state.grid.spacing
        assert z0.tobytes() == expected.tobytes()
        assert state.hl_diagonal().tobytes() == expected.tobytes()
        explicit = DensityBlocks(rho.blocks, state.grid)
        assert explicit.hl_diagonal().tobytes() == expected.tobytes()

    def test_trace_and_validate_read_the_norm(self):
        state = _random_state(32, 7)
        rho = DensityBlocks.from_state(state)
        explicit = DensityBlocks(rho.blocks, state.grid)
        assert rho.trace() == pytest.approx(1.0, abs=1e-14)
        assert rho.trace() == pytest.approx(explicit.trace(), abs=1e-15)
        scaled = DensityBlocks.from_state(
            GridState(1.01 * state.amplitudes, state.grid))
        with pytest.raises(InvariantViolationError, match="trace"):
            scaled.validate()
        assert _largest_stored_array(scaled) <= 2 * 32

    def test_me_and_dyson_build_no_density(self):
        params = ModelParams(gamma=0.4, rC=0.5)
        grid = Grid.centered(160, 16.0)
        rho = DensityBlocks.from_state(make_gaussian_state(params, grid, "M0"))
        model = build_csl(params, grid)
        times = np.array([0.5, 1.0])
        me_flavor_probabilities(model, rho, times, 0.5)
        dyson_flavor_probabilities(model, rho, times, 2)
        assert _largest_stored_array(rho) <= 2 * grid.n_points

    def test_is_frozen(self):
        rho = DensityBlocks.from_state(_random_state(8, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.amplitudes = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            rho.blocks = None
        assert rho == rho and rho != DensityBlocks.from_state(_random_state(8, 1))
