"""Shared domain types: physical parameters, position grid, states.

Natural units with hbar = 1 throughout.  The internal two-level space is
spanned by the mass eigenstates (H, L); particle / anti-particle states
are their equal-weight combinations.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# index of each mass eigenstate in the trailing axis of amplitude arrays
IDX_H = 0
IDX_L = 1


class ParameterError(ValueError):
    """A physical or numerical parameter fails its validity constraints."""


class GridResolutionError(ValueError):
    """The position grid is too coarse or too short for the requested state."""


class InvariantViolationError(ValueError):
    """An input object violates a structural invariant (norm, trace, ...)."""


class NormDivergenceError(RuntimeError):
    """A trajectory's norm drifted too far in a single step (dt too large)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the two-level collapse models.

    ``alpha`` parametrizes the initial Gaussian: the amplitude profile is
    proportional to exp(-x^2 / (2 alpha)), so the position probability
    density has variance alpha/2.  This is the convention under which the
    closed-form damped-oscillation probabilities hold with the same alpha.
    """

    m0: float = 1.0
    mH: float = 1.5
    mL: float = 0.5
    lam: float = 0.0      # position-localization (QMUPL) coupling
    gamma: float = 0.0    # smeared-density (CSL) coupling
    rC: float = 1.0       # CSL smearing length
    alpha: float = 1.0
    dim: int = 1

    def __post_init__(self):
        for name in ("m0", "mH", "mL", "lam", "gamma", "rC", "alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError("%s must be finite, got %g"
                                     % (name, getattr(self, name)))
        if not (0 < self.mL < self.mH and np.isfinite(self.dm * self.dm)):
            raise ParameterError("need 0 < mL < mH and a finite dm^2 (mH=%g, mL=%g)"
                                 % (self.mH, self.mL))
        if self.lam < 0:
            raise ParameterError("lambda coupling must be >= 0, got %g" % self.lam)
        if self.gamma < 0:
            raise ParameterError("gamma coupling must be >= 0, got %g" % self.gamma)
        for name, v in (("m0", self.m0), ("rC", self.rC)):  # closed forms divide by v^2
            if not (v > 0 and 0 < v * v < np.inf):
                raise ParameterError("%s and %s^2 must be positive and finite,"
                                     " got %g" % (name, name, v))
        if self.alpha <= 0:
            raise ParameterError("alpha must be positive, got %g" % self.alpha)
        if self.dim not in (1, 3):
            raise ParameterError("dim must be 1 or 3, got %r" % (self.dim,))
        try:                         # g*g(0), the CSL self-overlap
            overlap = (4.0 * np.pi * float(self.rC) ** 2) ** (-self.dim / 2.0)
        except OverflowError:
            overlap = np.inf
        if not 0 < overlap < np.inf:
            raise ParameterError("rC=%g gives a g*g(0) = (4 pi rC^2)^(-%d/2) that"
                                 " is not positive and finite" % (self.rC, self.dim))

    @property
    def dm(self):
        """Mass splitting mH - mL."""
        return self.mH - self.mL


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D quadrature mesh.

    There is no kinetic term anywhere in the dynamics, so grid points never
    couple; the grid is a plain quadrature rule with no boundary conditions.
    """

    n_points: int
    spacing: float
    origin: float = 0.0

    def __post_init__(self):
        if self.n_points < 2:
            raise ParameterError("n_points must be >= 2, got %d" % self.n_points)
        if self.spacing <= 0:
            raise ParameterError("spacing must be positive, got %g" % self.spacing)

    @classmethod
    def centered(cls, n_points, extent):
        """Grid of ``n_points`` covering [-extent/2, extent/2)."""
        spacing = extent / n_points
        return cls(n_points=n_points, spacing=spacing,
                   origin=-extent / 2.0 + spacing / 2.0)

    @property
    def extent(self):
        return self.n_points * self.spacing

    @property
    def points(self):
        return self.origin + self.spacing * np.arange(self.n_points)


# bytes of one row slab of a DensityBlocks Hermiticity check; smaller slabs
# cost time (on 640 points 2**16 took 28 ms and 2**18 took 20 ms)
_SLAB_BYTES = 2 ** 18


def _frozen_array(a, dtype):
    """``a`` as a read-only ndarray of ``dtype``.

    An ndarray of that dtype that is read-only down to the memory it owns is
    returned as is; anything else is copied and frozen, so a caller's
    writeable array is never frozen or aliased.
    """
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is None and isinstance(a, np.ndarray) and a.dtype == dtype:
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def integer_steps(times, dt, scale, message):
    """round(times / dt) as int64, each time checked to be that many steps.

    Raises ParameterError(message) when times / dt is not finite or does not
    fit in int64, or when a time is off its step by more than 1e-9 * scale.
    """
    times = np.asarray(times, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = times / dt
    if not np.all(np.abs(ratio) < 2.0 ** 63):          # NaN fails too
        raise ParameterError(message)
    steps = np.round(ratio).astype(np.int64)
    if np.any(np.abs(steps * dt - times) > 1e-9 * scale):
        raise ParameterError(message)
    return steps


@dataclass(frozen=True)
class GridState:
    """Pure state on the grid: complex amplitudes of shape (n_points, 2).

    The trailing axis runs over the mass eigenstates (H, L).  The squared
    norm is sum(|amplitude|^2) * spacing.
    """

    amplitudes: np.ndarray
    grid: Grid

    def __post_init__(self):
        amp = _frozen_array(self.amplitudes, complex)
        if amp.shape != (self.grid.n_points, 2):
            raise InvariantViolationError(
                "amplitudes must have shape (%d, 2), got %r"
                % (self.grid.n_points, amp.shape))
        if not np.all(np.isfinite(amp.view(float))):
            raise InvariantViolationError("amplitudes contain non-finite values")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.spacing))

    def normalized(self):
        n = self.norm()
        if n == 0:
            raise InvariantViolationError("cannot normalize the zero state")
        return GridState(self.amplitudes / n, self.grid)

    def mass_populations(self):
        """(P_H, P_L) of the (unnormalized) state."""
        p = np.sum(np.abs(self.amplitudes) ** 2, axis=0) * self.grid.spacing
        return float(p[IDX_H]), float(p[IDX_L])

    def flavor_probability(self, flavor):
        """Squared overlap with identity_position (x) |flavor>."""
        proj = self.amplitudes @ np.conj(flavor_to_mass(flavor))
        return float(np.sum(np.abs(proj) ** 2) * self.grid.spacing)

    def hl_diagonal(self):
        """dx rho^HL(x, x) of the projector: psi_H(x) conj(psi_L(x)) dx, shape (n,)."""
        return _projector_hl_diagonal(self.amplitudes, self.grid.spacing)

    def validate(self, tol=1e-9):
        norm = self.norm()
        if abs(norm - 1.0) > tol:
            raise InvariantViolationError("state norm %g is not 1" % norm)
        return self


def _projector_hl_diagonal(amp, dx):
    """psi_H(x) conj(psi_L(x)) dx: the same einsum product as the HL block of
    the projector, so the two agree bit for bit."""
    return np.einsum("x,x->x", amp[:, IDX_H], np.conj(amp[:, IDX_L])) * dx


@dataclass(frozen=True, eq=False, init=False)
class DensityBlocks:
    """Averaged density matrix rho^{mu nu}(x, y), read as (2, 2, n, n) ``blocks``.

    ``DensityBlocks(blocks, grid)`` holds the blocks in one read-only array.
    A read-only complex array that owns its memory is kept without a copy, so
    a caller that builds a fresh array freezes it (``setflags(write=False)``)
    before handing it over.  ``from_state`` holds a pure state's (n, 2)
    ``amplitudes`` instead: its ``blocks`` are built on first read and
    cached, and ``trace``, ``hl_diagonal`` and ``validate`` read the
    amplitudes, so the grid ME and the Dyson series never build the n^2
    projector.  Equality is identity.
    """

    grid: Grid
    amplitudes: np.ndarray      # (n, 2) of a pure projector, else None

    def __init__(self, blocks, grid):
        b = _frozen_array(blocks, complex)
        n = grid.n_points
        if b.shape != (2, 2, n, n):
            raise InvariantViolationError(
                "blocks must have shape (2, 2, %d, %d), got %r" % (n, n, b.shape))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "amplitudes", None)
        object.__setattr__(self, "blocks", b)

    @classmethod
    def from_state(cls, state):
        """Projector |phi><phi| of a pure GridState, held as its amplitudes."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "grid", state.grid)
        object.__setattr__(rho, "amplitudes", state.amplitudes)
        return rho

    @cached_property
    def blocks(self):
        """rho^{mu nu}(x, y) = psi_mu(x) conj(psi_nu(y)) of a projector, read-only."""
        amp = self.amplitudes
        blocks = np.einsum("xm,yn->mnxy", amp, np.conj(amp))
        blocks.setflags(write=False)
        return blocks

    def trace(self):
        if self.amplitudes is None:
            diag = np.einsum("mmxx->", self.blocks)
        else:
            diag = np.einsum("xm,xm->", self.amplitudes, np.conj(self.amplitudes))
        return complex(diag) * self.grid.spacing

    def hl_diagonal(self):
        """dx rho^HL(x, x), shape (n,)."""
        if self.amplitudes is not None:
            return _projector_hl_diagonal(self.amplitudes, self.grid.spacing)
        return np.diagonal(self.blocks[IDX_H, IDX_L]) * self.grid.spacing

    def hermiticity_defect(self):
        """max |rho^{mu nu}(x,y) - conj(rho^{nu mu}(y,x))|.

        The (nu, mu) entries repeat the (mu, nu) ones in absolute value, so
        only mu <= nu is visited, in row slabs of about _SLAB_BYTES: the check
        never allocates an array of the density's size.
        """
        b = self.blocks
        n = self.grid.n_points
        rows = max(1, _SLAB_BYTES // (b.itemsize * n))
        worst = [np.max(np.abs(b[mu, nu, x:x + rows]
                               - np.conj(b[nu, mu, :, x:x + rows].T)))
                 for mu, nu in ((0, 0), (0, 1), (1, 1))
                 for x in range(0, n, rows)]
        return float(np.max(worst))

    def validate(self, tol=1e-9):
        """Check Hermiticity and a unit trace.  A projector is Hermitian by
        construction, so for one only the trace (its norm^2) is checked."""
        if self.amplitudes is None:
            defect = self.hermiticity_defect()
            if not defect <= tol:
                raise InvariantViolationError(
                    "density blocks are not Hermitian (defect %g)" % defect)
        tr = self.trace()
        if not abs(tr - 1.0) <= tol:
            raise InvariantViolationError("trace is %s, expected 1" % (tr,))
        return self


_SQ2 = 1.0 / np.sqrt(2.0)
_FLAVOR_VECTORS = {label: _frozen_array(c, complex) for label, c in (
    ("M0", (_SQ2, _SQ2)), ("M0bar", (_SQ2, -_SQ2)),
    ("H", (1.0, 0.0)), ("L", (0.0, 1.0)))}


def flavor_to_mass(label):
    """Mass-basis amplitudes (c_H, c_L) of a flavor (or mass) label.

    Returns a read-only complex array of shape (2,): M0 -> (1, 1)/sqrt(2),
    M0bar -> (1, -1)/sqrt(2); the mass labels H, L are accepted for
    convenience and map to basis vectors.
    """
    try:
        return _FLAVOR_VECTORS[label]
    except KeyError:
        raise ParameterError("unknown state label %r (expected one of %s)"
                             % (label, sorted(_FLAVOR_VECTORS))) from None


def make_gaussian_state(params, grid, flavor="M0"):
    """Normalized Gaussian wave packet tensored with a flavor state.

    The amplitude profile is exp(-x^2 / (2 alpha)), normalized on the grid
    (position density variance alpha/2, see ModelParams).  Raises
    GridResolutionError if the grid does not resolve or cover the packet.
    """
    root_alpha = np.sqrt(params.alpha)
    # n * (extent / n) may fall an ulp short of the extent the grid was built on
    if grid.extent < 8.0 * root_alpha * (1.0 - 4.0 * np.finfo(float).eps):
        raise GridResolutionError(
            "grid extent %g does not cover 8*sqrt(alpha)=%g"
            % (grid.extent, 8.0 * root_alpha))
    if grid.spacing > root_alpha / 4.0:
        raise GridResolutionError(
            "grid spacing %g exceeds sqrt(alpha)/4=%g"
            % (grid.spacing, root_alpha / 4.0))
    x = grid.points
    psi = np.exp(-x ** 2 / (2.0 * params.alpha))
    psi /= np.sqrt(np.sum(psi ** 2) * grid.spacing)
    return GridState(psi[:, None] * flavor_to_mass(flavor), grid)
