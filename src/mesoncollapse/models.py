"""Hamiltonian and collapse-operator construction on the grid.

Both models share the structure: a mass-diagonal Hamiltonian and Hermitian
channel operators that are diagonal in the position (x) mass basis, so the
Hamiltonian commutes with every channel and evolution never mixes mass
eigenstates.
"""

from dataclasses import dataclass

import numpy as np

from .core import IDX_H, IDX_L, GridResolutionError

QMUPL = "QMUPL"
CSL = "CSL"


@dataclass(frozen=True)
class CollapseModel:
    """Diagonal operator data for one collapse model on a grid.

    hamiltonian : (2,) phase rates (mH, mL), grid-point independent.
    channels    : (n_channels, n_points, 2) real diagonal weights.
    coupling    : lambda (QMUPL) or gamma (CSL).
    channel_measure : quadrature weight of the channel index; the effective
        per-channel coupling is coupling * channel_measure.  It is 1 for the
        discrete QMUPL channels and the grid spacing for the CSL noise field
        (whose channel index discretizes a continuum).
    """

    label: str
    hamiltonian: np.ndarray
    channels: np.ndarray
    coupling: float
    channel_measure: float
    grid: object

    def __post_init__(self):
        h = np.array(self.hamiltonian, dtype=float)
        ch = np.array(self.channels, dtype=float)
        h.setflags(write=False)
        ch.setflags(write=False)
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "channels", ch)

    @property
    def n_channels(self):
        return self.channels.shape[0]

    @property
    def effective_coupling(self):
        return self.coupling * self.channel_measure

    def channel_square_sum(self):
        """sum_i A_i^2 diagonal, shape (n_points, 2), computed once per model."""
        s2 = self.__dict__.get("_square_sum")
        if s2 is None:
            s2 = np.sum(self.channels ** 2, axis=0)
            s2.setflags(write=False)
            object.__setattr__(self, "_square_sum", s2)
        return s2


def build_hamiltonian(params):
    """Mass-diagonal phase rates (mH, mL), identical at every grid point."""
    return np.array([params.mH, params.mL])


def build_qmupl(params, grid):
    """Position-localization model: one channel, weight x * m_mu / m0."""
    x = grid.points
    w = np.empty((1, grid.n_points, 2))
    w[0, :, IDX_H] = x * params.mH / params.m0
    w[0, :, IDX_L] = x * params.mL / params.m0
    return CollapseModel(label=QMUPL, hamiltonian=build_hamiltonian(params),
                         channels=w, coupling=params.lam, channel_measure=1.0,
                         grid=grid)


def smearing_kernel(params, r):
    """L1-normalized Gaussian of variance rC^2 (1-D), g(r)."""
    r = np.asarray(r, dtype=float)
    rc2 = params.rC ** 2
    return np.exp(-r ** 2 / (2.0 * rc2)) / np.sqrt(2.0 * np.pi * rc2)


def smearing_self_convolution(params, r, dim=1):
    """(g * g)(r): Gaussian of variance 2 rC^2; (g*g)(0) = (4 pi rC^2)^(-dim/2)."""
    r = np.asarray(r, dtype=float)
    rc2 = params.rC ** 2
    return (4.0 * np.pi * rc2) ** (-dim / 2.0) * np.exp(-r ** 2 / (4.0 * rc2))


def build_csl(params, grid):
    """Smeared-density model: one channel per grid point of the noise field.

    Channel x_i has weight g(x_i - y) * m_mu / m0 at (y, mu); the channel
    measure is the grid spacing, so that discrete channel sums reproduce
    the continuum convolution sum_i g(x_i-y) g(x_i-y') dx -> (g*g)(y-y').
    """
    if grid.spacing > params.rC / 4.0:
        raise GridResolutionError(
            "grid spacing %g exceeds rC/4 = %g; smearing unresolved"
            % (grid.spacing, params.rC / 4.0))
    x = grid.points
    g = smearing_kernel(params, x[:, None] - x[None, :])  # (channel, point)
    w = np.empty((grid.n_points, grid.n_points, 2))
    w[:, :, IDX_H] = g * params.mH / params.m0
    w[:, :, IDX_L] = g * params.mL / params.m0
    return CollapseModel(label=CSL, hamiltonian=build_hamiltonian(params),
                         channels=w, coupling=params.gamma,
                         channel_measure=grid.spacing, grid=grid)
