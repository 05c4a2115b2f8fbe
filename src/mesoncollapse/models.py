"""Hamiltonian and collapse-operator construction on the grid.

Both models couple the noise to the mass density: channel i acts on the
position (x) mass (mu) basis as A_i(x, mu) = G_i(x) m_mu / m0, with the
spatial profile G_i(x) = x for QMUPL (one channel) and g(x_i - x) for CSL
(one channel per grid point of the noise field).  A model stores the
profile and the two mass ratios, and every noise field and decoherence
rate is built from them.  The CSL profile is Toeplitz on the uniform grid,
so it is stored as its 2n - 1 kernel samples g(k dx); s(x) = sum_i G_i(x)^2,
all the grid ME and the Dyson series read, needs no G.  The Hamiltonian is
mass-diagonal, so it commutes with every channel and evolution never
mixes mass eigenstates.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GridResolutionError, _frozen_array

QMUPL = "QMUPL"
CSL = "CSL"


@dataclass(frozen=True, eq=False)
class CollapseModel:
    """Diagonal operator data for one collapse model on a grid.

    hamiltonian : (2,) phase rates (mH, mL), grid-point independent.
    profile_data : G itself, (n_channels, n_points), or the (2n - 1,)
        kernel samples g(k dx), k = -(n-1) ... n-1, of a Toeplitz G.
    profile     : (n_channels, n_points) spatial profile G_i(x), read-only;
        derived from kernel samples on first read and cached, never pickled.
    mass_ratio  : (2,) (mH / m0, mL / m0); channel i is
        A_i(x, mu) = profile[i, x] * mass_ratio[mu].
    coupling    : lambda (QMUPL) or gamma (CSL).
    channel_measure : quadrature weight of the channel index; the effective
        per-channel coupling is coupling * channel_measure.  It is 1 for the
        discrete QMUPL channels and the grid spacing for the CSL noise field
        (whose channel index discretizes a continuum).

    Only the Gram matrix G^T G enters the physics: it is the covariance of
    the noise field sum_i w_i G_i, and the master equation reads nothing
    else.  Equality is identity.
    """

    label: str
    hamiltonian: np.ndarray
    profile_data: np.ndarray
    mass_ratio: np.ndarray
    coupling: float
    channel_measure: float
    grid: object

    def __post_init__(self):
        for name in ("hamiltonian", "profile_data", "mass_ratio"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))

    def __getstate__(self):
        # a pickle carries the stored data only, never a derived G
        return {k: v for k, v in vars(self).items() if k != "profile"}

    @cached_property
    def profile(self):
        """G_i(x): ``profile_data`` itself, or G[i, x] = profile_data[i - x + n - 1]
        from the kernel samples."""
        if self.profile_data.ndim == 2:
            return self.profile_data
        n = self.grid.n_points
        g = np.ascontiguousarray(
            sliding_window_view(self.profile_data[::-1], n)[::-1])
        g.setflags(write=False)
        return g

    @property
    def n_channels(self):
        if self.profile_data.ndim == 2:
            return self.profile_data.shape[0]
        return self.grid.n_points

    @property
    def effective_coupling(self):
        return self.coupling * self.channel_measure

    @property
    def channels(self):
        """A_i(x, mu), shape (n_channels, n_points, 2), rebuilt on each read."""
        a = self.profile[:, :, None] * self.mass_ratio
        a.setflags(write=False)
        return a

    def field(self, w):
        """sum_i w_i A_i, shape (..., n_points, 2), for w of shape (..., nc)."""
        return (np.asarray(w, dtype=float) @ self.profile)[..., None] * self.mass_ratio

    def profile_square_sum(self):
        """s(x) = sum_i G_i(x)^2, shape (n_points,); sum_i A_i^2 = s r_mu^2.

        For kernel samples, s(x_j) sums g^2 over the n samples k = -j ...
        n-1-j: one sliding window, in O(n) memory, with no G.
        """
        if self.profile_data.ndim == 2:
            return np.einsum("ix,ix->x", self.profile_data, self.profile_data)
        n = self.grid.n_points
        return np.convolve(self.profile_data ** 2, np.ones(n), "valid")[::-1]


def build_hamiltonian(params):
    """Mass-diagonal phase rates (mH, mL), identical at every grid point."""
    return np.array([params.mH, params.mL])


def build_qmupl(params, grid):
    """Position-localization model: one channel, profile G(x) = x."""
    h = build_hamiltonian(params)
    return CollapseModel(label=QMUPL, hamiltonian=h,
                         profile_data=grid.points[None, :],
                         mass_ratio=h / params.m0, coupling=params.lam,
                         channel_measure=1.0, grid=grid)


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

    Channel x_i has profile g(x_i - y) at y; the channel measure is the grid
    spacing, so that discrete channel sums reproduce the continuum
    convolution sum_i g(x_i-y) g(x_i-y') dx -> (g*g)(y-y').  On the uniform
    grid x_i - y = k dx, so the model stores the 2n - 1 samples g(k dx).
    """
    if grid.spacing > params.rC / 4.0:
        raise GridResolutionError(
            "grid spacing %g exceeds rC/4 = %g; smearing unresolved"
            % (grid.spacing, params.rC / 4.0))
    n = grid.n_points
    g = smearing_kernel(params, grid.spacing * np.arange(1 - n, n))
    g.setflags(write=False)
    h = build_hamiltonian(params)
    return CollapseModel(label=CSL, hamiltonian=h, profile_data=g,
                         mass_ratio=h / params.m0, coupling=params.gamma,
                         channel_measure=grid.spacing, grid=grid)
