"""Wiener-path generation, mollified noise, and the autocorrelation integral.

The regularized noise dW/dt is the convolution of a unit-mass kernel
(delta_eps) with the Wiener increments.  The deterministic integral

    I(eps) = int_0^t E[ Wdot(t) Wdot(s) ] ds

approaches 1/2 as eps -> 0 for every kernel here, symmetric or not.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import ParameterError

MOLLIFIER_KINDS = ("gaussian", "box", "asymmetric-exponential", "asymmetric-triangle")

# effective support of the Gaussian / exponential tails, in units of eps
_GAUSS_CUT = 8.5
_EXP_CUT = 40.0


class UnderResolvedKernelError(ValueError):
    """The evaluation grid is too coarse to resolve the mollifier kernel."""


@dataclass(frozen=True)
class NoisePath:
    """Seeded Wiener increments, shape (n_steps, n_channels), variance dt each."""

    seed: int
    dt: float
    increments: np.ndarray

    def __post_init__(self):
        inc = np.array(self.increments, dtype=float)
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)

    @property
    def n_steps(self):
        return self.increments.shape[0]

    @property
    def n_channels(self):
        return self.increments.shape[1]

    def cumulative(self):
        """W at the grid times 0, dt, ..., n_steps*dt; shape (n_steps+1, n_channels)."""
        out = np.zeros((self.n_steps + 1, self.n_channels))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out


def path_generator(seed, stream=None):
    """Counter-based generator for a (seed, stream) pair.

    Distinct streams derived from the same master seed are statistically
    independent and reproducible regardless of generation order.
    """
    entropy = (int(seed),) if stream is None else (int(seed), int(stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def sample_wiener(seed, dt, n_steps, n_channels=1):
    """Sample a NoisePath of independent Gaussian increments, variance dt."""
    if dt <= 0:
        raise ParameterError("dt must be positive, got %g" % dt)
    if n_steps < 1:
        raise ParameterError("n_steps must be >= 1, got %d" % n_steps)
    if n_channels < 1:
        raise ParameterError("n_channels must be >= 1, got %d" % n_channels)
    rng = path_generator(seed)
    inc = rng.normal(0.0, np.sqrt(dt), size=(n_steps, n_channels))
    return NoisePath(seed=int(seed), dt=float(dt), increments=inc)


@dataclass(frozen=True)
class Mollifier:
    """Nonnegative kernel of unit integral and width eps.

    Four kinds: 'gaussian' and 'box' are symmetric; 'asymmetric-exponential'
    and 'asymmetric-triangle' are supported on [0, ...) only and exist to
    exercise the no-symmetry-needed property of the autocorrelation limit.
    """

    kind: str
    eps: float

    def __post_init__(self):
        if self.kind not in MOLLIFIER_KINDS:
            raise ParameterError("unknown mollifier kind %r (expected one of %s)"
                                 % (self.kind, list(MOLLIFIER_KINDS)))
        if self.eps <= 0:
            raise ParameterError("eps must be positive, got %g" % self.eps)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        e = self.eps
        if self.kind == "gaussian":
            return np.exp(-x ** 2 / (2.0 * e ** 2)) / (np.sqrt(2.0 * np.pi) * e)
        if self.kind == "box":
            return np.where((x >= -e / 2.0) & (x < e / 2.0), 1.0 / e, 0.0)
        if self.kind == "asymmetric-exponential":
            return np.where(x >= 0.0, np.exp(-np.clip(x, 0.0, None) / e) / e, 0.0)
        # asymmetric-triangle: peak at 0, linear decay to 0 at eps
        return np.where((x >= 0.0) & (x < e), 2.0 * (1.0 - x / e) / e, 0.0)

    def support(self):
        """(lo, hi) outside which the kernel is (numerically) zero."""
        e = self.eps
        if self.kind == "gaussian":
            return (-_GAUSS_CUT * e, _GAUSS_CUT * e)
        if self.kind == "box":
            return (-e / 2.0, e / 2.0)
        if self.kind == "asymmetric-exponential":
            return (0.0, _EXP_CUT * e)
        return (0.0, e)

    def breakpoints(self):
        """Points where the kernel is non-smooth, including support ends."""
        lo, hi = self.support()
        if self.kind == "gaussian":
            return [lo, hi]
        if self.kind == "box":
            return [lo, hi]
        if self.kind == "asymmetric-exponential":
            return [0.0, hi]
        return [0.0, self.eps]


@dataclass(frozen=True)
class MollifiedNoise:
    """Smoothed noise Wdot(t) = sum_k delta_eps(t - t_k) dW_k on a time grid.

    ``t0`` is the physical time of the start of the underlying path; the
    increment dW_k is attributed to the midpoint of its step.
    """

    base: NoisePath
    mollifier: Mollifier
    t_grid: np.ndarray
    samples: np.ndarray  # (n_times, n_channels)
    t0: float = 0.0

    def value(self, times):
        """Evaluate the smoothed noise at arbitrary times, shape (len(times), n_channels)."""
        return mollified_values(self.base, self.mollifier, times, t0=self.t0)


def mollified_values(path, m, times, t0=0.0):
    """Kernel-sum evaluation of the smoothed noise at the given times."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    t_mid = t0 + (np.arange(path.n_steps) + 0.5) * path.dt
    kernel = m.pdf(times[:, None] - t_mid[None, :])  # (n_times, n_steps)
    return kernel @ path.increments


def mollify(path, m, t_grid, t0=0.0):
    """Convolve a NoisePath with a mollifier on a time grid.

    The grid must resolve the kernel: max spacing <= eps/4.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ParameterError("t_grid must be a 1-D array of at least 2 times")
    if np.max(np.diff(t_grid)) > m.eps / 4.0 + 1e-12 * m.eps:
        raise UnderResolvedKernelError(
            "t_grid spacing %g exceeds eps/4 = %g"
            % (float(np.max(np.diff(t_grid))), m.eps / 4.0))
    samples = mollified_values(path, m, t_grid, t0=t0)
    return MollifiedNoise(base=path, mollifier=m, t_grid=t_grid,
                          samples=samples, t0=t0)


@cache
def _gauss_legendre():
    """16-point Gauss-Legendre (nodes, weights) on [-1, 1], built once.

    Built on first use, not at import: ``leggauss`` runs a LAPACK
    eigensolver whose pages every CLI process would otherwise load.
    """
    return leggauss(16)


def _panel_quadrature(f, points, max_panel):
    """Composite Gauss-Legendre integral of ``f`` over consecutive ``points``.

    Each interval between breakpoints is split into panels no wider than
    ``max_panel``; the integrand must be smooth inside each interval.
    """
    nodes, weights = _gauss_legendre()
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        n_panels = max(1, int(np.ceil((b - a) / max_panel)))
        edges = np.linspace(a, b, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        total += float(np.dot(w, f(x)))
    return total


def _merged_breakpoints(values, lo, hi):
    vals = sorted(set(float(v) for v in values if lo < v < hi))
    return [lo] + vals + [hi]


def kernel_autocorrelation(m, s):
    """C(s) = int delta_eps(u) delta_eps(s + u) du for a scalar shift s."""
    lo, hi = m.support()
    a = max(lo, lo - s)
    b = min(hi, hi - s)
    if b <= a:
        return 0.0
    bps = list(m.breakpoints()) + [bp - s for bp in m.breakpoints()]
    points = _merged_breakpoints(bps, a, b)
    return _panel_quadrature(lambda u: m.pdf(u) * m.pdf(s + u),
                             points, max_panel=m.eps / 2.0)


def i_epsilon_quadrature(m, t):
    """Deterministic value of the regularized autocorrelation integral.

    Computed from the change-of-variables reduction
    I = 1/2 * int_{-t}^{t} C(s) ds with C the kernel autocorrelation;
    equals the raw double integral int_0^t ds int du delta(t-u) delta(s-u).
    """
    if t <= 0:
        raise ParameterError("t must be positive, got %g" % t)
    lo, hi = m.support()
    a = max(-t, lo - hi)
    b = min(t, hi - lo)
    if b <= a:
        return 0.0
    diffs = [bi - bj for bi in m.breakpoints() for bj in m.breakpoints()]
    points = _merged_breakpoints(diffs, a, b)
    vectorized = np.vectorize(lambda s: kernel_autocorrelation(m, s))
    return 0.5 * _panel_quadrature(vectorized, points, max_panel=m.eps / 2.0)


def i_epsilon_monte_carlo(m, t, n_paths, seed, chunk=2000):
    """Sample-average estimate of the autocorrelation integral.

    Returns (estimate, stderr).  Each path contributes
    Wdot(t) * trapezoid(Wdot(s), s in [0, t]).  The trapezoid is linear in
    the increments, so it is folded into one kernel vector up front and each
    path costs two dot products with its increments.
    """
    if t <= 0:
        raise ParameterError("t must be positive, got %g" % t)
    if n_paths < 100:
        raise ParameterError("n_paths must be >= 100, got %d" % n_paths)
    lo, hi = m.support()
    h = m.eps / 8.0
    # increments cover every u with delta_eps(s - u) != 0 for s in [0, t]
    u_lo = -hi
    u_hi = t - lo
    n_inc = int(np.ceil((u_hi - u_lo) / h))
    t_mid = u_lo + (np.arange(n_inc) + 0.5) * h
    n_s = int(np.round(t / h)) + 1
    s_grid = np.linspace(0.0, t, n_s)
    kernel_s = m.pdf(s_grid[:, None] - t_mid[None, :])   # (n_s, n_inc)
    half_ds = np.diff(s_grid) / 2.0
    w_trap = np.zeros(n_s)                               # trapezoid weights on s_grid
    w_trap[:-1] += half_ds
    w_trap[1:] += half_ds
    # columns: Wdot(t) and trapezoid(Wdot(s), s) as linear maps of dW
    kernels = np.stack([m.pdf(t - t_mid), w_trap @ kernel_s], axis=1)  # (n_inc, 2)
    rng = path_generator(seed)
    vals = np.empty(n_paths)
    done = 0
    while done < n_paths:
        b = min(chunk, n_paths - done)
        dw = rng.normal(0.0, np.sqrt(h), size=(b, n_inc))
        wdot_t, integral = (dw @ kernels).T
        vals[done:done + b] = wdot_t * integral
        done += b
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return estimate, stderr
