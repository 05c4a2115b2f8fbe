"""Wiener-path generation, mollified noise, and the autocorrelation integral.

The regularized noise dW/dt is the convolution of a unit-mass kernel
(delta_eps) with the Wiener increments.  The deterministic integral

    I(eps) = int_0^t E[ Wdot(t) Wdot(s) ] ds = 1/2 - P(V - V' >= t)

for two independent draws V, V' from the kernel (the s integral taken first
through the kernel's CDF): the 1/2 is exact for every unit-mass kernel, and
the rest vanishes as eps -> 0, symmetric or not.
"""

import functools
import math
import sys
import types
from dataclasses import dataclass

import numpy as np

from .core import ParameterError, _frozen_array

MOLLIFIER_KINDS = ("gaussian", "box", "asymmetric-exponential", "asymmetric-triangle")

# effective support of the Gaussian / exponential tails, in units of eps
_GAUSS_CUT = 8.5
_EXP_CUT = 40.0

# largest eps whose widest support, _EXP_CUT * eps, stays well inside the
# float range
_MAX_EPS = np.finfo(float).max / (4.0 * _EXP_CUT)

# bytes one row of per-increment weights may hold, which bounds
# ``window_integrals``, and one ensemble chunk may draw and hold, which fixes
# the chunk boundaries
MAX_NOISE_BYTES = 64 * 2 ** 20

# math.erf elementwise: scipy.special costs about half a second to import
_erf = np.vectorize(math.erf, otypes=[float])


def _require_resolved(m, step):
    """Raise ParameterError unless step <= eps/4 (+ 1e-12 eps for rounding)."""
    if not step <= m.eps / 4.0 + 1e-12 * m.eps:
        raise ParameterError("step %g exceeds eps/4 = %g" % (step, m.eps / 4.0))


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Seeded Wiener increments, shape (n_steps, n_channels), variance dt each."""

    seed: int
    dt: float
    increments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "increments", _frozen_array(self.increments, float))

    @property
    def n_steps(self):
        return self.increments.shape[0]

    @property
    def n_channels(self):
        return self.increments.shape[1]


def path_generator(seed, stream=None):
    """Counter-based generator for a (seed, stream) pair.

    Distinct streams derived from the same master seed are statistically
    independent and reproducible regardless of generation order.
    """
    entropy = (int(seed),) if stream is None else (int(seed), int(stream))
    npr = _numpy_random()
    return npr.Generator(npr.Philox(npr.SeedSequence(entropy)))


@functools.cache
def _numpy_random():
    """numpy.random, imported without OpenSSL when this process loads it first.

    numpy.random.bit_generator takes only ``randbits`` from ``secrets``, to
    seed a generator made without a seed; ``secrets`` imports ``hmac``, which
    loads ``_hashlib`` and OpenSSL, about 3.7 MB of RSS.  For the import a
    stand-in ``secrets`` holds ``randbits = SystemRandom().getrandbits``,
    the definition in ``secrets``, so unseeded entropy still comes from
    os.urandom; it is removed at once, and a later ``import secrets`` gets
    the real module.  With numpy.random or secrets already loaded, or if a
    numpy wants more of ``secrets`` (ImportError), the import is plain.
    """
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        return np.random
    import random
    stand_in = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    sys.modules["secrets"] = stand_in
    try:
        import numpy.random
    except ImportError:
        pass
    finally:
        del sys.modules["secrets"]
    import numpy.random   # a lookup after the import above, else the retry
    return numpy.random


def sample_wiener(seed, dt, n_steps, n_channels=1):
    """Sample a NoisePath of independent Gaussian increments, variance dt."""
    if dt <= 0:
        raise ParameterError("dt must be positive, got %g" % dt)
    if n_steps < 1:
        raise ParameterError("n_steps must be >= 1, got %d" % n_steps)
    if n_channels < 1:
        raise ParameterError("n_channels must be >= 1, got %d" % n_channels)
    inc = path_generator(seed).normal(0.0, np.sqrt(dt), (n_steps, n_channels))
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
        if not np.finfo(float).tiny <= self.eps <= _MAX_EPS:
            raise ParameterError("eps must lie in [%g, %g], got %g"
                                 % (np.finfo(float).tiny, _MAX_EPS, self.eps))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        e = self.eps
        if self.kind == "gaussian":
            return np.exp(-(x / e) ** 2 / 2.0) / (np.sqrt(2.0 * np.pi) * e)
        if self.kind == "box":
            return np.where((x >= -e / 2.0) & (x < e / 2.0), 1.0 / e, 0.0)
        if self.kind == "asymmetric-exponential":
            return np.where(x >= 0.0, np.exp(-np.clip(x, 0.0, None) / e) / e, 0.0)
        # asymmetric-triangle: peak at 0, linear decay to 0 at eps
        return np.where((x >= 0.0) & (x < e), 2.0 * (1.0 - x / e) / e, 0.0)

    def cdf(self, x):
        """Closed-form integral of ``pdf`` from -inf to x."""
        x = np.asarray(x, dtype=float)
        e = self.eps
        if self.kind == "gaussian":
            return 0.5 * (1.0 + _erf(x / (np.sqrt(2.0) * e)))
        if self.kind == "box":
            return np.clip(x / e + 0.5, 0.0, 1.0)
        if self.kind == "asymmetric-exponential":
            return -np.expm1(-np.clip(x, 0.0, None) / e)
        y = np.clip(x / e, 0.0, 1.0)
        return y * (2.0 - y)

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


@dataclass(frozen=True, eq=False)
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
    _require_resolved(m, float(np.max(np.diff(t_grid))))
    samples = mollified_values(path, m, t_grid, t0=t0)
    return MollifiedNoise(base=path, mollifier=m, t_grid=t_grid,
                          samples=samples, t0=t0)


# 16-point Gauss-Legendre rule on [-1, 1]: numpy.polynomial.legendre.leggauss(16)
# written out with repr(float), so no process loads numpy.polynomial or runs
# the eigensolve that rebuilds these 32 numbers
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318,
    -0.755404408355003, -0.6178762444026438, -0.45801677765722737,
    -0.2816035507792589, -0.09501250983763744, 0.09501250983763744,
    0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326,
    0.9894009349916499])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926,
    0.12462897125553407, 0.1495959888165767, 0.16915651939500265,
    0.18260341504492364, 0.18945061045506864, 0.18945061045506864,
    0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456,
    0.027152459411754176])


def _panel_quadrature(f, points, max_panel):
    """Composite Gauss-Legendre integral of ``f`` over consecutive ``points``.

    Each interval between breakpoints is split into panels no wider than
    ``max_panel``; the integrand must be smooth inside each interval.
    """
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        if b <= a:
            continue
        n_panels = max(1, int(np.ceil((b - a) / max_panel)))
        edges = np.linspace(a, b, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        total += float(np.dot(w, f(x)))
    return total


def _merged_breakpoints(values, lo, hi):
    vals = sorted(set(float(v) for v in values if lo < v < hi))
    return [lo] + vals + [hi]


def window_integrals(m, times, t_end, h):
    """Increment midpoints t_k and the kernel's exact window integrals w.

    t_k steps by ``h`` over every u with delta_eps(s - u) != 0 for some s in
    [0, t_end]; w[j, k] = F(t_j - t_k) - F(-t_k) = int_0^{t_j}
    delta_eps(s - t_k) ds.  Raises ParameterError if one channel's
    increments would exceed MAX_NOISE_BYTES.
    """
    lo, hi = m.support()
    span = t_end - lo + hi
    if not span / h <= MAX_NOISE_BYTES // 8:
        raise ParameterError(
            "a noise path over %g at step %g needs more than %d increments"
            % (span, h, MAX_NOISE_BYTES // 8))
    t_mid = -hi + (np.arange(int(np.ceil(span / h))) + 0.5) * h
    times = np.asarray(times, dtype=float)
    return t_mid, m.cdf(times[:, None] - t_mid) - m.cdf(-t_mid)


def gaussian_factor(rows, h):
    """Square L with L L^T = h rows rows^T, the covariance of rows @ dW for
    independent increments dW of variance h.

    So L z, z standard normal, has the law of rows @ dW and costs one
    normal per row, not one per increment.  L is the transposed R of a QR
    of sqrt(h) rows^T, not a Cholesky of the Gram matrix, which is singular
    at a stop t = 0 and nearly so when stops are closer than eps.
    """
    return np.linalg.qr(np.sqrt(h) * np.asarray(rows, dtype=float).T, mode="r").T


def i_epsilon_quadrature(m, t):
    """Deterministic value of the regularized autocorrelation integral.

    I = 1/2 - int dv delta_eps(v) F_eps(v - t) = 1/2 - P(V - V' >= t), the
    double integral int_0^t ds int du delta(t-u) delta(s-u) with the s
    integral in closed form: one panel Gauss-Legendre pass over the
    kernel's breakpoints and the same breakpoints shifted by t.
    """
    if t <= 0:
        raise ParameterError("t must be positive, got %g" % t)
    lo, hi = m.support()
    points = _merged_breakpoints([lo, hi, lo + t, hi + t], lo, hi)
    return 0.5 - _panel_quadrature(lambda v: m.pdf(v) * m.cdf(v - t),
                                   points, m.eps / 2.0)


def i_epsilon_monte_carlo(m, t, n_paths, seed):
    """Sample-average estimate of the autocorrelation integral.

    Returns (estimate, stderr).  Each path contributes
    Wdot(t) * int_0^t Wdot(s) ds for increments of step eps/8; both factors
    are linear in the increments (the integral exactly, through
    ``window_integrals``), so the pair is Gaussian with a 2 x 2 covariance
    and each path draws two normals through its ``gaussian_factor``.
    """
    if t <= 0:
        raise ParameterError("t must be positive, got %g" % t)
    if n_paths < 100:
        raise ParameterError("n_paths must be >= 100, got %d" % n_paths)
    h = m.eps / 8.0
    t_mid, window = window_integrals(m, [t], t, h)
    factor = gaussian_factor([m.pdf(t - t_mid), window[0]], h)
    wdot_t, integral = factor @ path_generator(seed).standard_normal((2, n_paths))
    vals = wdot_t * integral
    estimate = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n_paths))
    return estimate, stderr
