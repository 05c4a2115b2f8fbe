"""Averaged-density-matrix evolution and closed-form transition probabilities.

Every generator in both models is diagonal in the position (x) mass basis,
so each (mu, nu, x, y) entry of the density matrix evolves by a closed
scalar exponential: a phase -i(m_mu - m_nu) plus a damping rate built from
a Gram matrix K by one formula, ``_rates``, and applied by one propagator,
``_evolve`` (a Taylor polynomial of exp for the Dyson series).  The closed
forms stay independent references for the grid ME and the Monte Carlo
unravelings through their own K: the continuum x y or g*g(x - y), not G^T G.
"""

from dataclasses import dataclass

import numpy as np

from .core import (IDX_H, IDX_L, DensityBlocks, InvariantViolationError,
                   ParameterError, _frozen_array, flavor_to_mass, integer_steps)
from .models import CSL, QMUPL, smearing_self_convolution

RECORD_COLUMNS = ("time", "p_same", "p_other", "stderr_same", "stderr_other", "source")


@dataclass(frozen=True, eq=False)
class TransitionRecord:
    """Time series of transition probabilities with Monte Carlo error bars.

    stderr arrays are zero for exact / master-equation sources.
    """

    times: np.ndarray
    p_same: np.ndarray
    p_other: np.ndarray
    stderr_same: np.ndarray
    stderr_other: np.ndarray
    source: str

    def __post_init__(self):
        for name in ("times", "p_same", "p_other", "stderr_same", "stderr_other"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), float))

    def validate(self, tol=1e-9):
        """Both columns sum to 1 and each lies in [0, 1], within err =
        3 hypot(stderr_same, stderr_other) + tol."""
        total = self.p_same + self.p_other
        err = 3.0 * np.hypot(self.stderr_same, self.stderr_other) + tol
        # written so that a NaN anywhere fails the check
        if not np.all(np.abs(total - 1.0) <= err):
            raise InvariantViolationError(
                "p_same + p_other deviates from 1 by up to %g"
                % float(np.max(np.abs(total - 1.0))))
        for name in ("p_same", "p_other"):
            p = getattr(self, name)
            if not np.all((p >= -err) & (p <= 1.0 + err)):
                raise InvariantViolationError(
                    "%s lies outside [0, 1] by up to %g"
                    % (name, float(np.max(np.maximum(-p, p - 1.0)))))
        return self


def exact_record(times, p_same, p_other, source):
    z = np.zeros_like(np.asarray(times, dtype=float))
    return TransitionRecord(times=times, p_same=p_same, p_other=p_other,
                            stderr_same=z, stderr_other=z, source=source)


@dataclass(frozen=True, eq=False)
class SuperoperatorKernel:
    """The master-equation generator of one model, built once.

    hamiltonian : (2,) mass phase rates.
    rate : (2, 2, n, n) damping rate of each density entry
        (``decoherence_rates``).
    """

    hamiltonian: np.ndarray
    rate: np.ndarray

    @classmethod
    def from_model(cls, model):
        return cls(hamiltonian=model.hamiltonian, rate=decoherence_rates(model))


def _rates(r, coupling, gram):
    """rate[mu, nu, x, y] = (coupling/2) [r_mu^2 K(x,x) + r_nu^2 K(y,y)
    - 2 r_mu r_nu K(x,y)] for mass ratios r and K = ``gram``, (2, 2, n, n)."""
    rs = np.multiply.outer(r ** 2, np.diagonal(gram))     # r_mu^2 K(x,x), (2, n)
    rate = (rs[:, None, :, None] + rs[None, :, None, :]
            - 2.0 * np.multiply.outer(np.outer(r, r), gram))
    return 0.5 * coupling * rate


def decoherence_rates(model):
    """Damping rate of each density entry, shape (2, 2, n, n).

    rate[mu, nu, x, y] = (coupling/2) sum_i (A_i(x,mu) - A_i(y,nu))^2,
    ``_rates`` with K = G^T G, since A_i = G_i r_mu, and the channel
    quadrature measure folded into the coupling.
    """
    return _rates(model.mass_ratio, model.coupling,
                  model.profile.T @ model.profile)


def _phase_rates(hamiltonian):
    """-i (m_mu - m_nu) for each block, shape (2, 2)."""
    h = np.asarray(hamiltonian, dtype=float)
    return -1j * (h[:, None] - h[None, :])


def _checked_start(rho0, times):
    """``times`` as a float array, once ``rho0`` has passed ``validate`` at
    1e-8 (a trace off 1 raises InvariantViolationError) and no time is
    negative (ParameterError)."""
    rho0.validate(tol=1e-8)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ParameterError("times must be nonnegative")
    return times


def _evolve(rho0, hamiltonian, rate, t, series=np.exp):
    """rho0 * series(-rate t) * exp(-i(m_mu - m_nu) t), entry by entry."""
    t = _checked_start(rho0, t)
    phase = np.exp(_phase_rates(hamiltonian)[:, :, None, None] * t)
    return DensityBlocks(rho0.blocks * series(-rate * t) * phase, rho0.grid)


def evolve_me_numeric(rho0, model, t, dt):
    """Grid master-equation evolution of DensityBlocks: ``_evolve`` with
    ``decoherence_rates`` (K = G^T G).  The per-entry exponential is exact,
    so dt must divide t but sets nothing else; trace and Hermiticity hold.
    """
    if dt <= 0:
        raise ParameterError("need dt > 0 (t=%g, dt=%g)" % (t, dt))
    integer_steps(t, dt, max(t, dt),
                  "t=%g is not an integer number of steps dt=%g" % (t, dt))
    return _evolve(rho0, model.hamiltonian, decoherence_rates(model), t)


def evolve_me_qmupl_exact(rho0, params, t):
    """Closed-form QMUPL evolution:

    rho^{mu nu}(x,y,t) = exp[-i(m_mu - m_nu) t
                             - lambda |m_mu x - m_nu y|^2 t / (2 m0^2)] rho0,
    ``_rates`` with the continuum K = x y.
    """
    x = rho0.grid.points
    m = np.array([params.mH, params.mL])
    rate = _rates(m / params.m0, params.lam, np.outer(x, x))
    return _evolve(rho0, m, rate, t)


def evolve_me_csl_exact(rho0, params, t):
    """Closed-form CSL evolution with the continuum smearing convolution.

    Entry rate: (gamma / 2 m0^2) [(m_mu^2 + m_nu^2) g*g(0)
                                  - 2 m_mu m_nu g*g(x - y)],
    ``_rates`` with K = g*g(x - y).
    """
    x = rho0.grid.points
    m = np.array([params.mH, params.mL])
    gram = smearing_self_convolution(params, x[:, None] - x[None, :])
    return _evolve(rho0, m, _rates(m / params.m0, params.gamma, gram), t)


def _closed_form(params, t, model_label):
    """The exact flavor probabilities from M0, 1/2 +- cos(dm t) D(t) / 2, with
    D = (1 + x)^(-dim/2) (QMUPL) or e^-x (CSL) for the damping exponent x(t);
    a non-finite x raises ParameterError, named by the last time."""
    t = np.asarray(t, dtype=float)
    qmupl = model_label == QMUPL
    with np.errstate(over="ignore", invalid="ignore"):   # rejected below
        if qmupl:
            x = params.lam * params.alpha * params.dm ** 2 * t / (2.0 * params.m0 ** 2)
        else:
            gg0 = float(smearing_self_convolution(params, 0.0, params.dim))
            x = params.gamma * params.dm ** 2 * gg0 / (2.0 * params.m0 ** 2) * t
    if not np.all(np.isfinite(x)):
        raise ParameterError("the damping exponent at t=%g overflows" % t.flat[-1])
    damp = (1.0 + x) ** (-params.dim / 2.0) if qmupl else np.exp(-x)
    osc = np.cos(params.dm * t) * damp / 2.0
    return 0.5 + osc, 0.5 - osc


def qmupl_flavor_probabilities(params, t):
    """QMUPL closed form: 1/2 +- cos(dm t) / (2 (1 + lam alpha dm^2 t /
    (2 m0^2))^(dim/2)); the exponent is dim/2 per spatial dimension."""
    return _closed_form(params, t, QMUPL)


def csl_flavor_probabilities(params, t):
    """CSL closed form: 1/2 +- cos(dm t)/2 * exp[-gamma dm^2 g*g(0) t /
    (2 m0^2)] with g*g(0) = (4 pi rC^2)^(-dim/2), whatever the profile."""
    return _closed_form(params, t, CSL)


def flavor_record(params, times, model_label):
    """TransitionRecord of the closed-form probabilities of ``model_label``."""
    p_same, p_other = _closed_form(params, times, model_label)
    return exact_record(times, p_same, p_other, source="exact-closed-form")


def transition_probability(rho, out, validate=True):
    """<phi_out| rho |phi_out> for a flavor or mass label.

    Flavor outputs reduce to 1/2 int dx [rho^HH + rho^LL +- rho^HL +- rho^LH](x,x);
    mass outputs are the corresponding diagonal-block trace.
    """
    if validate:
        rho.validate(tol=1e-8)
    dx = rho.grid.spacing
    diag = np.einsum("mnxx->mn", rho.blocks) * dx        # (2, 2)
    c = flavor_to_mass(out)
    val = np.real(np.conj(c) @ diag @ c)
    return float(val)


def require_me_dim(label, dim):
    """Raise ParameterError unless the grid ME of model ``label`` gives dim.

    The grid is 1-D.  The QMUPL HL-diagonal rate is a sum over coordinates,
    so any dim follows from the 1-D envelope (``me_flavor_probabilities``).
    The CSL rate is a product over coordinates, which no power of the 1-D
    envelope gives, so CSL supports dim = 1 only.
    """
    if dim != 1 and label != QMUPL:
        raise ParameterError("the %s grid master equation supports dim=1 only"
                             % label)


def me_flavor_probabilities(model, rho0, times, dt, dim=1):
    """Grid master-equation flavor probabilities at the sample times.

    In dim d the QMUPL damping envelope is the 1-D envelope raised to the
    d-th power while the phase is unchanged: p_same = 1/2 + Re(z) *
    (2|z|)^(d-1) with z = int dx rho^HL(x,x); ``rho0`` is DensityBlocks or a
    pure GridState.  A dim the model cannot give raises ParameterError
    (``require_me_dim``).
    """
    require_me_dim(model.label, dim)
    times, amplitudes = _interference_series(model, rho0, times, dt)
    z_re = amplitudes.real
    env = 2.0 * np.abs(amplitudes)
    p_same = 0.5 + z_re * env ** (dim - 1)
    return exact_record(times, p_same, 1.0 - p_same, source="me-numeric")


def me_envelope(model, rho0, times, dt):
    """1-D grid-ME oscillation envelope 2 |int dx rho^HL(x,x)| at each time."""
    _, amplitudes = _interference_series(model, rho0, times, dt)
    return 2.0 * np.abs(amplitudes)


def _hl_diagonal(model, rho0, times):
    """(times, phase, rate, z0) of the HL block's x = y diagonal, checked.

    phase = -i(m_H - m_L), rate = (coupling/2) (r_H - r_L)^2 sum_i G_i(x)^2
    (the HL diagonal of ``decoherence_rates``, in O(nc n)) and
    z0 = dx rho0^HL(x,x) from DensityBlocks or a pure GridState, so that
    z(t) = sum_x z0(x) e^{phase t} S(-rate(x) t) with S = exp (grid ME) or
    a Taylor polynomial of exp (Dyson).  The HH and LL diagonals do not
    decay, so p_same = 1/2 + Re z.  ``_checked_start`` checks the start.
    """
    times = _checked_start(rho0, times)
    r = model.mass_ratio
    rate = (0.5 * model.coupling * (r[IDX_H] - r[IDX_L]) ** 2
            * model.profile_square_sum())
    return (times, _phase_rates(model.hamiltonian)[IDX_H, IDX_L], rate,
            rho0.hl_diagonal())


def _interference_series(model, rho0, times, dt):
    """z(t) = sum_x z0(x) exp[(phase - rate(x)) t] per time (``_hl_diagonal``).

    Every entry evolves by its own exponential, so this costs O(nc n + n T).
    As for ``evolve_me_numeric``, every time must be a multiple of dt.
    """
    times, phase, rate, z0 = _hl_diagonal(model, rho0, times)
    steps = integer_steps(times, dt, max(dt, float(np.max(times, initial=dt))),
                          "every sample time must be an integer multiple of dt")
    return times, np.exp(np.multiply.outer(steps * dt, phase - rate)) @ z0


def _taylor_exp(x, order):
    """sum_{n<=order} x^n / n!, the order-k Taylor polynomial of exp, entrywise."""
    if order not in (0, 1, 2):
        raise ParameterError("unsupported expansion order %r (need 0, 1 or 2)" % (order,))
    series = np.ones_like(x)
    term = np.ones_like(x)
    for n in range(1, order + 1):
        term = term * x / n
        series = series + term
    return series


def dyson_flavor_probabilities(model, rho0, times, order):
    """Order-k Dyson flavor probabilities at the sample times.

    What ``dyson_expand`` followed by ``transition_probability(rho, "M0")``
    gives, read from the checked HL diagonal (``_hl_diagonal``) in
    O(nc n + n T): z(t) = e^{phase t} sum_x z0(x) T_k(-rate(x) t), with T_k
    the order-k Taylor polynomial of exp.  A truncation that overflows gives
    non-finite rows, which ``TransitionRecord.validate`` rejects.
    """
    times, phase, rate, z0 = _hl_diagonal(model, rho0, times)
    with np.errstate(over="ignore", invalid="ignore"):
        series = _taylor_exp(-np.multiply.outer(times, rate), order)   # (T, n)
        z = np.exp(phase * times) * (series @ z0)
    p_same = 0.5 + z.real
    return exact_record(times, p_same, 1.0 - p_same, source="dyson-%d" % order)


def dyson_expand(kernel, rho0, t, order):
    """Order-k truncation of the time-ordered interaction-picture expansion.

    The channel operators commute with the Hamiltonian, so the interaction
    picture leaves them time independent and the time ordering is trivial:
    the doubled-space generator acts entrywise as -rate, and the truncation
    is sum_{n<=k} (-rate * t)^n / n! followed by the free phase.
    """
    return _evolve(rho0, kernel.hamiltonian, kernel.rate, t,
                   series=lambda x: _taylor_exp(x, order))
