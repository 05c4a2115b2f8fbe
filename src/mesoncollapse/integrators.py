"""Trajectory-level time evolution and ensemble averaging.

Four drivers of the same physics: ``ito-nonlinear`` (the norm-preserving
collapse SDE), ``ito-linear`` (the linear SDE, pathwise unitary),
``stratonovich`` (its Stratonovich form) and ``wong-zakai`` (the ODE driven
by mollified noise).

H and every channel A_i are diagonal in the position (x) mass basis and
commute, so every kind is solved pathwise, not stepped.  The linear kinds
-- one SDE in two calculi -- share psi_t = psi_0 exp(-iHt + i sqrt(lam)
sum_i A_i W_i(t)); the mollified-noise ODE replaces W by W^eps(t) = int_0^t
Wdot^eps ds (Wong & Zakai, Ann. Math. Stat. 36, 1560 (1965)); the collapse
SDE is psi_t ~ psi_0 exp(-iHt + sqrt(lam) A.Y_t - lam A^2 t), normalized,
whose driving process Y is, by the linear/nonlinear correspondence (Bassi,
J. Phys. A 38, 3173 (2005)), a Brownian motion with one random drift,
Y_t = W_t + 2 sqrt(lam) A(xi) t, xi = (x, mu) drawn from |psi_0|^2
(Hughston, Proc. R. Soc. A 452, 953 (1996)).  ``run_ensemble`` draws each
kind's driving process -- W, W^eps or Y -- at the sample times only (W^eps
is linear in the Wiener increments, so it is Gaussian there too), so the
linear and collapse results do not depend on dt.  It builds no psi: each
trajectory's flavor and mass probabilities are sums over the grid of
exponentials of the real field sum_i w_i G_i(x), one formula for every
kind.  The one-step collapse formula
``step_ito_nonlinear``, ``step_ito_linear`` (Euler-Maruyama, norm-checked),
``step_stratonovich`` (Heun) and ``integrate_wong_zakai`` (RK4 on the
mollified-noise ODE) remain as references.  Chunks run one after another
in one process, and their moments merge in fixed chunk order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (IDX_H, IDX_L, GridState, InvariantViolationError,
                   ParameterError, flavor_to_mass, integer_steps)
from .master_eq import TransitionRecord, _taylor_exp
from .noise import (MAX_NOISE_BYTES, Mollifier, _require_resolved,
                    gaussian_factor, path_generator, window_integrals)

INTEGRATOR_KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")

# A trajectory's probability is a ratio of sums over the grid (N_mu and X of
# ``_run_chunk``), good to a few eps relative; values that spread less than
# this much about their mean differ by rounding only, and their variance
# reads 0.
_RESOLUTION = 32 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegratorSpec:
    """Scheme selection: kind, step, and kind-specific options."""

    kind: str
    dt: float
    mollifier: Mollifier = None

    def __post_init__(self):
        if self.kind not in INTEGRATOR_KINDS:
            raise ParameterError("unknown integrator kind %r (expected one of %s)"
                                 % (self.kind, list(INTEGRATOR_KINDS)))
        if not 0 < self.dt < np.inf:
            raise ParameterError("dt must be positive and finite, got %g" % self.dt)
        if (self.mollifier is not None) != (self.kind == "wong-zakai"):
            raise ParameterError(
                "a mollifier must be given exactly for kind='wong-zakai'")


def _mass_squares(model):
    """sum_i A_i^2 = s(x) r_mu^2, shape (n_points, 2)."""
    return np.multiply.outer(model.profile_square_sum(), model.mass_ratio ** 2)


def _unitary_exponent(model, t, w):
    """i (sqrt(lam) sum_i A_i w_i - H t): psi_t / psi_0 = exp of it for
    w = W(t) or W^eps(t), the step generator for (dt, dW), shape (..., n, 2)."""
    return 1j * (np.sqrt(model.coupling) * model.field(w)
                 - model.hamiltonian * t)


def _em_linear(amp, model, dW, dt):
    """One Euler-Maruyama step of the linear SDE (batched)."""
    drift = 0.5 * model.coupling * _mass_squares(model) * dt
    return amp * (1.0 + _unitary_exponent(model, dt, dW) - drift)


def step_ito_nonlinear(state, model, dW, dt):
    """Single step of the nonlinear (collapse) SDE, normalized:
    psi exp(-iH dt + sqrt(lam) A.dY - lam A^2 dt) with dY = dW + 2 sqrt(lam)
    <A>_psi dt.  Never fails the norm check of ``step_ito_linear``;
    ``run_ensemble`` samples the exact law at any t instead.

    The real log-weights log|psi|^2 + 2 sqrt(lam) A.dY - 2 lam A^2 dt are
    shifted by their maximum over the entries where psi != 0, and the others
    stay exactly 0: no 0/0, no overflow.
    """
    state.validate(tol=0.05)
    amp = state.amplitudes
    prob = amp.real ** 2 + amp.imag ** 2
    on = prob > 0
    mean_a = np.einsum("inm,nm->i", model.channels, prob) / prob.sum()
    root_lam = np.sqrt(model.coupling)
    dy = np.asarray(dW, dtype=float) + 2.0 * root_lam * dt * mean_a
    log_w = (np.log(prob[on]) + (2.0 * root_lam * model.field(dy)
             - 2.0 * root_lam ** 2 * dt * _mass_squares(model))[on])
    phase = np.broadcast_to(model.hamiltonian, amp.shape)[on] * dt
    new = np.zeros_like(amp)
    new[on] = amp[on] / np.sqrt(prob[on]) * np.exp(
        0.5 * (log_w - log_w.max()) - 1j * phase)
    return GridState(new, state.grid).normalized()


def step_ito_linear(state, model, dW, dt):
    """Single Euler-Maruyama step of the linear SDE.

    The scheme does not preserve the norm; a step that changes it by more
    than 10 % raises InvariantViolationError instead of blowing up silently.
    """
    state.validate(tol=0.05)
    amp = _em_linear(state.amplitudes, model, np.asarray(dW, dtype=float), dt)
    ratio = np.sqrt(np.sum(np.abs(amp) ** 2) * state.grid.spacing) / state.norm()
    if not abs(ratio - 1.0) <= 0.1:
        raise InvariantViolationError(
            "norm changed by a factor %g in one step; reduce dt" % ratio)
    return GridState(amp, state.grid)


def step_stratonovich(state, model, dW, dt):
    """Single Heun step of the Stratonovich SDE.

    For the commuting diagonal generator G = -iH dt + i sqrt(lam) A dW the
    predictor-corrector pair collapses to psi (1 + G + G^2/2), the order-2
    Taylor polynomial of exp that the Dyson series also truncates to.
    """
    state.validate(tol=0.05)
    g = _unitary_exponent(model, dt, dW)
    return GridState(state.amplitudes * _taylor_exp(g, 2), state.grid)


def _rk4_factorized(amp, m0, mh, m1, dt):
    """RK4 step for dz/dt = m(t) z with diagonal m sampled at (t, t+dt/2, t+dt)."""
    k1 = m0 * amp
    k2 = mh * (amp + 0.5 * dt * k1)
    k3 = mh * (amp + 0.5 * dt * k2)
    k4 = m1 * (amp + dt * k3)
    return amp + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_wong_zakai(state0, model, noise, t_grid):
    """RK4 integration of the mollified-noise ODE along ``t_grid``.

    Returns the trajectory as a list of GridState, one per grid time.  The
    grid must be uniform and resolve the mollifier (spacing <= eps/4).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ParameterError("t_grid must contain at least 2 times")
    steps = np.diff(t_grid)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ParameterError("t_grid must be uniformly spaced")
    _require_resolved(noise.mollifier, dt)
    n_steps = t_grid.size - 1
    eval_times = t_grid[0] + 0.5 * dt * np.arange(2 * n_steps + 1)
    # diagonal ODE generator -iH + i sqrt(lam) sum_i A_i Wdot_i per eval time
    gens = _unitary_exponent(model, 1.0, noise.value(eval_times))  # (n_eval, n, 2)
    amp = np.array(state0.amplitudes)
    states = [state0]
    for k in range(n_steps):
        amp = _rk4_factorized(amp, gens[2 * k], gens[2 * k + 1], gens[2 * k + 2], dt)
        states.append(GridState(amp, state0.grid))
    return states


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Streamed trajectory averages at the sample times.

    ``flavor_mean[:, 0]`` is P(M0), ``flavor_mean[:, 1]`` is P(M0bar);
    ``mass_mean`` the (H, L) populations.  Standard errors come from the
    across-trajectory variance.  All four come from one (T, 4) reduction
    over the columns [P(M0), P(M0bar), P(H), P(L)].
    """

    times: np.ndarray
    n_traj: int
    flavor_mean: np.ndarray
    flavor_stderr: np.ndarray
    mass_mean: np.ndarray
    mass_stderr: np.ndarray
    mass_var: np.ndarray

    def to_transition_record(self, kind):
        return TransitionRecord(
            times=self.times,
            p_same=self.flavor_mean[:, 0], p_other=self.flavor_mean[:, 1],
            stderr_same=self.flavor_stderr[:, 0],
            stderr_other=self.flavor_stderr[:, 1],
            source="ensemble-%s" % kind)


def _moments(p):
    """(n, mean, M2) of the rows of ``p``, M2 = sum (p - mean)^2 by two passes."""
    mean = p.sum(axis=0) / len(p)
    return len(p), mean, ((p - mean) ** 2).sum(axis=0)


def _merge_moments(a, b):
    """(n, mean, M2) of two pooled samples, by the pairwise update of Chan,
    Golub & LeVeque, Am. Stat. 37, 242 (1983): no sum of squares cancels."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    n = na + nb
    delta = mean_b - mean_a
    return (n, mean_a + delta * (nb / n),
            m2_a + m2_b + delta ** 2 * (na * nb / n))


def _mean_stderr(moments):
    """Mean, standard error of the mean and sample variance of (n, mean, M2)."""
    n, mean, m2 = moments
    var = m2 / max(n - 1, 1)
    var[var <= (_RESOLUTION * mean) ** 2] = 0.0
    return mean, np.sqrt(var / n), var


def _exact_path(model, spec, amp0, n_steps, steps, rngs):
    """Every kind's driving process at the sample steps ``steps`` only
    (distinct, ascending), in one (n_stops, B, nc) array, one (B, nc) row
    per step: W_t for ``ito-linear`` and ``stratonovich``, W^eps_t for
    ``wong-zakai``, Y_t for ``ito-nonlinear``.

    psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)) holds for the Ito
    and the Stratonovich form alike, and for the mollified-noise ODE with W
    replaced by W^eps, since H and every A_i are diagonal and commute.  The
    linear and collapse kinds draw W(t_s) - W(t_{s-1}) ~ N(0, (t_s - t_{s-1}) I)
    directly, one normal per channel and segment between sample steps, so
    their result does not depend on dt.  Wong-Zakai's W^eps(t) = sum_k dW_k
    [F(t - t_k) - F(-t_k)], F the mollifier's CDF and t_k the midpoint of
    base step k, is linear in the base-step increments a stepping scheme
    would draw, so W^eps at the sample steps is Gaussian with covariance
    dt w w^T, w the weights from ``window_integrals``: each trajectory draws
    one normal per channel and sample step and maps them through the
    ``gaussian_factor`` L of that covariance, W^eps = L z.

    The collapse kind first draws one uniform, which picks xi by inverse
    CDF from the cumulative |psi_0|^2 over the entries where psi_0 != 0.
    Y_t = W_t + 2 sqrt(lam) A(xi) t then has the density sum_xi p_0(xi)
    exp(2 sqrt(lam) A(xi).Y_t - 2 lam A(xi)^2 t) against Wiener measure: the
    collapse measure, drawn directly, with no weights and no time steps.
    """
    nc, dt = model.n_channels, spec.dt
    w = np.empty((len(steps), len(rngs), nc))              # (n_stops, B, nc)
    if spec.kind == "ito-nonlinear":
        prob = (amp0.real ** 2 + amp0.imag ** 2).reshape(-1)
        on = np.flatnonzero(prob)
        cum = np.cumsum(prob[on])
        u = np.array([rng.random() for rng in rngs])
        pick = on[np.searchsorted(cum, u * cum[-1], side="right")]
    if spec.kind == "wong-zakai":
        _, weights = window_integrals(spec.mollifier, dt * np.array(steps),
                                      n_steps * dt, dt)
        factor = gaussian_factor(weights, dt)
        for b, rng in enumerate(rngs):
            w[:, b] = factor @ rng.standard_normal((len(steps), nc))
    else:
        seg_sd = np.sqrt(dt * np.diff([0] + steps))[:, None]
        for b, rng in enumerate(rngs):
            w[:, b] = seg_sd * rng.standard_normal((len(steps), nc))
        np.cumsum(w, axis=0, out=w)
    if spec.kind == "ito-nonlinear":                       # W becomes Y
        # A_i(xi) = G_i(x) r_mu for the picked entry xi = (x, mu)
        a_xi = (model.profile[:, pick // 2] * model.mass_ratio[pick % 2]).T
        for w_t, t in zip(w, dt * np.array(steps)):
            w_t += 2.0 * np.sqrt(model.coupling) * t * a_xi
    return w


def _run_chunk(model, spec, amp0, n_steps, steps, seed, indices):
    """(n, mean, M2) of one batch's observables, (U, 4) each, one row per
    distinct sample step in ``steps``, from the trajectories' own Philox
    streams.

    No state is built.  Each trajectory's [P(M0), P(M0bar), P(H), P(L)]
    is reduced from the real field f = w_t G, shape (B, n), of its driving
    process w_t, through the mass log-weights l_mu(x) = log|psi_t(x, mu)|^2
    and the HL phase phi(x):
    - l_mu = log|psi_0(x, mu)|^2, and for the collapse kind + 2 sqrt(lam)
      r_mu f - 2 lam r_mu^2 s(x) t, shifted by its maximum over the entries
      where psi_0 != 0 (the others are -inf and weigh exactly 0);
    - phi = sqrt(lam) (r_H - r_L) f for the linear kinds, 0 for collapse;
    - N_mu = sum_x e^l_mu and X = sum_x u(x) e^{(l_H + l_L)/2 + i phi},
      u the phase of psi_0H conj(psi_0L) (0 where that product is 0);
    - P(F) = (|F_H|^2 N_H + |F_L|^2 N_L + 2 Re(e^{-i dm t} conj(F_H) F_L X))
      / (N_H + N_L) for a flavor F = (F_H, F_L), and P(mu) = N_mu / (N_H + N_L).
    For the linear kinds N_mu is a constant of the chunk, and a time step
    costs one (B, n) complex exponential and one (B, n) (n,) product.
    """
    rngs = [path_generator(seed, traj) for traj in indices]
    paths = _exact_path(model, spec, amp0, n_steps, steps, rngs)
    root_lam, r = np.sqrt(model.coupling), model.mass_ratio
    with np.errstate(divide="ignore"):                     # -inf off the support
        log_p = np.log(amp0.real ** 2 + amp0.imag ** 2).T[:, None]   # (2, 1, n)
    hl = amp0[:, IDX_H] * np.conj(amp0[:, IDX_L])
    u = np.divide(hl, np.abs(hl), out=np.zeros_like(hl), where=hl != 0)
    flavors = np.array([flavor_to_mass(f) for f in ("M0", "M0bar")])  # (2, 2)
    cross = np.conj(flavors[:, IDX_H]) * flavors[:, IDX_L]
    dm = model.hamiltonian[IDX_H] - model.hamiltonian[IDX_L]
    log_w = log_p                          # the linear kinds' l_mu at every time
    collapse = spec.kind == "ito-nonlinear"
    if collapse:
        drift = 2.0 * root_lam * r[:, None, None]
        damp = np.multiply.outer(r ** 2, model.profile_square_sum())[:, None]
    mean = np.zeros((len(steps), 4))
    m2 = np.zeros_like(mean)
    p = np.empty((len(indices), 4))
    for row, (t, w_t) in enumerate(zip(spec.dt * np.array(steps), paths)):
        f = w_t @ model.profile                            # (B, n)
        if collapse:
            log_w = drift * f                              # (2, B, n)
            log_w += log_p
            log_w -= (2.0 * root_lam ** 2 * t) * damp
            log_w -= log_w.max(axis=(0, 2), keepdims=True)
            z = 0.5 * (log_w[IDX_H] + log_w[IDX_L])       # phi = 0
        else:
            z = np.empty(f.shape, complex)                 # (l_H + l_L)/2 + i phi
            z.real = 0.5 * (log_w[IDX_H] + log_w[IDX_L])
            z.imag = root_lam * (r[IDX_H] - r[IDX_L]) * f
        x = np.exp(z, out=z) @ u                           # (B,)
        n_mu = np.exp(log_w).sum(axis=-1)                  # (2, B) or (2, 1)
        total = n_mu[IDX_H] + n_mu[IDX_L]
        flavor = (np.abs(flavors) ** 2 @ n_mu
                  + 2.0 * (cross[:, None] * np.exp(-1j * dm * t) * x).real)
        p[:, :2] = (flavor / total).T
        p[:, 2:] = (n_mu / total).T
        _, mean[row], m2[row] = _moments(p)
    return len(indices), mean, m2


def run_ensemble(model, spec, initial, t_max, n_traj, seed, sample_times):
    """Stream ``n_traj`` trajectories and accumulate their observables.

    Each chunk of trajectories reduces to one (n, mean, M2) triple over
    [P(M0), P(M0bar), P(H), P(L)] at the sample times.  Per-trajectory
    noise streams are derived from (seed, trajectory index) with a
    counter-based generator, and the chunks' moments are merged in fixed
    chunk order, so the result is bit-reproducible.  Every chunk runs on
    ``model`` itself, in this process.  The chunk size, and so the
    reduction order, is fixed by what a trajectory draws and holds: as many
    trajectories as fit in ``noise.MAX_NOISE_BYTES``, 1 to 2500, whatever
    dt.
    """
    if n_traj < 1:
        raise ParameterError("n_traj must be >= 1, got %d" % n_traj)
    if spec.kind == "wong-zakai":
        _require_resolved(spec.mollifier, spec.dt)
    initial.validate(tol=0.05)
    message = "t_max=%g is not an integer number of steps dt=%g" % (t_max, spec.dt)
    n_steps = int(integer_steps(t_max, spec.dt, t_max, message))
    if n_steps < 1:
        raise ParameterError(message)
    sample_times = np.asarray(sample_times, dtype=float)
    sample_steps = integer_steps(sample_times, spec.dt, max(t_max, spec.dt),
                                 "sample times must be integer multiples of dt")
    if np.any((sample_steps < 0) | (sample_steps > n_steps)):
        raise ParameterError("sample times must lie in [0, t_max]")

    # distinct steps from a set: np.unique imports numpy.ma on its first call
    steps = sorted(set(sample_steps.tolist()))
    if spec.kind == "ito-nonlinear":
        # the collapse log-weights' coefficient -2 lam t, formed as
        # ``_run_chunk`` forms it, at the last sample time
        t = spec.dt * max(steps, default=0)
        with np.errstate(over="ignore"):                  # rejected at once
            coefficient = 2.0 * np.sqrt(model.coupling) ** 2 * t
        if not np.isfinite(coefficient):
            raise ParameterError("the damping exponent at t=%g overflows" % t)
    # what one trajectory draws and holds fixes the chunk boundaries, and so
    # the reduction order: n_channels normals per sample time, and at most
    # 32 bytes per grid point at one sample time -- its field row with two
    # log-weight rows (collapse) or one complex exponential row
    per_traj = 8 * len(steps) * model.n_channels + 16 * initial.amplitudes.size
    batch_size = int(np.clip(MAX_NOISE_BYTES // per_traj, 1, 2500))
    edges = list(range(0, n_traj, batch_size)) + [n_traj]
    partials = [_run_chunk(model, spec, initial.amplitudes, n_steps, steps,
                           int(seed), range(a, b))
                for a, b in zip(edges[:-1], edges[1:])]
    rows = np.searchsorted(steps, sample_steps)       # a time may repeat
    mean, stderr, var = (a[rows] for a in _mean_stderr(
        functools.reduce(_merge_moments, partials)))
    return EnsembleResult(times=sample_times, n_traj=n_traj,
                          flavor_mean=mean[:, :2], flavor_stderr=stderr[:, :2],
                          mass_mean=mean[:, 2:], mass_stderr=stderr[:, 2:],
                          mass_var=var[:, 2:])
