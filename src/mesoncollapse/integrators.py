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
(Hughston, Proc. R. Soc. A 452, 953 (1996)).  ``run_ensemble`` evaluates
these solutions at the sample times only, from Gaussian W or W^eps drawn
there (W^eps is linear in the Wiener increments), so the linear and
collapse results do not depend on dt.  The one-step collapse formula
``step_ito_nonlinear``, ``step_ito_linear`` (Euler-Maruyama, norm-checked),
``step_stratonovich`` (Heun) and ``integrate_wong_zakai`` (RK4 on the
mollified-noise ODE) remain as references.  Chunks run one after another
in one process, and their moments merge in fixed chunk order.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .core import (GridState, NormDivergenceError, ParameterError,
                   flavor_to_mass, integer_steps)
from .master_eq import TransitionRecord
from .noise import (MAX_NOISE_BYTES, Mollifier, _require_resolved,
                    gaussian_factor, path_generator, window_integrals)

INTEGRATOR_KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")

# A trajectory's probability is a ratio of two pairwise sums over the grid,
# good to O(log2(n) eps) relative; values that spread less than this much
# about their mean differ by rounding only, and their variance reads 0.
_RESOLUTION = 32 * np.finfo(float).eps

# <M0| and <M0bar| in the mass basis, shape (2 outcomes, 2 mass)
_FLAVOR_PROJECTORS = np.conj([flavor_to_mass(f) for f in ("M0", "M0bar")])


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
    return 1j * (np.sqrt(model.effective_coupling) * model.field(w)
                 - model.hamiltonian * t)


def _em_linear(amp, model, dW, dt):
    """One Euler-Maruyama step of the linear SDE (batched)."""
    drift = 0.5 * model.effective_coupling * _mass_squares(model) * dt
    return amp * (1.0 + _unitary_exponent(model, dt, dW) - drift)


def _collapse_states(model, amp0, y, times):
    """psi_0 exp(-iHt + sqrt(lam) A.Y_t - lam A^2 t) up to normalization: one
    (B, n, 2) batch per time t, for Y_t of shape (B, nc) from ``y``.

    The real log-weights are shifted by their maximum over the entries
    where psi_0 != 0, and the others stay exactly 0: no 0/0, no overflow.
    """
    nc = model.n_channels
    root_lam = np.sqrt(model.effective_coupling)
    flat = amp0.reshape(-1)
    prob = flat.real ** 2 + flat.imag ** 2
    on = prob > 0
    unit = flat[on] / np.sqrt(prob[on])
    h = np.broadcast_to(model.hamiltonian, amp0.shape).reshape(-1)[on]
    basis = np.vstack([model.channels.reshape(nc, -1)[:, on],
                       _mass_squares(model).reshape(-1)[on],
                       np.log(prob[on])]).T              # (support, nc + 2)
    for t, y_t in zip(times, y):
        coef = np.ones((nc + 2, len(y_t)))               # [2 sqrt(lam) Y; -2 lam t; 1]
        coef[:nc] = 2.0 * root_lam * y_t.T
        coef[nc] = -2.0 * root_lam ** 2 * t
        log_w = basis @ coef                             # (support, B)
        log_w -= log_w.max(axis=0)
        amp = np.zeros((len(y_t), flat.size), dtype=complex)
        amp[:, on] = unit * np.exp(0.5 * log_w.T - 1j * t * h)
        yield amp.reshape((-1,) + amp0.shape)


def step_ito_nonlinear(state, model, dW, dt):
    """Single step of the nonlinear (collapse) SDE, normalized:
    psi exp(-iH dt + sqrt(lam) A.dY - lam A^2 dt) with dY = dW + 2 sqrt(lam)
    <A>_psi dt.  Never raises NormDivergenceError; ``run_ensemble`` samples
    the exact law at any t instead.
    """
    state.validate(tol=0.05)
    prob = np.abs(state.amplitudes) ** 2
    mean_a = np.einsum("inm,nm->i", model.channels, prob) / prob.sum()
    dy = (np.asarray(dW, dtype=float)
          + 2.0 * np.sqrt(model.effective_coupling) * dt * mean_a)
    amp, = _collapse_states(model, state.amplitudes, dy.reshape(1, 1, -1), [dt])
    return GridState(amp[0], state.grid).normalized()


def step_ito_linear(state, model, dW, dt):
    """Single Euler-Maruyama step of the linear SDE.

    The scheme does not preserve the norm; a step that changes it by more
    than 10 % raises NormDivergenceError instead of blowing up silently.
    """
    state.validate(tol=0.05)
    amp = _em_linear(state.amplitudes, model, np.asarray(dW, dtype=float), dt)
    ratio = np.sqrt(np.sum(np.abs(amp) ** 2) * state.grid.spacing) / state.norm()
    if not abs(ratio - 1.0) <= 0.1:
        raise NormDivergenceError(
            "norm changed by a factor %g in one step; reduce dt" % ratio)
    return GridState(amp, state.grid)


def step_stratonovich(state, model, dW, dt):
    """Single Heun step of the Stratonovich SDE.

    For the commuting diagonal generator G = -iH dt + i sqrt(lam) A dW the
    predictor-corrector pair collapses to psi (1 + G + G^2/2).
    """
    state.validate(tol=0.05)
    g = _unitary_exponent(model, dt, dW)
    return GridState(state.amplitudes * (1.0 + g + 0.5 * g * g), state.grid)


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


@dataclass(frozen=True)
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


def _observables(amp, spacing):
    """[P(M0), P(M0bar), P(H), P(L)] of each trajectory in the batch, (B, 4)."""
    norm2 = np.sum(np.abs(amp) ** 2, axis=(-2, -1)) * spacing      # (B,)
    overlap = np.einsum("om,bnm->bon", _FLAVOR_PROJECTORS, amp, optimize=True)  # (B, 2, n)
    p_flavor = np.sum(np.abs(overlap) ** 2, axis=-1) * spacing
    p_mass = np.sum(np.abs(amp) ** 2, axis=-2) * spacing
    return np.hstack([p_flavor, p_mass]) / norm2[:, None]


def _mean_stderr(moments):
    """Mean, standard error of the mean and sample variance of (n, mean, M2)."""
    n, mean, m2 = moments
    var = m2 / max(n - 1, 1)
    var[var <= (_RESOLUTION * mean) ** 2] = 0.0
    return mean, np.sqrt(var / n), var


def _exact_path(model, spec, amp0, n_steps, steps, rngs):
    """Every kind, solved pathwise at the sample steps ``steps`` only
    (distinct, ascending): yields the psi batch at each, in order.

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
        w = np.stack([factor @ rng.standard_normal((len(steps), nc))
                      for rng in rngs], axis=1)          # (n_stops, B, nc)
    else:
        seg_sd = np.sqrt(dt * np.diff([0] + steps))[:, None]
        w = np.cumsum(np.stack([rng.normal(0.0, seg_sd, (len(steps), nc))
                                for rng in rngs], axis=1), axis=0)  # (n_stops, B, nc)
    if spec.kind == "ito-nonlinear":
        times = dt * np.array(steps)
        a_xi = model.channels.reshape(nc, -1)[:, pick].T          # (B, nc)
        for w_t, t in zip(w, times):                              # W becomes Y
            w_t += 2.0 * np.sqrt(model.effective_coupling) * t * a_xi
        yield from _collapse_states(model, amp0, w, times)
        return
    for step, w_t in zip(steps, w):
        yield amp0 * np.exp(_unitary_exponent(model, step * dt, w_t))


def _run_chunk(model, spec, amp0, n_steps, steps, seed, indices):
    """(n, mean, M2) of one batch's observables, (U, 4) each, one row per
    distinct sample step in ``steps``, from the trajectories' own Philox
    streams.
    """
    mean = np.zeros((len(steps), 4))
    m2 = np.zeros_like(mean)
    rngs = [path_generator(seed, traj) for traj in indices]
    paths = _exact_path(model, spec, amp0, n_steps, steps, rngs)
    for row, amp in enumerate(paths):
        _, mean[row], m2[row] = _moments(_observables(amp, model.grid.spacing))
    return len(indices), mean, m2


def run_ensemble(model, spec, initial, t_max, n_traj, seed,
                 sample_times=None, n_samples=10, batch_size=None):
    """Stream ``n_traj`` trajectories and accumulate their observables.

    Each chunk of trajectories reduces to one (n, mean, M2) triple over
    [P(M0), P(M0bar), P(H), P(L)] at the sample times.  Per-trajectory
    noise streams are derived from (seed, trajectory index) with a
    counter-based generator, and the chunks' moments are merged in fixed
    chunk order, so the result is bit-reproducible.  Every chunk runs on
    ``model`` itself, in this process; the chunk size comes from its
    n_channels normals per sample time and the amplitude row, not from dt.
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
    if sample_times is None:
        sample_times = t_max * np.arange(1, n_samples + 1) / n_samples
    sample_times = np.asarray(sample_times, dtype=float)
    sample_steps = integer_steps(sample_times, spec.dt, max(t_max, spec.dt),
                                 "sample times must be integer multiples of dt")
    if np.any((sample_steps < 0) | (sample_steps > n_steps)):
        raise ParameterError("sample times must lie in [0, t_max]")

    # distinct steps from a set: np.unique imports numpy.ma on its first call
    steps = sorted(set(sample_steps.tolist()))
    if batch_size is None:
        # what one trajectory draws and holds fixes the chunk boundaries, and
        # so the reduction order: n_channels normals per sample time and one
        # complex amplitude row
        per_traj = (8 * len(steps) * model.n_channels
                    + 16 * initial.amplitudes.size)
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
