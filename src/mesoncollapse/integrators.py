"""Trajectory-level time evolution and ensemble averaging.

Four drivers of the same physics: ``ito-nonlinear`` (the norm-preserving
collapse SDE), ``ito-linear`` (the linear SDE, pathwise unitary),
``stratonovich`` (its Stratonovich form) and ``wong-zakai`` (the ODE driven
by mollified noise).

H and every channel A_i are diagonal in the position (x) mass basis and
commute.  So the two linear kinds -- one SDE in two calculi -- share the
exact solution psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)), the
mollified-noise ODE has the same solution with W replaced by the mollified
path W^eps(t) = int_0^t Wdot^eps ds (Wong & Zakai, Ann. Math. Stat. 36, 1560
(1965)), and by the linear/nonlinear (Girsanov) correspondence (Bassi,
J. Phys. A 38, 3173 (2005)) the collapse SDE is psi_t ~ psi_0 exp(-iHt +
sqrt(lam) A.Y_t - lam A^2 t), normalized, with dY = dW + 2 sqrt(lam) <A>_t dt.
``run_ensemble`` evaluates the linear and mollified solutions at the sample
times, the linear ones from one normal per channel and sample segment and
so independent of dt; for the collapse kind it steps only Y (one real per
channel and trajectory) and builds psi at the sample times, normalized by
construction, so it never raises NormDivergenceError.  ``step_ito_nonlinear``
is that scheme's one-step form; ``step_ito_linear`` (Euler-Maruyama,
norm-checked), ``step_stratonovich`` (Heun) and ``integrate_wong_zakai`` (RK4
on the mollified-noise ODE) remain as references.  Reductions run in fixed chunk
order, so results do not depend on the worker count.

The noise enters every one of these laws only through its covariance
sum_i A_i A_i, i.e. G^T G for the profile G.  So ``run_ensemble`` runs on
``model.reduced()``: the r <= n_channels rows S_r V_r^T of G = U S V^T with
s_k > sqrt(eps) s_1, whose Gram matrix is G^T G to eps ||G^T G||, and the
rotated increments U_r^T dW are again independent Wiener increments.  Each
draw takes r normals instead of n_channels (34 of 96 on a 96-point CSL grid
with rC = 6 grid spacings) from the same law; QMUPL (rank 1) is unchanged.
"""

import functools
import os
from dataclasses import dataclass

import numpy as np

from .core import (GridState, NormDivergenceError, ParameterError,
                   flavor_to_mass, integer_steps)
from .master_eq import TransitionRecord
from .noise import (MAX_NOISE_BYTES, Mollifier, UnderResolvedKernelError,
                    _normal, path_generator, window_integrals)

INTEGRATOR_KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")

WORKERS_ENV = "MESONCOLLAPSE_WORKERS"

# steps per increment draw of the collapse kind
_BLOCK_STEPS = 256

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


def _collapse_path(model, amp0, n_batch, dws, dt, stops):
    """Yield (step, psi up to normalization) for each step in ``stops``.

    Y_0 = 0 takes Euler-Maruyama steps dY = dW + 2 sqrt(lam) <A>_t dt, the
    iterator ``dws`` giving each step's dW of shape (n_batch, nc), with
    <A>_t weighted by |psi_t|^2 = |psi_0|^2
    exp(2 sqrt(lam) A.Y - 2 lam A^2 t).  Entries where psi_0 = 0 drop out and
    the log-weights are shifted by their maximum: no 0/0, no overflow.
    """
    nc = model.n_channels
    lam = model.effective_coupling
    root_lam = np.sqrt(lam)
    flat = amp0.reshape(-1)
    prob = flat.real ** 2 + flat.imag ** 2
    on = prob > 0
    unit = flat[on] / np.sqrt(prob[on])
    h = np.broadcast_to(model.hamiltonian, amp0.shape).reshape(-1)[on]
    channels = model.channels
    a1 = np.vstack([channels.reshape(nc, -1)[:, on],
                    np.ones(unit.size)])                 # rows [A_i; 1]
    basis = np.vstack([a1[:nc], np.sum(channels ** 2, axis=0).reshape(-1)[on],
                       np.log(prob[on])]).T              # (support, nc + 2)
    coef = np.zeros((nc + 2, n_batch))                   # [2 sqrt(lam) Y; t; 1]
    coef[-1] = 1.0
    for k in range(max(stops, default=0) + 1):
        if k > 0:
            np.exp(log_w, out=log_w)
            m = a1 @ log_w                               # [sum w A_i; sum w]
            coef[:nc] += 2.0 * root_lam * (next(dws).T
                                           + 2.0 * root_lam * dt * m[:nc] / m[nc])
        coef[-2] = -2.0 * lam * k * dt
        log_w = basis @ coef                             # (support, B)
        log_w -= log_w.max(axis=0)
        if k in stops:
            amp = np.zeros((n_batch, flat.size), dtype=complex)
            amp[:, on] = unit * np.exp(0.5 * log_w.T - 1j * k * dt * h)
            yield k, amp.reshape((-1,) + amp0.shape)


def _em_linear(amp, model, dW, dt):
    """One Euler-Maruyama step of the linear SDE (batched)."""
    h = model.hamiltonian
    lam = model.effective_coupling
    s2 = np.multiply.outer(model.profile_square_sum(), model.mass_ratio ** 2)
    return amp * (1.0 - 1j * h * dt - 0.5 * lam * s2 * dt
                  + 1j * np.sqrt(lam) * model.field(dW))


def step_ito_nonlinear(state, model, dW, dt):
    """Single step of the nonlinear (collapse) SDE on its driving process.

    psi <- psi exp(-iH dt + sqrt(lam) A dY - lam A^2 dt), normalized, with
    dY = dW + 2 sqrt(lam) <A>_psi dt: the one-step form of ``run_ensemble``'s
    scheme, so iterating it reproduces one trajectory.  Never raises
    NormDivergenceError.
    """
    state.validate(tol=0.05)
    dw = np.asarray(dW, dtype=float).reshape(1, -1)
    (_, amp), = _collapse_path(model, state.amplitudes, 1, iter([dw]), dt, {1})
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
    g = (-1j * model.hamiltonian * dt
         + 1j * np.sqrt(model.effective_coupling) * model.field(dW))
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
    eps = noise.mollifier.eps
    if dt > eps / 4.0 + 1e-12 * eps:
        raise UnderResolvedKernelError(
            "t_grid spacing %g exceeds eps/4 = %g" % (dt, eps / 4.0))
    n_steps = t_grid.size - 1
    eval_times = t_grid[0] + 0.5 * dt * np.arange(2 * n_steps + 1)
    # diagonal ODE generator -iH + i sqrt(lam) sum_i A_i Wdot_i per eval time
    gens = (-1j * model.hamiltonian + 1j * np.sqrt(model.effective_coupling)
            * model.field(noise.value(eval_times)))      # (n_eval, n, 2)
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


def _increments(rngs, n_steps, nc, dt):
    """The next ``n_steps`` increments of each Philox stream, (B, n_steps, nc)."""
    dw = np.empty((len(rngs), n_steps, nc))
    for j, rng in enumerate(rngs):
        rng.standard_normal(out=dw[j])
    dw *= np.sqrt(dt)
    return dw


def _sample_slots(sample_steps):
    """Sample step -> every output slot it fills (a time may repeat)."""
    steps = np.asarray(sample_steps)
    return {int(s): np.flatnonzero(steps == s) for s in np.unique(steps)}


def _nonlinear_path(model, spec, amp0, n_steps, stops, rngs):
    """Collapse SDE on its driving process: one real per channel and trajectory.

    Increments are drawn _BLOCK_STEPS steps at a time; consecutive draws
    from one Philox stream equal one large draw bit for bit.
    """
    blocks = (_increments(rngs, min(_BLOCK_STEPS, n_steps - start),
                          model.n_channels, spec.dt)
              for start in range(0, n_steps, _BLOCK_STEPS))
    dws = (block[:, j] for block in blocks for j in range(block.shape[1]))
    return _collapse_path(model, amp0, len(rngs), dws, spec.dt, stops)


def _exact_path(model, spec, amp0, n_steps, stops, rngs):
    """Linear kinds and Wong-Zakai, solved pathwise at the sample steps only.

    psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)) holds for the Ito
    and the Stratonovich form alike, and for the mollified-noise ODE with W
    replaced by W^eps, since H and every A_i are diagonal and commute.  The
    linear kinds draw W(t_s) - W(t_{s-1}) ~ N(0, (t_s - t_{s-1}) I) directly,
    one normal per channel and segment between sample steps, so their
    result does not depend on dt.  Wong-Zakai draws the base-step
    increments a stepping scheme would and maps them to every sample step
    with one weight matrix from ``window_integrals``, W^eps(t) = sum_k dW_k
    [F(t - t_k) - F(-t_k)], F the mollifier's CDF and t_k the midpoint of
    base step k.
    """
    nc, dt = model.n_channels, spec.dt
    order = sorted(stops)
    if spec.kind == "wong-zakai":
        t_mid, weights = window_integrals(spec.mollifier, dt * np.array(order),
                                          n_steps * dt, dt)
        w = np.stack([weights @ _normal(rng, np.sqrt(dt), (t_mid.size, nc))
                      for rng in rngs], axis=1)          # (n_stops, B, nc)
    else:
        seg_sd = np.sqrt(dt * np.diff([0] + order))[:, None]
        w = np.cumsum(np.stack([_normal(rng, seg_sd, (len(order), nc))
                                for rng in rngs], axis=1), axis=0)  # (n_stops, B, nc)
    root_lam = np.sqrt(model.effective_coupling)
    for stop, w_t in zip(order, w):
        phase = root_lam * model.field(w_t) - model.hamiltonian * (stop * dt)
        yield stop, amp0 * np.exp(1j * phase)


_PATHS = {"ito-nonlinear": _nonlinear_path, "ito-linear": _exact_path,
          "stratonovich": _exact_path, "wong-zakai": _exact_path}


def _run_chunk(model, spec, amp0, n_steps, sample_steps, seed, indices):
    """(n, mean, M2) of one batch's observables, (T, 4) each, at the sample steps.

    The kind's path generator yields (step, psi batch) at each sample step
    from the trajectories' own Philox streams.
    """
    mean = np.zeros((len(sample_steps), 4))
    m2 = np.zeros_like(mean)
    slots = _sample_slots(sample_steps)
    rngs = [path_generator(seed, traj) for traj in indices]
    for k, amp in _PATHS[spec.kind](model, spec, amp0, n_steps, slots, rngs):
        _, mean[slots[k]], m2[slots[k]] = _moments(_observables(amp, model.grid.spacing))
    return len(indices), mean, m2


def resolve_workers(n_workers=None):
    """Worker count: ``n_workers``, else $MESONCOLLAPSE_WORKERS, else every core."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError("%s must be an integer, got %r"
                                 % (WORKERS_ENV, env)) from None
    return os.cpu_count() or 1


def run_ensemble(model, spec, initial, t_max, n_traj, seed,
                 sample_times=None, n_samples=10, n_workers=None,
                 batch_size=None):
    """Stream ``n_traj`` trajectories and accumulate their observables.

    Each chunk of trajectories reduces to one (n, mean, M2) triple over
    [P(M0), P(M0bar), P(H), P(L)] at the sample times.  Per-trajectory
    noise streams are derived from (seed, trajectory index) with a
    counter-based generator, and the chunks' moments are merged in fixed
    chunk order, so the result is bit-reproducible and independent of the
    worker count, ``resolve_workers(n_workers)``.  The chunk size comes from
    the caller's model; the chunks then run on ``model.reduced()`` and draw
    r <= n_channels normals per step, of the same law.
    """
    if n_traj < 1:
        raise ParameterError("n_traj must be >= 1, got %d" % n_traj)
    if spec.kind == "wong-zakai" and spec.dt > spec.mollifier.eps / 4.0:
        raise UnderResolvedKernelError(
            "dt %g exceeds eps/4 = %g" % (spec.dt, spec.mollifier.eps / 4.0))
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

    if batch_size is None:
        per_traj = n_steps * model.n_channels * 8
        # fixes the chunk boundaries and so the reduction order; every kind
        # holds less noise at a time than a full (batch, n_steps, nc) array
        batch_size = int(np.clip(MAX_NOISE_BYTES // max(per_traj, 1), 1, 2500))
    edges = list(range(0, n_traj, batch_size)) + [n_traj]
    model = model.reduced()
    tasks = [(model, spec, initial.amplitudes, n_steps, tuple(sample_steps),
              int(seed), range(a, b))
             for a, b in zip(edges[:-1], edges[1:])]
    workers = resolve_workers(n_workers)
    if workers > 1 and len(tasks) > 1:
        # imported here: the pool pulls in multiprocessing, socket and
        # subprocess, which no single-chunk or single-worker run needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as ex:
            partials = list(ex.map(_run_chunk, *zip(*tasks)))
    else:
        partials = [_run_chunk(*t) for t in tasks]

    mean, stderr, var = _mean_stderr(functools.reduce(_merge_moments, partials))
    return EnsembleResult(times=sample_times, n_traj=n_traj,
                          flavor_mean=mean[:, :2], flavor_stderr=stderr[:, :2],
                          mass_mean=mean[:, 2:], mass_stderr=stderr[:, 2:],
                          mass_var=var[:, 2:])
