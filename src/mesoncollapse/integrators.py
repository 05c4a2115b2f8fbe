"""Trajectory-level time evolution and ensemble averaging.

Four drivers of the same physics: ``ito-nonlinear`` (the norm-preserving
collapse SDE), ``ito-linear`` (the linear SDE, pathwise unitary),
``stratonovich`` (its Stratonovich form) and ``wong-zakai`` (RK4 on the ODE
driven by mollified noise).

H and every channel A_i are diagonal in the position (x) mass basis and
commute.  So the two linear kinds -- one SDE in two calculi -- share the
exact solution psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)), and
by the linear/nonlinear (Girsanov) correspondence (Bassi, J. Phys. A 38,
3173 (2005)) the collapse SDE is psi_t ~ psi_0 exp(-iHt + sqrt(lam) A.Y_t
- lam A^2 t), normalized, with dY = dW + 2 sqrt(lam) <A>_t dt.
``run_ensemble`` evaluates the linear solution at the sample times; for the
collapse kind it steps only Y (nc reals per trajectory) and builds psi at
the sample times, normalized by construction, so it never raises
NormDivergenceError.  ``step_ito_nonlinear`` is that scheme's one-step
form; ``step_ito_linear`` (Euler-Maruyama, norm-checked) and
``step_stratonovich`` (Heun) remain as single-step references.  Reductions
run in fixed chunk order, so results do not depend on the worker count.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (DensityBlocks, GridState, InvariantViolationError,
                   NormDivergenceError, ParameterError, flavor_to_mass)
from .master_eq import TransitionRecord
from .noise import Mollifier, UnderResolvedKernelError, path_generator

INTEGRATOR_KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")

WORKERS_ENV = "MESONCOLLAPSE_WORKERS"

# largest per-chunk noise buffer, used to size trajectory batches
_MAX_NOISE_BYTES = 64 * 2 ** 20

# <M0| and <M0bar| in the mass basis, shape (2 outcomes, 2 mass)
_FLAVOR_PROJECTORS = np.conj([[v.cH, v.cL]
                              for v in map(flavor_to_mass, ("M0", "M0bar"))])


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


def _collapse_path(model, amp0, dw, dt, stops):
    """Yield (step, psi up to normalization) for each step in ``stops``.

    Y_0 = 0 takes Euler-Maruyama steps dY = dW + 2 sqrt(lam) <A>_t dt, dw of
    shape (B, steps, nc), with <A>_t weighted by |psi_t|^2 = |psi_0|^2
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
    a1 = np.vstack([model.channels.reshape(nc, -1)[:, on],
                    np.ones(unit.size)])                 # rows [A_i; 1]
    basis = np.vstack([a1[:nc], model.channel_square_sum().reshape(-1)[on],
                       np.log(prob[on])]).T              # (support, nc + 2)
    coef = np.zeros((nc + 2, dw.shape[0]))               # [2 sqrt(lam) Y; t; 1]
    coef[-1] = 1.0
    for k in range(max(stops, default=0) + 1):
        if k > 0:
            np.exp(log_w, out=log_w)
            m = a1 @ log_w                               # [sum w A_i; sum w]
            coef[:nc] += 2.0 * root_lam * (dw[:, k - 1].T
                                           + 2.0 * root_lam * dt * m[:nc] / m[nc])
        coef[-2] = -2.0 * lam * k * dt
        log_w = basis @ coef                             # (support, B)
        log_w -= log_w.max(axis=0)
        if k in stops:
            amp = np.zeros((dw.shape[0], flat.size), dtype=complex)
            amp[:, on] = unit * np.exp(0.5 * log_w.T - 1j * k * dt * h)
            yield k, amp.reshape((-1,) + amp0.shape)


def _em_linear(amp, model, dW, dt):
    """One Euler-Maruyama step of the linear SDE (batched)."""
    h = model.hamiltonian
    lam = model.effective_coupling
    s2 = model.channel_square_sum()
    field = np.einsum("...i,inm->...nm", dW, model.channels, optimize=True)
    return amp * (1.0 - 1j * h * dt - 0.5 * lam * s2 * dt
                  + 1j * np.sqrt(lam) * field)


def _check_normalized(state, tol=0.05):
    if abs(state.norm() - 1.0) > tol:
        raise InvariantViolationError("state norm %g is not 1" % state.norm())


def step_ito_nonlinear(state, model, dW, dt):
    """Single step of the nonlinear (collapse) SDE on its driving process.

    psi <- psi exp(-iH dt + sqrt(lam) A dY - lam A^2 dt), normalized, with
    dY = dW + 2 sqrt(lam) <A>_psi dt: the one-step form of ``run_ensemble``'s
    scheme, so iterating it reproduces one trajectory.  Never raises
    NormDivergenceError.
    """
    _check_normalized(state)
    dw = np.asarray(dW, dtype=float).reshape(1, 1, -1)
    (_, amp), = _collapse_path(model, state.amplitudes, dw, dt, {1})
    return GridState(amp[0], state.grid).normalized()


def step_ito_linear(state, model, dW, dt):
    """Single Euler-Maruyama step of the linear SDE.

    The scheme does not preserve the norm; a step that changes it by more
    than 10 % raises NormDivergenceError instead of blowing up silently.
    """
    _check_normalized(state)
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
    _check_normalized(state)
    field = np.einsum("...i,inm->...nm", np.asarray(dW, dtype=float),
                      model.channels, optimize=True)
    g = -1j * model.hamiltonian * dt + 1j * np.sqrt(model.effective_coupling) * field
    return GridState(state.amplitudes * (1.0 + g + 0.5 * g * g), state.grid)


def _rk4_factorized(amp, m0, mh, m1, dt):
    """RK4 step for dz/dt = m(t) z with diagonal m sampled at (t, t+dt/2, t+dt)."""
    k1 = m0 * amp
    k2 = mh * (amp + 0.5 * dt * k1)
    k3 = mh * (amp + 0.5 * dt * k2)
    k4 = m1 * (amp + dt * k3)
    return amp + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _wz_generators(model, wdot):
    """Diagonal ODE generator -iH + i sqrt(lam) sum_i A_i Wdot_i per eval time."""
    field = np.einsum("...i,inm->...nm", wdot, model.channels, optimize=True)
    return (-1j * model.hamiltonian
            + 1j * np.sqrt(model.effective_coupling) * field)


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
    wdot = noise.value(eval_times)                       # (n_eval, nc)
    gens = _wz_generators(model, wdot)                   # (n_eval, n, 2)
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
    across-trajectory variance.  ``mean_density`` (optional) is the list of
    averaged DensityBlocks, Hermitian by construction.
    """

    times: np.ndarray
    n_traj: int
    flavor_mean: np.ndarray
    flavor_stderr: np.ndarray
    mass_mean: np.ndarray
    mass_stderr: np.ndarray
    mass_var: np.ndarray
    mean_density: tuple = None

    def to_transition_record(self, kind):
        return TransitionRecord(
            times=self.times,
            p_same=self.flavor_mean[:, 0], p_other=self.flavor_mean[:, 1],
            stderr_same=self.flavor_stderr[:, 0],
            stderr_other=self.flavor_stderr[:, 1],
            source="ensemble-%s" % kind)


def _accumulate(amp, spacing, proj, acc, idx, store_density):
    """Add this batch's observables at sample slot ``idx``."""
    norm2 = np.sum(np.abs(amp) ** 2, axis=(-2, -1)) * spacing      # (B,)
    overlap = np.einsum("om,bnm->bon", proj, amp, optimize=True)                  # (B, 2, n)
    p_flavor = np.sum(np.abs(overlap) ** 2, axis=-1) * spacing / norm2[:, None]
    p_mass = np.sum(np.abs(amp) ** 2, axis=-2) * spacing / norm2[:, None]
    acc["flavor_sum"][idx] += p_flavor.sum(axis=0)
    acc["flavor_sq"][idx] += (p_flavor ** 2).sum(axis=0)
    acc["mass_sum"][idx] += p_mass.sum(axis=0)
    acc["mass_sq"][idx] += (p_mass ** 2).sum(axis=0)
    if store_density:
        scaled = amp / np.sqrt(norm2)[:, None, None]
        acc["density_sum"][idx] += np.einsum("bxm,byn->mnxy", scaled, np.conj(scaled), optimize=True)


def _new_accumulators(n_times, n_points, store_density):
    acc = {
        "flavor_sum": np.zeros((n_times, 2)), "flavor_sq": np.zeros((n_times, 2)),
        "mass_sum": np.zeros((n_times, 2)), "mass_sq": np.zeros((n_times, 2)),
    }
    if store_density:
        acc["density_sum"] = np.zeros((n_times, 2, 2, n_points, n_points), dtype=complex)
    return acc


def _increments(seed, indices, n_steps, nc, dt):
    """Each trajectory's Philox increments, shape (len(indices), n_steps, nc)."""
    dw = np.empty((len(indices), n_steps, nc))
    for j, traj in enumerate(indices):
        dw[j] = path_generator(seed, traj).normal(0.0, np.sqrt(dt),
                                                  size=(n_steps, nc))
    return dw


def _sample_slots(sample_steps):
    """Sample step -> every output slot it fills (a time may repeat)."""
    steps = np.asarray(sample_steps)
    return {int(s): np.flatnonzero(steps == s) for s in np.unique(steps)}


def _run_chunk_sde(model, spec, amp0, n_steps, sample_steps, seed, indices,
                   store_density):
    """Nonlinear SDE on its driving process: nc reals per trajectory."""
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    slots = _sample_slots(sample_steps)
    dw = _increments(seed, indices, n_steps, model.n_channels, spec.dt)
    for k, amp in _collapse_path(model, amp0, dw, spec.dt, slots):
        _accumulate(amp, model.grid.spacing, _FLAVOR_PROJECTORS, acc, slots[k],
                    store_density)
    return acc


def _run_chunk_exact(model, spec, amp0, n_steps, sample_steps, seed, indices,
                     store_density):
    """Linear kinds, solved pathwise at the sample times only.

    psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)) holds for the Ito
    and the Stratonovich form alike, since H and every A_i are diagonal and
    commute.  Each trajectory draws the same Philox increments a stepping
    scheme would, but sums them one segment (between sample steps) at a time.
    """
    nc = model.n_channels
    stops = np.unique(sample_steps)
    sd = np.sqrt(spec.dt)
    w = np.zeros((len(indices), stops.size, nc))          # W at each stop
    for j, traj in enumerate(indices):
        rng = path_generator(seed, traj)
        total, done = np.zeros(nc), 0
        for s, stop in enumerate(stops):
            if stop > done:
                total = total + rng.normal(0.0, sd, size=(stop - done, nc)).sum(axis=0)
                done = stop
            w[j, s] = total
    channels = model.channels.reshape(nc, -1)
    root_lam = np.sqrt(model.effective_coupling)
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    for i, step in enumerate(sample_steps):
        field = (w[:, np.searchsorted(stops, step)] @ channels).reshape(
            (-1,) + amp0.shape)
        phase = root_lam * field - model.hamiltonian * (step * spec.dt)
        _accumulate(amp0 * np.exp(1j * phase), model.grid.spacing,
                    _FLAVOR_PROJECTORS, acc, i, store_density)
    return acc


def _run_chunk_wz(model, spec, amp0, n_steps, sample_steps, seed, indices,
                  store_density):
    """Wong-Zakai batch: mollified noise from per-trajectory Wiener paths."""
    m = spec.mollifier
    lo, hi = m.support()
    dt = spec.dt
    t_max = n_steps * dt
    nc = model.n_channels
    # base increments cover all u with delta_eps(s - u) != 0, s in [0, t_max]
    u_lo = -hi
    n_base = int(np.ceil((t_max - lo - u_lo) / dt))
    t_mid = u_lo + (np.arange(n_base) + 0.5) * dt
    eval_times = 0.5 * dt * np.arange(2 * n_steps + 1)
    kernel = m.pdf(eval_times[:, None] - t_mid[None, :])           # (n_eval, n_base)
    dw = _increments(seed, indices, n_base, nc, dt)
    wdot = np.einsum("bki,ek->bei", dw, kernel, optimize=True)                    # (B, n_eval, nc)
    amp = np.broadcast_to(amp0, (len(indices),) + amp0.shape).copy()
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    slots = _sample_slots(sample_steps)
    for k in range(n_steps + 1):
        if k in slots:
            _accumulate(amp, model.grid.spacing, _FLAVOR_PROJECTORS, acc,
                        slots[k], store_density)
        if k < n_steps:
            gens = [_wz_generators(model, wdot[:, 2 * k + j]) for j in range(3)]
            amp = _rk4_factorized(amp, *gens, dt)
    return acc


_CHUNK_RUNNERS = {"ito-nonlinear": _run_chunk_sde, "ito-linear": _run_chunk_exact,
                  "stratonovich": _run_chunk_exact, "wong-zakai": _run_chunk_wz}


def _chunk_worker(args):
    return _CHUNK_RUNNERS[args[1].kind](*args)


def resolve_workers(n_workers=None, default=1):
    """Worker count: ``n_workers``, else $MESONCOLLAPSE_WORKERS, else ``default``."""
    if n_workers is not None:
        return max(1, int(n_workers))
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ParameterError("%s must be an integer, got %r"
                                 % (WORKERS_ENV, env)) from None
    return default


def run_ensemble(model, spec, initial, t_max, n_traj, seed,
                 sample_times=None, n_samples=10, n_workers=None,
                 store_density=False, batch_size=None):
    """Stream ``n_traj`` trajectories and accumulate their observables.

    Per-trajectory noise streams are derived from (seed, trajectory index)
    with a counter-based generator, and partial sums are reduced in fixed
    chunk order, so the result is bit-reproducible and independent of the
    worker count.
    """
    if n_traj < 1:
        raise ParameterError("n_traj must be >= 1, got %d" % n_traj)
    if spec.kind == "wong-zakai" and spec.dt > spec.mollifier.eps / 4.0:
        raise UnderResolvedKernelError(
            "dt %g exceeds eps/4 = %g" % (spec.dt, spec.mollifier.eps / 4.0))
    _check_normalized(initial)
    n_steps = int(round(t_max / spec.dt))
    if n_steps < 1 or abs(n_steps * spec.dt - t_max) > 1e-9 * t_max:
        raise ParameterError("t_max=%g is not an integer number of steps dt=%g"
                             % (t_max, spec.dt))
    if sample_times is None:
        sample_times = t_max * np.arange(1, n_samples + 1) / n_samples
    sample_times = np.asarray(sample_times, dtype=float)
    sample_steps = np.round(sample_times / spec.dt).astype(int)
    if np.any(np.abs(sample_steps * spec.dt - sample_times) > 1e-9 * max(t_max, spec.dt)):
        raise ParameterError("sample times must be integer multiples of dt")
    if np.any((sample_steps < 0) | (sample_steps > n_steps)):
        raise ParameterError("sample times must lie in [0, t_max]")

    if batch_size is None:
        per_traj = n_steps * model.n_channels * 8 * (3 if spec.kind == "wong-zakai" else 1)
        batch_size = int(np.clip(_MAX_NOISE_BYTES // max(per_traj, 1), 1, 2500))
    edges = list(range(0, n_traj, batch_size)) + [n_traj]
    tasks = [(model, spec, initial.amplitudes, n_steps, tuple(sample_steps),
              int(seed), range(a, b), store_density)
             for a, b in zip(edges[:-1], edges[1:])]
    workers = resolve_workers(n_workers)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            partials = list(ex.map(_chunk_worker, tasks))
    else:
        partials = [_chunk_worker(t) for t in tasks]

    total = partials[0]
    for part in partials[1:]:
        for key in total:
            total[key] += part[key]

    n = float(n_traj)
    def _mean_stderr(sum_, sq_):
        var = np.maximum(sq_ - sum_ ** 2 / n, 0.0) / max(n - 1.0, 1.0)
        return sum_ / n, np.sqrt(var / n), var

    flavor_mean, flavor_stderr, _ = _mean_stderr(total["flavor_sum"], total["flavor_sq"])
    mass_mean, mass_stderr, mass_var = _mean_stderr(total["mass_sum"], total["mass_sq"])
    mean_density = None
    if store_density:
        mean_density = tuple(DensityBlocks(b / n, model.grid)
                             for b in total["density_sum"])
    return EnsembleResult(times=sample_times, n_traj=n_traj,
                          flavor_mean=flavor_mean, flavor_stderr=flavor_stderr,
                          mass_mean=mass_mean, mass_stderr=mass_stderr,
                          mass_var=mass_var, mean_density=mean_density)
