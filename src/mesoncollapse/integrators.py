"""Trajectory-level time evolution and ensemble averaging.

Four drivers of the same physics:

* ``ito-nonlinear`` -- Euler-Maruyama on the norm-preserving collapse SDE,
  with optional explicit renormalization each step;
* ``ito-linear``    -- the linear SDE with anti-Hermitian diffusion
  generator, pathwise unitary;
* ``stratonovich``  -- its Stratonovich form;
* ``wong-zakai``    -- classical RK4 on the ODE driven by mollified noise.

All operators are diagonal in the position (x) mass basis and commute, so
the two linear kinds -- one SDE written in two calculi -- share the exact
pathwise solution psi_t = psi_0 exp(-iHt + i sqrt(lam) sum_i A_i W_i(t)).
``run_ensemble`` evaluates it at the sample times instead of stepping;
``step_ito_linear`` (Euler-Maruyama) and ``step_stratonovich`` (Heun) remain
as single-step reference schemes.  Every update is elementwise over
(grid point, mass index) and broadcasts over leading batch axes.
Trajectories are embarrassingly parallel; the ensemble reduction is
performed in fixed chunk order so results are independent of worker
scheduling.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (DensityBlocks, GridState, InvariantViolationError,
                   NormDivergenceError, ParameterError, flavor_to_mass)
from .master_eq import TransitionRecord
from .noise import (Mollifier, UnderResolvedKernelError, mollified_values,
                    path_generator)

INTEGRATOR_KINDS = ("ito-nonlinear", "ito-linear", "stratonovich", "wong-zakai")

WORKERS_ENV = "MESONCOLLAPSE_WORKERS"

# largest per-chunk noise buffer, used to size trajectory batches
_MAX_NOISE_BYTES = 64 * 2 ** 20


@dataclass(frozen=True)
class IntegratorSpec:
    """Scheme selection: kind, step, and kind-specific options."""

    kind: str
    dt: float
    renormalize: bool = True
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


def _em_nonlinear(amp, model, dW, dt, renormalize=True):
    """One Euler-Maruyama step of the nonlinear collapse SDE (batched).

    Channel contractions are BLAS products against the (nc, n*2) channel
    matrix.  The step factor is real apart from -i h dt, so the new norm
    follows from |amp|^2 and |factor|^2 without a second pass over amp.
    """
    shape = amp.shape
    w = model.channels.reshape(model.n_channels, -1)      # (nc, n*2)
    lam = model.effective_coupling
    prob = (amp.real ** 2 + amp.imag ** 2).reshape(shape[:-2] + (-1,))
    norm2 = np.sum(prob, axis=-1)
    a = (prob @ w.T) / norm2[..., None]                   # <A_i>, (..., nc)
    field = dW @ w - np.sum(dW * a, axis=-1)[..., None]
    bsq = (model.channel_square_sum().reshape(-1) - 2.0 * (a @ w)
           + np.sum(a ** 2, axis=-1)[..., None])
    real = (1.0 - 0.5 * lam * dt * bsq + np.sqrt(lam) * field).reshape(shape)
    hdt = model.hamiltonian * dt
    new_norm2 = np.sum(prob.reshape(shape) * (real ** 2 + hdt ** 2),
                       axis=(-2, -1))
    ratio = np.sqrt(new_norm2 / norm2)
    if not np.all(np.abs(ratio - 1.0) <= 0.1):
        raise NormDivergenceError(
            "norm changed by a factor %g in one step; reduce dt"
            % float(np.max(np.abs(ratio))))
    out = amp * (real - 1j * hdt)
    if renormalize:
        out /= np.sqrt(new_norm2 * model.grid.spacing)[..., None, None]
    return out


def _em_linear(amp, model, dW, dt):
    """One Euler-Maruyama step of the linear SDE (batched)."""
    h = model.hamiltonian
    lam = model.effective_coupling
    s2 = model.channel_square_sum()
    field = np.einsum("...i,inm->...nm", dW, model.channels, optimize=True)
    return amp * (1.0 - 1j * h * dt - 0.5 * lam * s2 * dt
                  + 1j * np.sqrt(lam) * field)


def _heun_stratonovich(amp, model, dW, dt):
    """One Heun step of the Stratonovich SDE (batched).

    For the commuting diagonal generator G = -iH dt + i sqrt(lam) A dW the
    predictor-corrector pair collapses to amp * (1 + G + G^2/2).
    """
    h = model.hamiltonian
    lam = model.effective_coupling
    field = np.einsum("...i,inm->...nm", dW, model.channels, optimize=True)
    g = -1j * h * dt + 1j * np.sqrt(lam) * field
    return amp * (1.0 + g + 0.5 * g * g)


def _check_normalized(state, tol=0.05):
    if abs(state.norm() - 1.0) > tol:
        raise InvariantViolationError("state norm %g is not 1" % state.norm())


def step_ito_nonlinear(state, model, dW, dt, renormalize=True):
    """Single Euler-Maruyama step of the nonlinear (collapse) SDE."""
    _check_normalized(state)
    amp = _em_nonlinear(state.amplitudes, model, np.asarray(dW, dtype=float),
                        dt, renormalize=renormalize)
    return GridState(amp, state.grid)


def step_ito_linear(state, model, dW, dt):
    """Single Euler-Maruyama step of the linear SDE."""
    _check_normalized(state)
    return GridState(_em_linear(state.amplitudes, model,
                                np.asarray(dW, dtype=float), dt), state.grid)


def step_stratonovich(state, model, dW, dt):
    """Single Heun step of the Stratonovich SDE."""
    _check_normalized(state)
    return GridState(_heun_stratonovich(state.amplitudes, model,
                                        np.asarray(dW, dtype=float), dt), state.grid)


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


def _flavor_projectors(grid):
    vs = [flavor_to_mass("M0"), flavor_to_mass("M0bar")]
    return np.array([[np.conj(v.cH), np.conj(v.cL)] for v in vs])  # (2 outcomes, 2 mass)


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


def _run_chunk_sde(model, spec, amp0, n_steps, sample_steps, seed, indices,
                   store_density):
    """Euler-Maruyama batch of the nonlinear SDE, per-trajectory noise streams."""
    nc = model.n_channels
    spacing = model.grid.spacing
    proj = _flavor_projectors(model.grid)
    batch = len(indices)
    dw = np.empty((batch, n_steps, nc))
    for j, traj in enumerate(indices):
        rng = path_generator(seed, traj)
        dw[j] = rng.normal(0.0, np.sqrt(spec.dt), size=(n_steps, nc))
    amp = np.broadcast_to(amp0, (batch,) + amp0.shape).copy()
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    sample_map = {s: i for i, s in enumerate(sample_steps)}
    if 0 in sample_map:
        _accumulate(amp, spacing, proj, acc, sample_map[0], store_density)
    for k in range(n_steps):
        amp = _em_nonlinear(amp, model, dw[:, k], spec.dt,
                            renormalize=spec.renormalize)
        if (k + 1) in sample_map:
            _accumulate(amp, spacing, proj, acc, sample_map[k + 1], store_density)
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
    proj = _flavor_projectors(model.grid)
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    for i, step in enumerate(sample_steps):
        field = (w[:, np.searchsorted(stops, step)] @ channels).reshape(
            (-1,) + amp0.shape)
        phase = root_lam * field - model.hamiltonian * (step * spec.dt)
        _accumulate(amp0 * np.exp(1j * phase), model.grid.spacing, proj, acc,
                    i, store_density)
    return acc


def _run_chunk_wz(model, spec, amp0, n_steps, sample_steps, seed, indices,
                  store_density):
    """Wong-Zakai batch: mollified noise from per-trajectory Wiener paths."""
    m = spec.mollifier
    lo, hi = m.support()
    dt = spec.dt
    t_max = n_steps * dt
    nc = model.n_channels
    spacing = model.grid.spacing
    proj = _flavor_projectors(model.grid)
    # base increments cover all u with delta_eps(s - u) != 0, s in [0, t_max]
    u_lo = -hi
    n_base = int(np.ceil((t_max - lo - u_lo) / dt))
    t_mid = u_lo + (np.arange(n_base) + 0.5) * dt
    eval_times = 0.5 * dt * np.arange(2 * n_steps + 1)
    kernel = m.pdf(eval_times[:, None] - t_mid[None, :])           # (n_eval, n_base)
    batch = len(indices)
    dw = np.empty((batch, n_base, nc))
    for j, traj in enumerate(indices):
        rng = path_generator(seed, traj)
        dw[j] = rng.normal(0.0, np.sqrt(dt), size=(n_base, nc))
    wdot = np.einsum("bki,ek->bei", dw, kernel, optimize=True)                    # (B, n_eval, nc)
    amp = np.broadcast_to(amp0, (batch,) + amp0.shape).copy()
    acc = _new_accumulators(len(sample_steps), model.grid.n_points, store_density)
    sample_map = {s: i for i, s in enumerate(sample_steps)}
    if 0 in sample_map:
        _accumulate(amp, spacing, proj, acc, sample_map[0], store_density)
    for k in range(n_steps):
        g0 = _wz_generators(model, wdot[:, 2 * k])
        gh = _wz_generators(model, wdot[:, 2 * k + 1])
        g1 = _wz_generators(model, wdot[:, 2 * k + 2])
        amp = _rk4_factorized(amp, g0, gh, g1, dt)
        if (k + 1) in sample_map:
            _accumulate(amp, spacing, proj, acc, sample_map[k + 1], store_density)
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
        mean = sum_ / n
        if n > 1:
            var = np.maximum(sq_ - sum_ ** 2 / n, 0.0) / (n - 1.0)
        else:
            var = np.zeros_like(sum_)
        return mean, np.sqrt(var / n), var

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
