"""Time evolution: bilinear Galerkin propagation, pulse synthesis and the
nonlinear Schroedinger-Poisson integrator.

The bilinear propagator applies the exact matrix exponential of
-i(diag(lambda) + u*C) on each constant-control interval, so constant
controls incur no time-step error at all.  Resonant population transfer
along a coupling path is synthesized as a chain of first-order pi pulses:
on each edge a cosine drive about delta/2, inside [0, delta], at a
transition frequency of `shifted_spectrum` at delta/2: the levels `certify`
checks at its default rho.  Each drive is sampled on a grid commensurate
with its period and mirrored about the period's midpoint, so its samples
repeat bitwise and the propagator's per-value cache of `shifted_spectrum`
eigendecompositions serves every sample after the first half period.  The
cache holds one complex eigenvector matrix per value, from its first sample
to its last, so a pulse edge keeps at most its own distinct values.  The
nonlinear solver is Strang splitting on a staggered grid with one Hartree
solve per step: a potential half step leaves |psi|^2 unchanged, so the
field solved after the kinetic step also opens the next step.  The alpha
study's flows share only read-only arrays, so they run on a thread pool;
the matrix products and ufuncs that take their time release the GIL, and
each flow is the same call, so every result is the serial one bit for bit.

States are plain arrays: Galerkin coefficients over all the positions of
the `Spectrum`, which names them, or values on `NonlinearConfig.grid`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .coupling import CouplingMatrix
from .errors import DurationCapError, InstabilityError
from .poisson import StaggeredGrid, hartree_field
from .spectral import Spectrum, eigenfunction_on_grid, enumerate_modes, shifted_spectrum

NORM_GUARD = 1e-6


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: (duration, value) samples with values in [0, delta]."""

    samples: tuple[tuple[float, float], ...]
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        for dur, val in self.samples:
            if dur <= 0:
                raise ValueError("sample durations must be positive")
            if not 0.0 <= val <= self.delta:
                raise ValueError(f"control value {val} outside [0, {self.delta}]")

    @staticmethod
    def constant(duration: float, value: float, delta: float) -> "ControlSignal":
        return ControlSignal(samples=((float(duration), float(value)),), delta=delta)

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.samples)

    def clipped(self, duration: float) -> "ControlSignal":
        """Prefix of the signal with total duration exactly `duration`."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.total_duration < duration - 1e-12:
            raise ValueError("control shorter than requested duration")
        out = []
        left = duration
        for dur, val in self.samples:
            take = min(dur, left)
            out.append((take, val))
            left -= take
            if left <= 1e-15:
                break
        return ControlSignal(samples=tuple(out), delta=self.delta)


def galerkin_mode_state(spectrum: Spectrum, mode) -> np.ndarray:
    """Galerkin coefficients of one mode over the positions of `spectrum`."""
    values = np.zeros(len(spectrum), dtype=complex)
    values[spectrum.position(mode)] = 1.0
    return values


def _check_resolved(grid: StaggeredGrid, mode):
    """The grid resolves 1 <= j1 < nx and 1 <= j2 < ny; any other mode is a ValueError."""
    if not (1 <= mode[0] < grid.nx and 1 <= mode[1] < grid.ny):
        raise ValueError(f"mode {tuple(mode)} not resolved on the {grid.nx}x{grid.ny} staggered grid")


def grid_mode_state(grid: StaggeredGrid, mode) -> np.ndarray:
    """Eigenmode sampled on the staggered grid as a complex array; exactly unit norm there."""
    _check_resolved(grid, mode)
    return eigenfunction_on_grid(mode, grid.L, grid.x1, grid.x2).astype(complex)


def _check_initial(norm: float):
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {norm} is not 1")


def _check_sizes(spectrum: Spectrum, coupling: CouplingMatrix):
    if len(coupling) != len(spectrum):
        raise ValueError(f"{len(coupling)}-mode coupling matrix for a {len(spectrum)}-mode spectrum")


def propagate_bilinear(
    spectrum: Spectrum,
    coupling: CouplingMatrix,
    control: ControlSignal,
    initial,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact piecewise exponential of -i(diag(lambda) + u*C) from t = 0.

    `coupling` spans the N modes of `spectrum`, and `initial` holds the
    `(N,)` Galerkin coefficients at t = 0.  Returns `(times, values)`: the
    `(S+1,)` sample-boundary times and the `(S+1, N)` coefficients there,
    row 0 the initial state.  Each interval is applied through the
    `shifted_spectrum` of the frozen Hamiltonian, so the step is unitary to
    rounding and independent of any internal step size.  One decomposition
    serves every sample of a control value and one phase every sample of a
    (value, duration) pair.  The eigenvectors are kept as one complex matrix
    per value, held from the value's first sample to its last and then
    dropped, so no value is decomposed twice and the cache holds only the
    values still to come.
    """
    _check_sizes(spectrum, coupling)
    initial = np.asarray(initial, dtype=complex)
    if initial.shape != (len(spectrum),):
        raise ValueError("initial state size does not match the spectrum")
    _check_initial(float(np.linalg.norm(initial)))
    # per-call caches: constant segments and repeated pulse samples reuse
    # the same frozen-Hamiltonian eigendecomposition and step phase; complex
    # eigenvectors spare both matvecs a cast
    eigs: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    phases: dict[tuple[float, float], np.ndarray] = {}
    last = {u: k for k, (_, u) in enumerate(control.samples, start=1)}
    times = np.empty(len(control.samples) + 1)
    values = np.empty((len(control.samples) + 1, len(spectrum)), dtype=complex)
    psi = values[0] = initial
    t = times[0] = 0.0
    for k, (dur, u) in enumerate(control.samples, start=1):
        if u not in eigs:
            w, v = shifted_spectrum(spectrum, coupling, u)
            eigs[u] = w, v.astype(complex)
        w, v = eigs[u]
        phase = phases.get((u, dur))
        if phase is None:
            phase = phases[u, dur] = np.exp(-1j * w * dur)
        psi = values[k] = v @ (phase * (v.T @ psi))
        if last[u] == k:
            del eigs[u]
        t += dur
        times[k] = t
    return times, values


def transfer_fidelity(spectrum: Spectrum, values, target_mode) -> float:
    """Population of the target mode in normalized Galerkin coefficients."""
    values = np.asarray(values)
    if values.shape != (len(spectrum),):
        raise ValueError(f"{values.size} coefficients for a {len(spectrum)}-mode spectrum")
    if abs(float(np.linalg.norm(values)) - 1.0) > 1e-8:
        raise ValueError("state is not normalized")
    return float(abs(values[spectrum.position(target_mode)]) ** 2)


def synthesize_chain_transfer(
    path: Sequence,
    spectrum: Spectrum,
    coupling: CouplingMatrix,
    delta: float,
    amplitude_fraction: float,
    *,
    samples_per_period: int = 40,
    duration_cap: float = math.inf,
) -> ControlSignal:
    """Chained resonant pi pulses along a coupling path.

    Per edge (j, k): u(t) = delta/2 + a*cos(omega*t) with
    a = amplitude_fraction*delta, omega = |lambda'_k - lambda'_j| on the
    levels of `shifted_spectrum(spectrum, coupling, delta/2)` (removing the
    leading DC Stark detuning), and duration pi/(a*|b_jk|) for a
    first-order pi pulse: on resonance the target population follows
    sin((a*b/2)*t)**2, which first reaches 1 there.  The cosine is sampled
    piecewise-constantly at interval midpoints and clamped into [0, delta]
    on a grid commensurate with its period: every full sample lasts exactly
    period/samples_per_period, and full sample k takes the value at phase
    2*pi*(k mod samples_per_period + 1/2)/samples_per_period from one
    table that every edge shares.  The cosine is symmetric about the
    period's midpoint, so only the first ceil(samples_per_period/2) values
    are evaluated and sample samples_per_period-1-k repeats sample k.  One
    remainder sample, valued at its own midpoint with the edge's omega,
    makes the edge exactly pi/(a*|b_jk|) long; it is dropped when shorter
    than 1e-12 of that.  A pulse of E edges therefore has at most
    ceil(samples_per_period/2) + E distinct values, which bounds the
    eigendecompositions `propagate_bilinear` spends on it, whatever the
    pulse length.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < amplitude_fraction <= 0.5:
        raise ValueError("amplitude_fraction must lie in (0, 1/2]")
    if samples_per_period < 2:
        raise ValueError("samples_per_period must be >= 2")
    _check_sizes(spectrum, coupling)
    positions = [spectrum.position(m) for m in path]
    if not positions:
        raise ValueError("path must contain at least one mode")
    if len(positions) == 1:
        return ControlSignal(samples=(), delta=delta)

    cmat, u_bar = coupling.values, 0.5 * delta
    shifted, _ = shifted_spectrum(spectrum, coupling, u_bar)

    amp = amplitude_fraction * delta
    # the period is mirror-symmetric, k <-> spp-1-k: evaluate the first
    # half and reflect it, so mirror samples share one value bitwise
    phases = (2.0 * math.pi / samples_per_period) * (np.arange((samples_per_period + 1) // 2) + 0.5)
    half = np.clip(u_bar + amp * np.cos(phases), 0.0, delta).tolist()
    values = half + half[: samples_per_period // 2][::-1]
    samples: list[tuple[float, float]] = []
    for p, pnext in zip(positions[:-1], positions[1:]):
        if p == pnext:
            raise ValueError(
                f"path repeats mode {spectrum.modes[p]}; not a chain edge"
            )
        b = cmat[p, pnext]
        if b == 0.0:
            raise ValueError(
                f"zero coupling between {spectrum.modes[p]} and "
                f"{spectrum.modes[pnext]}; not a chain edge"
            )
        omega = abs(shifted[pnext] - shifted[p])
        t_pi = math.pi / (amp * abs(b))
        if t_pi > duration_cap:
            raise DurationCapError(
                f"pi-pulse duration {t_pi:.3e} exceeds cap {duration_cap:.3e}"
            )
        dt = (2.0 * math.pi / omega) / samples_per_period
        one_period = [(dt, v) for v in values]
        nfull = int(t_pi // dt)
        cycles, rest = divmod(nfull, samples_per_period)
        samples.extend(one_period * cycles)
        samples.extend(one_period[:rest])
        tail = t_pi - nfull * dt
        if tail >= 1e-12 * t_pi:
            u_tail = u_bar + amp * math.cos(omega * (nfull * dt + 0.5 * tail))
            samples.append((tail, min(max(u_tail, 0.0), delta)))
    return ControlSignal(samples=tuple(samples), delta=delta)


@dataclass(frozen=True)
class NonlinearConfig:
    """Strang-splitting parameters for the Schroedinger-Poisson system.

    alpha is the self-consistency strength (inverse squared scaled Debye
    length); the initial state and the gate potential are values on `grid`,
    which must resolve the first `log_populations` modes of `enumerate_modes`.
    """

    alpha: float
    dt: float
    grid: StaggeredGrid
    log_populations: int = 6

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.log_populations < 0:
            raise ValueError("log_populations must be nonnegative")
        if self.log_populations:
            for mode in enumerate_modes(self.grid.L, self.log_populations).modes:
                _check_resolved(self.grid, mode)


@dataclass(eq=False)
class NonlinearResult:
    """Per-step observable log plus the final state; what a run does not log is empty."""

    times: np.ndarray
    norms: np.ndarray
    h1_seminorms: np.ndarray
    gate_expectations: np.ndarray
    populations: np.ndarray  # (steps+1, K)
    control_values: np.ndarray  # (steps+1,), value applied after each time
    final: np.ndarray  # values on the grid at the last time


LOG_LEVELS = ("norm", "h1", "all")


def _h1_seminorm(psi: np.ndarray, t1: np.ndarray, t2: np.ndarray, weight: float) -> float:
    """H1 seminorm of a C-ordered grid state by Parseval one axis at a time: the
    tables are orthonormal, so ||t1 psi||^2 + ||psi t2^T||^2 is sum lambda |c|^2."""
    a = t1 @ psi.view(float)
    b = t2 @ np.ascontiguousarray(psi.T).view(float)
    return float(np.sqrt(weight * (np.vdot(a, a) + np.vdot(b, b))))


def propagate_nonlinear(
    initial: np.ndarray,
    control: ControlSignal,
    config: NonlinearConfig,
    v0: np.ndarray,
    *,
    log: str = "all",
) -> NonlinearResult:
    """Strang splitting of i d(psi)/dt = (-Delta + u(t) V0 + W_psi) psi from t = 0.

    The unit-norm `initial` and the gate potential `v0` are on `config.grid`.

    Each step: half potential phase, the exact kinetic step
    psi -> k1 @ psi @ k2.T of `grid.kinetic` (built once per step length),
    then one Hartree solve from the post-kinetic density and the second
    half potential phase with that field (no lagging).  A phase
    multiply leaves |psi|^2 unchanged, so the same field and phase array
    open the next step; each control sample rebuilds the phase from the
    carried field, and one solve from the initial state opens the first.
    The phase exp(-i*step/2*(u*V0 + W)) is built from the cosine and sine
    of its real angle, and the state is multiplied in place.  With
    alpha = 0 no Hartree solve runs.

    Every step logs its time and L2 norm; norm drift beyond 1e-6 aborts
    with InstabilityError.  `log` says what else is logged: "norm"
    nothing more, "h1" the H1 seminorm, and "all" (the default) the H1
    seminorm, the gate expectation int V0 |psi|^2, the populations and
    the control values, the populations those of the first
    `config.log_populations` modes of `enumerate_modes`.  What a run does
    not log comes back empty.
    """
    if log not in LOG_LEVELS:
        raise ValueError(f"log must be one of {LOG_LEVELS}")
    grid = config.grid
    if initial.shape != grid.shape:
        raise ValueError("initial state shape does not match grid")
    _check_initial(grid.norm(initial))
    if v0.shape != grid.shape:
        raise ValueError("gate field shape does not match grid")
    weight = grid.cell_weight
    L = grid.L
    log_h1 = log != "norm"
    log_all = log == "all"

    phis = np.zeros((0, initial.size))
    if log_all and config.log_populations:
        phis = np.stack(
            [eigenfunction_on_grid(m, L, grid.x1, grid.x2).ravel()
             for m in enumerate_modes(L, config.log_populations).modes]
        ).astype(complex)
    # the sine tables, row j1 scaled by j1 and row j2 by j2*pi/L, for the H1 log
    t1 = np.arange(1, grid.nx)[:, None] * grid.s1
    t2 = (np.arange(1, grid.ny + 1) * math.pi / L)[:, None] * grid.d2

    # a copy, C-ordered whatever the input's order, for the real views
    psi = np.array(initial, dtype=complex, order="C")
    t = 0.0

    logs = {k: [] for k in ("t", "norm", "h1", "gate", "pop", "u")}

    def record(u_next):
        logs["t"].append(t)
        dens = np.abs(psi) ** 2
        # grid.norm's formula on the density the gate expectation reuses
        logs["norm"].append(float(np.sqrt(weight * np.sum(dens))))
        if log_h1:
            logs["h1"].append(_h1_seminorm(psi, t1, t2, weight))
        if log_all:
            logs["gate"].append(float(weight * np.sum(v0 * dens)))
            logs["pop"].append(np.abs(weight * (phis @ psi.ravel())) ** 2)
            logs["u"].append(u_next)

    record(control.samples[0][1] if control.samples else 0.0)

    # the linear flow (alpha = 0) has the field 0 and solves nothing
    nonlinear = config.alpha != 0.0
    w = hartree_field(np.abs(psi) ** 2, config.alpha, grid) if nonlinear else 0.0
    kin_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    phase = np.empty(grid.shape, dtype=complex)

    def set_phase(step, u, w):
        # exp(-0.5j*step*(u*v0 + w)) bit for bit: that argument's real part
        # is exactly +-0, so the exponential is cos + i*sin of its imaginary
        # part; += 0.0 turns -0.0 into +0.0, as the complex product does
        theta = (-0.5 * step) * (u * v0 + w)
        theta += 0.0
        np.cos(theta, out=phase.real)
        np.sin(theta, out=phase.imag)

    for dur, u in control.samples:
        nsteps = max(1, int(math.ceil(dur / config.dt - 1e-12)))
        step = dur / nsteps
        if step not in kin_cache:
            kin_cache[step] = grid.kinetic(step)
        k1, k2 = kin_cache[step]
        # the carried field w belongs to the current |psi|^2
        set_phase(step, u, w)
        for _ in range(nsteps):
            psi *= phase
            psi = k1 @ psi @ k2.T
            if nonlinear:
                w = hartree_field(np.abs(psi) ** 2, config.alpha, grid)
                set_phase(step, u, w)
            psi *= phase
            t += step
            record(u)
            # written to also trip on NaN norms (comparisons with NaN are false)
            if not abs(logs["norm"][-1] - 1.0) <= NORM_GUARD:
                raise InstabilityError(
                    f"norm drift {logs['norm'][-1] - 1.0:.3e} at t={t}; reduce dt"
                )

    return NonlinearResult(
        times=np.array(logs["t"]),
        norms=np.array(logs["norm"]),
        h1_seminorms=np.array(logs["h1"]),
        gate_expectations=np.array(logs["gate"]),
        populations=np.array(logs["pop"]).reshape(len(logs["pop"]), len(phis)),
        control_values=np.array(logs["u"]),
        final=psi,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_workers(flows: int) -> int:
    """Pool workers for `flows` concurrent flows, leaving each its BLAS threads.

    Every flow's BLAS uses as many threads as the first of
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS whose first
    comma-separated entry is a positive integer sets; with none, every
    usable CPU.  The pool takes min(flows, max(1, CPUs // BLAS threads))
    workers, so flows and their BLAS threads do not oversubscribe the CPUs.
    """
    cpus = _usable_cpus()
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").split(",")[0].strip()
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return min(flows, max(1, cpus // blas))


def alpha_scaling_study(
    alphas: Sequence[float],
    control: ControlSignal,
    T: float,
    config: NonlinearConfig,
    v0: np.ndarray,
    initial: np.ndarray,
) -> dict:
    """Deviation of the nonlinear flow from the linear one as alpha varies.

    Runs the same control and initial data once with alpha = 0 and once per
    requested alpha; reports ||psi_alpha(T) - psi_lin(T)||_L2 and the
    least-squares slope of log(deviation) against log(alpha) (None when
    fewer than two points are available).  `runs` holds the per-alpha
    results; the alpha = 0 run is read only for the deviations.

    Each run logs only what is read from it (see `propagate_nonlinear`'s
    `log`): the reference its norms, which the norm guard checks; every
    alpha run but the last its norms and H1 seminorms, for the rows'
    maxima; the last run everything, for the trajectory it reports.

    The runs share only the read-only `initial` and `v0` arrays and run on
    a thread pool with one worker per run, at most the usable CPUs divided
    by the BLAS threads (`_pool_workers`); the longest runs start first.
    Each is the same `propagate_nonlinear` call as in a serial loop, so
    every result is bitwise the serial one.  Results are read in
    the serial order (the reference, then the alphas ascending), so the
    first failure in that order is the one raised; runs not yet started
    are then cancelled, and no worker outlives the call.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if any(b <= a for a, b in zip(alphas[:-1], alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    clipped = control.clipped(T)
    # imported here, its only user, so commands without a study skip it
    from concurrent.futures import ThreadPoolExecutor

    last = len(alphas) - 1
    jobs = [(0.0, "norm")] + [(a, "all" if i == last else "h1") for i, a in enumerate(alphas)]
    pool = ThreadPoolExecutor(max_workers=_pool_workers(len(jobs)))
    try:
        # longest first: the fully logged run, the H1 runs, then the reference
        futures = [
            pool.submit(
                propagate_nonlinear, initial, clipped, replace(config, alpha=a), v0, log=log
            )
            for a, log in reversed(jobs)
        ][::-1]
        # read in serial order, so the first failure in that order is raised
        linear, *runs = [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)
    grid = config.grid
    rows = []
    for a, res in zip(alphas, runs):
        rows.append(
            {
                "alpha": a,
                "deviation": grid.norm(res.final - linear.final),
                "max_norm_drift": float(np.abs(res.norms - 1.0).max()),
                "max_h1": float(res.h1_seminorms.max()),
            }
        )
    slope = None
    if len(rows) >= 2 and all(r["deviation"] > 0 for r in rows):
        slope = float(
            np.polyfit(np.log([r["alpha"] for r in rows]), np.log([r["deviation"] for r in rows]), 1)[0]
        )
    return {"rows": rows, "slope": slope, "runs": runs}
