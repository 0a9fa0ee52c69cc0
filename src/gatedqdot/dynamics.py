"""Time evolution: bilinear Galerkin propagation, pulse synthesis and the
nonlinear Schroedinger-Poisson integrator.

The bilinear propagator applies the exact matrix exponential of
-i(diag(lambda) + u*C) on each constant-control interval, so constant
controls incur no time-step error at all.  Resonant population transfer
along a coupling path is synthesized as a chain of first-order pi pulses:
on each edge a cosine drive at the transition frequency of the DC-shifted
spectrum, with mean delta/2 so the admissible range [0, delta] is never
left.  Each drive is sampled on a grid commensurate with its period, so
its samples repeat bitwise and the propagator's per-value cache of
eigendecompositions serves every period after the first.  The nonlinear
solver is Strang splitting on a staggered grid with one Hartree solve per
step: a potential half step leaves |psi|^2 unchanged, so the field solved
after the kinetic step also opens the next step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .coupling import CouplingMatrix
from .errors import DurationCapError, InstabilityError
from .poisson import StaggeredGrid, hartree_field
from .spectral import ModeIndex, Spectrum, eigenfunction_on_grid

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

    def reversed(self) -> "ControlSignal":
        return ControlSignal(samples=tuple(reversed(self.samples)), delta=self.delta)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("duration,value\n")
            for dur, val in self.samples:
                fh.write(f"{dur:.17g},{val:.17g}\n")


@dataclass
class WaveState:
    """Unit-norm quantum state: Galerkin coefficients (1-D) or grid values (2-D)."""

    values: np.ndarray
    time: float = 0.0
    modes: tuple[ModeIndex, ...] | None = None
    grid: StaggeredGrid | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)

    @property
    def norm(self) -> float:
        if self.grid is not None:
            return self.grid.norm(self.values)
        return float(np.linalg.norm(self.values))

    def population(self, position: int) -> float:
        return float(abs(self.values[position]) ** 2)


def galerkin_mode_state(spectrum: Spectrum, mode, truncation: int) -> WaveState:
    """Basis state concentrated on one mode, over the first `truncation` modes."""
    pos = spectrum.position(ModeIndex(*mode))
    if pos >= truncation:
        raise ValueError("mode lies outside the truncation window")
    values = np.zeros(truncation, dtype=complex)
    values[pos] = 1.0
    return WaveState(values=values, modes=tuple(spectrum.modes[:truncation]))


def grid_mode_state(grid: StaggeredGrid, mode, L: float) -> WaveState:
    """Eigenmode sampled on the staggered grid; exactly unit norm there."""
    phi = eigenfunction_on_grid(ModeIndex(*mode), L, grid.x1, grid.x2)
    return WaveState(values=phi.astype(complex), grid=grid)


def _check_initial(state: WaveState):
    if abs(state.norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {state.norm} is not 1")


def propagate_bilinear(
    spectrum: Spectrum,
    coupling: CouplingMatrix,
    control: ControlSignal,
    initial: WaveState,
    truncation: int,
) -> list[WaveState]:
    """Exact piecewise exponential of -i(diag(lambda) + u*C).

    Returns the states at sample boundaries, the initial state first.
    Each interval is applied through the symmetric eigendecomposition of
    the frozen Hamiltonian, so the step is unitary to rounding and
    independent of any internal step size.
    """
    if truncation > len(spectrum):
        raise ValueError("truncation exceeds spectrum size")
    lam = spectrum.eigenvalues[:truncation]
    cmat = coupling.values[:truncation, :truncation]
    if initial.values.shape != (truncation,):
        raise ValueError("initial state size does not match truncation")
    _check_initial(initial)
    # per-call cache: constant segments and repeated pulse samples reuse
    # the same frozen-Hamiltonian eigendecomposition
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    psi = initial.values.copy()
    t = initial.time
    out = [WaveState(values=psi.copy(), time=t, modes=initial.modes)]
    for dur, u in control.samples:
        if not 0.0 <= u <= control.delta:
            raise ValueError(f"control value {u} outside [0, {control.delta}]")
        if u not in cache:
            w, v = np.linalg.eigh(np.diag(lam) + u * cmat)
            cache[u] = (w, v)
        w, v = cache[u]
        psi = v @ (np.exp(-1j * w * dur) * (v.T @ psi))
        t += dur
        out.append(WaveState(values=psi.copy(), time=t, modes=initial.modes))
    return out


def transfer_fidelity(final: WaveState, target_mode) -> float:
    """Population of the target mode in a normalized Galerkin state."""
    if final.modes is None:
        raise ValueError("state carries no mode list")
    if abs(final.norm - 1.0) > 1e-8:
        raise ValueError("state is not normalized")
    target = ModeIndex(*target_mode)
    for i, m in enumerate(final.modes):
        if m == target:
            return final.population(i)
    raise ValueError(f"target mode {tuple(target)} not in state")


def synthesize_chain_transfer(
    path: Sequence,
    spectrum: Spectrum,
    coupling: CouplingMatrix,
    delta: float,
    amplitude_fraction: float,
    *,
    truncation: int | None = None,
    samples_per_period: int = 40,
    duration_cap: float = math.inf,
) -> ControlSignal:
    """Chained resonant pi pulses along a coupling path.

    Per edge (j, k): u(t) = delta/2 + a*cos(omega*t) with
    a = amplitude_fraction*delta, omega the |lambda'_k - lambda'_j|
    transition frequency of the delta/2-shifted spectrum (removing the
    leading DC Stark detuning), and duration pi/(a*|b_jk|) for a
    first-order pi pulse: on resonance the target population follows
    sin((a*b/2)*t)**2, which first reaches 1 there.  The cosine is sampled
    piecewise-constantly at interval midpoints and clamped into [0, delta]
    on a grid commensurate with its period: every full sample lasts exactly
    period/samples_per_period, and full sample k repeats the value of
    sample k mod samples_per_period bit for bit.  One remainder sample,
    valued at its own midpoint, makes the edge exactly pi/(a*|b_jk|) long;
    it is dropped when shorter than 1e-12 of that.  An edge therefore has
    at most samples_per_period + 1 distinct values, which bounds the
    eigendecompositions `propagate_bilinear` spends on it, whatever the
    pulse length.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not 0.0 < amplitude_fraction <= 0.5:
        raise ValueError("amplitude_fraction must lie in (0, 1/2]")
    if samples_per_period < 2:
        raise ValueError("samples_per_period must be >= 2")
    modes = [ModeIndex(*m) for m in path]
    if not modes:
        raise ValueError("path must contain at least one mode")
    if len(modes) == 1:
        return ControlSignal(samples=(), delta=delta)

    n = truncation if truncation is not None else len(spectrum)
    lam = spectrum.eigenvalues[:n]
    cmat = coupling.values[:n, :n]
    u_bar = 0.5 * delta
    shifted = np.linalg.eigvalsh(np.diag(lam) + u_bar * cmat)
    positions = [spectrum.position(m) for m in modes]
    if any(p >= n for p in positions):
        raise ValueError("path mode outside the truncation window")

    amp = amplitude_fraction * delta
    samples: list[tuple[float, float]] = []
    for p, pnext in zip(positions[:-1], positions[1:]):
        if p == pnext:
            raise ValueError(
                f"path repeats mode {tuple(spectrum.modes[p])}; not a chain edge"
            )
        b = cmat[p, pnext]
        if b == 0.0:
            raise ValueError(
                f"zero coupling between {tuple(spectrum.modes[p])} and "
                f"{tuple(spectrum.modes[pnext])}; not a chain edge"
            )
        omega = abs(shifted[pnext] - shifted[p])
        t_pi = math.pi / (amp * abs(b))
        if t_pi > duration_cap:
            raise DurationCapError(
                f"pi-pulse duration {t_pi:.3e} exceeds cap {duration_cap:.3e}"
            )
        dt = (2.0 * math.pi / omega) / samples_per_period
        mids = dt * (np.arange(samples_per_period) + 0.5)
        values = np.clip(u_bar + amp * np.cos(omega * mids), 0.0, delta)
        one_period = [(dt, float(v)) for v in values]
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
    length); nx, ny are cell counts of the staggered wavefunction grid.
    """

    alpha: float
    dt: float
    nx: int = 128
    ny: int = 128
    log_populations: int = 6
    store_states: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid sizes must be >= 4")
        if self.log_populations < 0:
            raise ValueError("log_populations must be nonnegative")


@dataclass
class NonlinearResult:
    """Per-step observable log plus final (and optionally boundary) states."""

    times: np.ndarray
    norms: np.ndarray
    h1_seminorms: np.ndarray
    gate_expectations: np.ndarray
    populations: np.ndarray  # (steps+1, K)
    control_values: np.ndarray  # (steps+1,), value applied after each time
    final: WaveState
    population_modes: tuple[ModeIndex, ...]
    boundary_states: list[WaveState] = field(default_factory=list)
    dt_lambda_max: float = 0.0

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            cols = ["time", "norm", "h1_seminorm", "gate_expectation"] + [
                f"population_{i + 1}" for i in range(self.populations.shape[1])
            ] + ["control_value"]
            fh.write(",".join(cols) + "\n")
            for i in range(self.times.size):
                row = [self.times[i], self.norms[i], self.h1_seminorms[i], self.gate_expectations[i]]
                row.extend(self.populations[i])
                row.append(self.control_values[i])
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def propagate_nonlinear(
    initial: WaveState,
    control: ControlSignal,
    config: NonlinearConfig,
    gate_field,
) -> NonlinearResult:
    """Strang splitting of i d(psi)/dt = (-Delta + u(t) V0 + W_psi) psi.

    Each step: half potential phase, exact kinetic step in the Dirichlet
    sine basis, then one Hartree solve from the post-kinetic density and
    the second half potential phase with that field (no lagging).  A phase
    multiply leaves |psi|^2 unchanged, so the same field and phase array
    open the next step; each control sample rebuilds the phase from the
    carried field, and one solve from the initial state opens the first.
    With alpha = 0 no Hartree solve runs.  L2 norm, H1 seminorm and the
    gate expectation int V0 |psi|^2 are logged every step; norm drift
    beyond 1e-6 aborts with InstabilityError.
    """
    grid = initial.grid
    if grid is None:
        raise ValueError("initial state must live on a staggered grid")
    if initial.values.shape != grid.shape:
        raise ValueError("initial state shape does not match its grid")
    _check_initial(initial)
    if isinstance(gate_field, np.ndarray):
        v0 = gate_field
        if v0.shape != grid.shape:
            raise ValueError("gate field shape does not match grid")
    else:
        v0 = gate_field.values_on(grid.x1, grid.x2)
    sine_eigs = grid.sine_eigenvalues()
    weight = grid.cell_weight
    L = grid.L

    kmodes: tuple[ModeIndex, ...] = ()
    phis = np.zeros((0, initial.values.size))
    if config.log_populations:
        from .spectral import enumerate_modes

        kspec = enumerate_modes(L, config.log_populations)
        kmodes = tuple(kspec.modes)
        phis = np.stack(
            [eigenfunction_on_grid(m, L, grid.x1, grid.x2).ravel() for m in kmodes]
        )

    psi = initial.values.astype(complex).copy()
    t = initial.time

    logs = {k: [] for k in ("t", "norm", "h1", "gate", "pop", "u")}

    def record(u_next):
        logs["t"].append(t)
        logs["norm"].append(grid.norm(psi))
        coeffs = grid.sine_forward(psi)
        logs["h1"].append(float(np.sqrt(weight * np.sum(sine_eigs * np.abs(coeffs) ** 2))))
        dens = np.abs(psi) ** 2
        logs["gate"].append(float(weight * np.sum(v0 * dens)))
        logs["pop"].append(np.abs(weight * (phis @ psi.ravel())) ** 2)
        logs["u"].append(u_next)

    boundary_states = []
    record(control.samples[0][1] if control.samples else 0.0)
    if config.store_states:
        boundary_states.append(WaveState(values=psi.copy(), time=t, grid=grid))

    # the linear flow (alpha = 0) has the field 0 and solves nothing
    nonlinear = config.alpha != 0.0
    w = hartree_field(np.abs(psi) ** 2, config.alpha, grid) if nonlinear else 0.0
    kin_cache: dict[float, np.ndarray] = {}
    for dur, u in control.samples:
        if not 0.0 <= u <= control.delta:
            raise ValueError(f"control value {u} outside [0, {control.delta}]")
        nsteps = max(1, int(math.ceil(dur / config.dt - 1e-12)))
        step = dur / nsteps
        if step not in kin_cache:
            kin_cache[step] = np.exp(-1j * sine_eigs * step)
        kin = kin_cache[step]
        # the carried field w belongs to the current |psi|^2
        phase = np.exp(-0.5j * step * (u * v0 + w))
        for _ in range(nsteps):
            psi = psi * phase
            psi = grid.sine_backward(kin * grid.sine_forward(psi))
            if nonlinear:
                w = hartree_field(np.abs(psi) ** 2, config.alpha, grid)
                phase = np.exp(-0.5j * step * (u * v0 + w))
            psi = psi * phase
            t += step
            record(u)
            # written to also trip on NaN norms (comparisons with NaN are false)
            if not abs(logs["norm"][-1] - 1.0) <= NORM_GUARD:
                raise InstabilityError(
                    f"norm drift {logs['norm'][-1] - 1.0:.3e} at t={t}; reduce dt"
                )
        if config.store_states:
            boundary_states.append(WaveState(values=psi.copy(), time=t, grid=grid))

    return NonlinearResult(
        times=np.array(logs["t"]),
        norms=np.array(logs["norm"]),
        h1_seminorms=np.array(logs["h1"]),
        gate_expectations=np.array(logs["gate"]),
        populations=np.array(logs["pop"]) if config.log_populations else np.zeros((len(logs["t"]), 0)),
        control_values=np.array(logs["u"]),
        final=WaveState(values=psi, time=t, grid=grid),
        population_modes=kmodes,
        boundary_states=boundary_states,
        dt_lambda_max=float(config.dt * sine_eigs.max()),
    )


def alpha_scaling_study(
    alphas: Sequence[float],
    control: ControlSignal,
    T: float,
    config: NonlinearConfig,
    gate_field,
    initial: WaveState,
) -> dict:
    """Deviation of the nonlinear flow from the linear one as alpha varies.

    Runs the same control and initial data once with alpha = 0 and once per
    requested alpha; reports ||psi_alpha(T) - psi_lin(T)||_L2 and the
    least-squares slope of log(deviation) against log(alpha) (None when
    fewer than two points are available).  `runs` holds the per-alpha
    results, `linear_reference` the alpha = 0 one.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise ValueError("alphas must be positive")
    if any(b <= a for a, b in zip(alphas[:-1], alphas[1:])):
        raise ValueError("alphas must be strictly increasing")
    clipped = control.clipped(T)

    def run(alpha):
        cfg = NonlinearConfig(
            alpha=alpha,
            dt=config.dt,
            nx=config.nx,
            ny=config.ny,
            log_populations=config.log_populations,
        )
        return propagate_nonlinear(initial, clipped, cfg, gate_field)

    linear = run(0.0)
    grid = initial.grid
    runs = [run(a) for a in alphas]
    rows = []
    for a, res in zip(alphas, runs):
        rows.append(
            {
                "alpha": a,
                "deviation": grid.norm(res.final.values - linear.final.values),
                "max_norm_drift": float(np.abs(res.norms - 1.0).max()),
                "max_h1": float(res.h1_seminorms.max()),
            }
        )
    slope = None
    if len(rows) >= 2 and all(r["deviation"] > 0 for r in rows):
        slope = float(
            np.polyfit(np.log([r["alpha"] for r in rows]), np.log([r["deviation"] for r in rows]), 1)[0]
        )
    return {"rows": rows, "slope": slope, "linear_reference": linear, "runs": runs}
