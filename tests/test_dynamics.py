import math

import numpy as np
import pytest

from gatedqdot.coupling import CouplingMatrix
from gatedqdot.dynamics import (
    ControlSignal,
    NonlinearConfig,
    WaveState,
    alpha_scaling_study,
    galerkin_mode_state,
    grid_mode_state,
    propagate_bilinear,
    propagate_nonlinear,
    synthesize_chain_transfer,
    transfer_fidelity,
)
from gatedqdot.errors import DurationCapError
from gatedqdot.poisson import StaggeredGrid, hartree_field
from gatedqdot.spectral import ModeIndex, eigenfunction_on_grid, enumerate_modes

L = 1.0
DELTA = 0.3
CHAIN_EDGES = (((1, 1), (2, 1)), ((2, 1), (3, 1)))


def shifted_gap(spec, matrix, a, b):
    """|lambda'_b - lambda'_a| of the delta/2-shifted spectrum."""
    n = len(spec)
    shifted = np.linalg.eigvalsh(np.diag(spec.eigenvalues) + 0.5 * DELTA * matrix.to_dense(n))
    return abs(shifted[spec.position(ModeIndex(*b))] - shifted[spec.position(ModeIndex(*a))])


class TestControlSignal:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlSignal(samples=((1.0, -0.1),), delta=DELTA)
        with pytest.raises(ValueError):
            ControlSignal(samples=((1.0, 0.4),), delta=DELTA)
        with pytest.raises(ValueError):
            ControlSignal(samples=((0.0, 0.1),), delta=DELTA)
        with pytest.raises(ValueError):
            ControlSignal(samples=(), delta=-1.0)

    def test_clipped(self):
        sig = ControlSignal(samples=((1.0, 0.1), (1.0, 0.2)), delta=DELTA)
        cut = sig.clipped(1.5)
        assert cut.samples == ((1.0, 0.1), (0.5, 0.2))
        with pytest.raises(ValueError):
            sig.clipped(3.0)

    def test_csv(self, tmp_path):
        sig = ControlSignal(samples=((0.5, 0.25),), delta=DELTA)
        path = tmp_path / "control.csv"
        sig.to_csv(path)
        assert path.read_text().splitlines() == ["duration,value", "0.5,0.25"]


class TestBilinear:
    def test_free_evolution_exact_phase(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        t = 1.7
        final = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(t, 0.0, DELTA), psi0, 30
        )[-1]
        assert final.values[0] == pytest.approx(np.exp(-1j * spec30.eigenvalues[0] * t), abs=1e-13)
        assert np.abs(final.values[1:]).max() == 0.0

    def test_frozen_hamiltonian_stationary_states(self, spec30, matrix_n2_30):
        h = np.diag(spec30.eigenvalues[:30]) + DELTA * matrix_n2_30.to_dense(30)
        _, vecs = np.linalg.eigh(h)
        psi0 = WaveState(values=vecs[:, 2].astype(complex), modes=tuple(spec30.modes))
        traj = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(3.0, DELTA, DELTA), psi0, 30
        )
        pops0 = np.abs(traj[0].values) ** 2
        pops1 = np.abs(traj[-1].values) ** 2
        assert np.abs(pops1 - pops0).max() <= 1e-12

    def test_norm_preserved_per_step(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        samples = tuple((0.05, 0.15 + 0.1 * math.cos(0.3 * k)) for k in range(200))
        traj = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal(samples=samples, delta=DELTA), psi0, 30
        )
        norms = np.array([s.norm for s in traj])
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_constant_control_step_splitting(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        one = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(2.0, 0.21, DELTA), psi0, 30
        )[-1].values
        many = propagate_bilinear(
            spec30,
            matrix_n2_30,
            ControlSignal(samples=tuple((0.1, 0.21) for _ in range(20)), delta=DELTA),
            psi0,
            30,
        )[-1].values
        assert np.linalg.norm(one - many) <= 1e-12

    def test_time_reversal(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        fwd_ctrl = ControlSignal(samples=((0.3, 0.3), (0.2, 0.1), (0.4, 0.25)), delta=DELTA)
        fwd = propagate_bilinear(spec30, matrix_n2_30, fwd_ctrl, psi0, 30)[-1]
        conj = WaveState(values=np.conj(fwd.values), modes=fwd.modes)
        back = propagate_bilinear(spec30, matrix_n2_30, fwd_ctrl.reversed(), conj, 30)[-1]
        assert np.linalg.norm(np.conj(back.values) - psi0.values) <= 1e-10

    def test_control_range_enforced(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        sig = ControlSignal(samples=((1.0, 0.4),), delta=0.5)
        with pytest.raises(ValueError):
            propagate_bilinear(
                spec30, matrix_n2_30, ControlSignal(samples=sig.samples, delta=DELTA), psi0, 30
            )

    def test_initial_norm_checked(self, spec30, matrix_n2_30):
        bad = WaveState(values=np.full(30, 0.5, dtype=complex), modes=tuple(spec30.modes))
        with pytest.raises(ValueError):
            propagate_bilinear(
                spec30, matrix_n2_30, ControlSignal.constant(1.0, 0.0, DELTA), bad, 30
            )

    def test_gauge_covariance_constant_offset(self, spec30, matrix_n2_30):
        # V0 -> V0 + c shifts B by c*Id: populations must not move
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        ctrl = ControlSignal(samples=((0.5, 0.3), (0.5, 0.12)), delta=DELTA)
        base = propagate_bilinear(spec30, matrix_n2_30, ctrl, psi0, 30)
        shifted_matrix = CouplingMatrix(
            modes=matrix_n2_30.modes,
            values=matrix_n2_30.values + 0.7 * np.eye(30),
            zero_tol=matrix_n2_30.zero_tol,
        )
        moved = propagate_bilinear(spec30, shifted_matrix, ctrl, psi0, 30)
        for a, b in zip(base, moved):
            assert np.abs(np.abs(a.values) ** 2 - np.abs(b.values) ** 2).max() <= 1e-10


class TestSynthesis:
    def test_single_node_path_empty_signal(self, spec30, matrix_n2_30):
        sig = synthesize_chain_transfer([(1, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        assert sig.samples == ()

    def test_values_span_admissible_range(self, spec30, matrix_n2_30):
        sig = synthesize_chain_transfer([(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        values = np.array([v for _, v in sig.samples])
        assert values.min() >= 0.0 and values.max() <= DELTA
        assert values.max() >= 0.99 * DELTA  # cosine crest reaches the top
        assert values.min() <= 0.01 * DELTA

    def test_frequency_near_bare_gap(self, spec30, matrix_n2_30):
        sig = synthesize_chain_transfer([(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        # a full sample lasts exactly one period over samples_per_period, and
        # the drive runs at the transition frequency of the delta/2-shifted
        # spectrum, which stays near the bare gap 3
        dt = sig.samples[0][0]
        omega = 2 * math.pi / (40 * dt)
        assert omega == pytest.approx(3.0, abs=0.1)
        exact = shifted_gap(spec30, matrix_n2_30, (1, 1), (2, 1))
        assert omega == pytest.approx(exact, rel=1e-12)

    def test_zero_coupling_edge_rejected(self, spec30, matrix_n2_30):
        with pytest.raises(ValueError, match="zero coupling"):
            synthesize_chain_transfer([(1, 1), (3, 1)], spec30, matrix_n2_30, DELTA, 0.5)

    def test_repeated_mode_rejected(self, spec100, matrix_n1_100):
        # an odd gate couples (1, 1) to itself, but a repeat is no transition:
        # its frequency would be zero
        with pytest.raises(ValueError, match="not a chain edge"):
            synthesize_chain_transfer([(1, 1), (1, 1)], spec100, matrix_n1_100, DELTA, 0.5)

    def test_duration_cap(self, spec30, matrix_n2_30):
        with pytest.raises(DurationCapError):
            synthesize_chain_transfer(
                [(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.5, duration_cap=1.0
            )

    def test_amplitude_fraction_range(self, spec30, matrix_n2_30):
        with pytest.raises(ValueError):
            synthesize_chain_transfer([(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.6)

    @pytest.mark.parametrize("edge", CHAIN_EDGES)
    def test_full_samples_last_one_period_slice(self, spec30, matrix_n2_30, edge):
        sig = synthesize_chain_transfer(list(edge), spec30, matrix_n2_30, DELTA, 0.5)
        durations = np.array([d for d, _ in sig.samples])
        dt = 2 * math.pi / (shifted_gap(spec30, matrix_n2_30, *edge) * 40)
        # every sample but the remainder has one bitwise-equal duration
        assert len(set(durations[:-1])) == 1
        assert durations[0] == pytest.approx(dt, rel=1e-12)
        assert 0.0 < durations[-1] <= durations[0]

    @pytest.mark.parametrize("edge", CHAIN_EDGES)
    def test_values_repeat_every_period(self, spec30, matrix_n2_30, edge):
        sig = synthesize_chain_transfer(list(edge), spec30, matrix_n2_30, DELTA, 0.5)
        durations = np.array([d for d, _ in sig.samples])
        values = np.array([v for _, v in sig.samples])
        nfull = int(np.sum(durations == durations[0]))
        assert nfull > 40
        assert np.array_equal(values[40:nfull], values[: nfull - 40])

    @pytest.mark.parametrize("edge", CHAIN_EDGES)
    def test_edge_lasts_one_pi_pulse(self, spec30, matrix_n2_30, edge):
        sig = synthesize_chain_transfer(list(edge), spec30, matrix_n2_30, DELTA, 0.5)
        p, q = (spec30.position(ModeIndex(*m)) for m in edge)
        t_pi = math.pi / (0.5 * DELTA * abs(matrix_n2_30.to_dense(30)[p, q]))
        assert sig.total_duration == pytest.approx(t_pi, rel=1e-12)

    def test_chain_concatenates_edges(self, spec30, matrix_n2_30):
        chain = synthesize_chain_transfer(
            [(1, 1), (2, 1), (3, 1)], spec30, matrix_n2_30, DELTA, 0.5
        )
        edges = [
            synthesize_chain_transfer(list(e), spec30, matrix_n2_30, DELTA, 0.5)
            for e in CHAIN_EDGES
        ]
        assert chain.samples == edges[0].samples + edges[1].samples

    def test_eigh_calls_bounded_per_edge(self, spec30, matrix_n2_30, monkeypatch):
        sig = synthesize_chain_transfer(
            [(1, 1), (2, 1), (3, 1)], spec30, matrix_n2_30, DELTA, 0.5
        )
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(1)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        propagate_bilinear(spec30, matrix_n2_30, sig, psi0, 30)
        # two edges of at most samples_per_period + 1 distinct values each,
        # against about 600 samples per edge
        assert len(sig.samples) > 1000
        assert len(calls) <= 2 * (40 + 1)

    def test_two_level_transfer(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1), 30)
        sig = synthesize_chain_transfer([(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        final = propagate_bilinear(spec30, matrix_n2_30, sig, psi0, 30)[-1]
        assert transfer_fidelity(final, (2, 1)) >= 0.9


class TestFidelity:
    def test_targets(self, spec30):
        state = galerkin_mode_state(spec30, (2, 1), 30)
        assert transfer_fidelity(state, (2, 1)) == 1.0
        assert transfer_fidelity(state, (1, 1)) == 0.0

    def test_superposition(self, spec30):
        v = np.zeros(30, dtype=complex)
        v[0] = v[1] = 1 / math.sqrt(2)
        state = WaveState(values=v, modes=tuple(spec30.modes))
        assert transfer_fidelity(state, (1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_target(self, spec30):
        state = galerkin_mode_state(spec30, (1, 1), 30)
        with pytest.raises(ValueError):
            transfer_fidelity(state, (50, 50))


class TestNonlinear:
    def test_free_eigenmode_stationary(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=0.0, dt=1e-3, nx=48, ny=48, log_populations=2)
        res = propagate_nonlinear(psi0, ControlSignal.constant(0.3, 0.0, DELTA), cfg, field_n2)
        assert np.abs(res.populations[:, 0] - 1.0).max() <= 1e-12
        assert np.abs(res.norms - 1.0).max() <= 1e-10

    def test_gauge_covariance_populations(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=0.2, dt=1e-3, nx=32, ny=32, log_populations=4)
        ctrl = ControlSignal(samples=((0.2, 0.3), (0.2, 0.1)), delta=DELTA)
        base = propagate_nonlinear(psi0, ctrl, cfg, field_n2)
        v0_shifted = field_n2.values_on(grid.x1, grid.x2) + 0.9
        moved = propagate_nonlinear(psi0, ctrl, cfg, v0_shifted)
        assert np.abs(base.populations - moved.populations).max() <= 1e-10

    def test_strang_second_order(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0 = grid_mode_state(grid, (1, 1), L)

        def final(dt):
            cfg = NonlinearConfig(alpha=0.5, dt=dt, nx=48, ny=48, log_populations=0)
            return propagate_nonlinear(
                psi0, ControlSignal.constant(0.4, 0.25, DELTA), cfg, field_n2
            ).final.values

        c1, c2, c3 = final(2e-3), final(1e-3), final(5e-4)
        r = grid.norm(c1 - c2) / grid.norm(c2 - c3)
        assert 3.0 <= r <= 5.5

    def test_matches_bilinear_at_zero_alpha(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0g = grid_mode_state(grid, (1, 1), L)
        ctrl = ControlSignal(samples=((0.4, 0.3), (0.6, 0.1)), delta=DELTA)
        cfg = NonlinearConfig(alpha=0.0, dt=2e-4, nx=48, ny=48, log_populations=0)
        res = propagate_nonlinear(psi0g, ctrl, cfg, field_n2)
        n = 40
        spec = enumerate_modes(L, n)
        from gatedqdot.coupling import assemble_coupling_matrix

        matrix = assemble_coupling_matrix(field_n2, spec, n)
        galerkin = propagate_bilinear(
            spec, matrix, ctrl, galerkin_mode_state(spec, (1, 1), n), n
        )[-1].values
        proj = np.array(
            [
                grid.cell_weight
                * np.sum(eigenfunction_on_grid(m, L, grid.x1, grid.x2) * res.final.values)
                for m in spec.modes
            ]
        )
        assert np.linalg.norm(proj - galerkin) <= 1e-5

    def test_h1_seminorm_bounded_strong_coupling(self, field_n2):
        # alpha = 1, delta = 0.5, T = 5: the energy stays controlled even at
        # the strongest parameters exercised anywhere in the suite
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=1.0, dt=2e-3, nx=32, ny=32, log_populations=0)
        res = propagate_nonlinear(psi0, ControlSignal.constant(5.0, 0.5, 0.5), cfg, field_n2)
        assert res.h1_seminorms.max() <= 2.0 * res.h1_seminorms[0]
        assert np.abs(res.norms - 1.0).max() <= 1e-10

    def test_shape_and_norm_validation(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        cfg = NonlinearConfig(alpha=0.0, dt=1e-3, nx=32, ny=32)
        bad_norm = WaveState(values=np.ones(grid.shape, dtype=complex), grid=grid)
        with pytest.raises(ValueError):
            propagate_nonlinear(bad_norm, ControlSignal.constant(0.1, 0.0, DELTA), cfg, field_n2)
        no_grid = WaveState(values=np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            propagate_nonlinear(no_grid, ControlSignal.constant(0.1, 0.0, DELTA), cfg, field_n2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NonlinearConfig(alpha=-1.0, dt=1e-3)
        with pytest.raises(ValueError):
            NonlinearConfig(alpha=0.0, dt=0.0)


def two_solve_strang(initial, control, config, v0, pop_modes):
    """Oracle: the Strang step with a fresh Hartree solve before each half phase.

    Returns the final state and the per-record norms, H1 seminorms, gate
    expectations and populations, computed as the integrator logs them.
    """
    grid = initial.grid
    eigs = grid.sine_eigenvalues()
    weight = grid.cell_weight
    phis = np.stack([eigenfunction_on_grid(m, L, grid.x1, grid.x2).ravel() for m in pop_modes])
    psi = initial.values.copy()
    logs = []

    def record():
        dens = np.abs(psi) ** 2
        h1 = np.sqrt(weight * np.sum(eigs * np.abs(grid.sine_forward(psi)) ** 2))
        pops = np.abs(weight * (phis @ psi.ravel())) ** 2
        logs.append((grid.norm(psi), h1, weight * np.sum(v0 * dens), pops))

    record()
    for dur, u in control.samples:
        nsteps = max(1, int(math.ceil(dur / config.dt - 1e-12)))
        step = dur / nsteps
        kin = np.exp(-1j * eigs * step)
        for _ in range(nsteps):
            w = hartree_field(np.abs(psi) ** 2, config.alpha, grid)
            psi = psi * np.exp(-0.5j * step * (u * v0 + w))
            psi = grid.sine_backward(kin * grid.sine_forward(psi))
            w = hartree_field(np.abs(psi) ** 2, config.alpha, grid)
            psi = psi * np.exp(-0.5j * step * (u * v0 + w))
            record()
    norms, h1, gate, pops = (np.array(col) for col in zip(*logs))
    return psi, norms, h1, gate, pops


class TestOneSolvePerStep:
    """One Hartree solve per step against the oracle that solves before each half phase."""

    # distinct values, a zero control, and a repeated (step, u) sample
    SAMPLES = ((0.05, 0.1), (0.03, 0.25), (0.04, 0.0), (0.04, 0.0))

    def run(self, field_n2, alpha, samples, monkeypatch):
        grid = StaggeredGrid(L=L, nx=16, ny=16)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=alpha, dt=1e-2, nx=16, ny=16, log_populations=3)
        ctrl = ControlSignal(samples=samples, delta=DELTA)
        calls = []

        def counted(*args):
            calls.append(1)
            return hartree_field(*args)

        monkeypatch.setattr("gatedqdot.dynamics.hartree_field", counted)
        res = propagate_nonlinear(psi0, ctrl, cfg, field_n2)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        expected = two_solve_strang(psi0, ctrl, cfg, v0, res.population_modes)
        steps = sum(max(1, math.ceil(d / cfg.dt - 1e-12)) for d, _ in samples)
        assert res.times.size == steps + 1
        got = (res.final.values, res.norms, res.h1_seminorms, res.gate_expectations, res.populations)
        return got, expected, len(calls), steps

    def test_linear_run_solves_nothing_and_is_bitwise_equal(self, field_n2, monkeypatch):
        got, expected, calls, _ = self.run(field_n2, 0.0, self.SAMPLES, monkeypatch)
        assert calls == 0
        for a, b in zip(got, expected):
            # bytes, so even the sign of a zero must agree
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "samples",
        [((0.1, 0.2),), SAMPLES],
        ids=["one-sample", "sample-boundaries"],
    )
    def test_nonlinear_run_matches_oracle(self, field_n2, monkeypatch, samples):
        got, expected, _, _ = self.run(field_n2, 0.1, samples, monkeypatch)
        for a, b in zip(got, expected):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_one_solve_per_step_plus_one(self, field_n2, monkeypatch):
        _, _, calls, steps = self.run(field_n2, 0.1, ((0.1, 0.2),), monkeypatch)
        assert calls == steps + 1


class TestAlphaStudy:
    def test_single_alpha_no_slope(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=0, dt=2e-3, nx=32, ny=32, log_populations=0)
        out = alpha_scaling_study(
            [1e-2], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, field_n2, psi0
        )
        assert out["slope"] is None
        assert len(out["rows"]) == 1

    def test_deviations_increase_with_alpha(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=0, dt=2e-3, nx=32, ny=32, log_populations=0)
        out = alpha_scaling_study(
            [1e-2, 1e-1], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, field_n2, psi0
        )
        devs = [r["deviation"] for r in out["rows"]]
        assert devs[1] > devs[0] > 0

    def test_alpha_ordering_enforced(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1), L)
        cfg = NonlinearConfig(alpha=0, dt=2e-3, nx=32, ny=32)
        with pytest.raises(ValueError):
            alpha_scaling_study(
                [1e-1, 1e-2], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, field_n2, psi0
            )


def test_trajectory_csv(tmp_path, field_n2):
    grid = StaggeredGrid(L=L, nx=32, ny=32)
    psi0 = grid_mode_state(grid, (1, 1), L)
    cfg = NonlinearConfig(alpha=0.1, dt=1e-2, nx=32, ny=32, log_populations=3)
    res = propagate_nonlinear(psi0, ControlSignal.constant(0.05, 0.2, DELTA), cfg, field_n2)
    path = tmp_path / "traj.csv"
    res.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,norm,h1_seminorm,gate_expectation,population_1,population_2,population_3,control_value"
    assert len(lines) == 1 + res.times.size
