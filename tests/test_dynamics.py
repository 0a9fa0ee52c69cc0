import collections
import itertools
import json
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import bilinear_expm_rows, per_axis_h1, strang_full_log, trajectory_csv

from gatedqdot import dynamics
from gatedqdot.chains import certify
from gatedqdot.cli import _write_rows_csv, run
from gatedqdot.coupling import CouplingMatrix, assemble_coupling_matrix
from gatedqdot.dynamics import (
    ControlSignal,
    NonlinearConfig,
    _pool_workers,
    alpha_scaling_study,
    galerkin_mode_state,
    grid_mode_state,
    propagate_bilinear,
    propagate_nonlinear,
    synthesize_chain_transfer,
    transfer_fidelity,
)
from gatedqdot.errors import DurationCapError, InstabilityError
from gatedqdot.poisson import StaggeredGrid, fourier_term, hartree_field, solve_full_gate
from gatedqdot.spectral import eigenfunction_on_grid, enumerate_modes, shifted_spectrum

L = 1.0
DELTA = 0.3
CHAIN_EDGES = (((1, 1), (2, 1)), ((2, 1), (3, 1)))


def shifted_gap(spec, matrix, a, b):
    """|lambda'_b - lambda'_a| of the delta/2-shifted spectrum."""
    shifted = np.linalg.eigvalsh(np.diag(spec.eigenvalues) + 0.5 * DELTA * matrix.values)
    return abs(shifted[spec.position(b)] - shifted[spec.position(a)])


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
        _write_rows_csv(path, "duration,value", sig.samples)
        assert path.read_text().splitlines() == ["duration,value", "0.5,0.25"]


class TestBilinear:
    def test_free_evolution_exact_phase(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        t = 1.7
        _, values = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(t, 0.0, DELTA), psi0
        )
        final = values[-1]
        assert final[0] == pytest.approx(np.exp(-1j * spec30.eigenvalues[0] * t), abs=1e-13)
        assert np.abs(final[1:]).max() == 0.0

    def test_frozen_hamiltonian_stationary_states(self, spec30, matrix_n2_30):
        h = np.diag(spec30.eigenvalues) + DELTA * matrix_n2_30.values
        _, vecs = np.linalg.eigh(h)
        psi0 = vecs[:, 2].astype(complex)
        _, values = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(3.0, DELTA, DELTA), psi0
        )
        pops0 = np.abs(values[0]) ** 2
        pops1 = np.abs(values[-1]) ** 2
        assert np.abs(pops1 - pops0).max() <= 1e-12

    def test_norm_preserved_per_step(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        samples = tuple((0.05, 0.15 + 0.1 * math.cos(0.3 * k)) for k in range(200))
        _, values = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal(samples=samples, delta=DELTA), psi0
        )
        norms = np.linalg.norm(values, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_constant_control_step_splitting(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        one = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal.constant(2.0, 0.21, DELTA), psi0
        )[1][-1]
        many = propagate_bilinear(
            spec30,
            matrix_n2_30,
            ControlSignal(samples=tuple((0.1, 0.21) for _ in range(20)), delta=DELTA),
            psi0,
        )[1][-1]
        assert np.linalg.norm(one - many) <= 1e-12

    def test_time_reversal(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        fwd_ctrl = ControlSignal(samples=((0.3, 0.3), (0.2, 0.1), (0.4, 0.25)), delta=DELTA)
        fwd = propagate_bilinear(spec30, matrix_n2_30, fwd_ctrl, psi0)[1][-1]
        rev_ctrl = ControlSignal(tuple(reversed(fwd_ctrl.samples)), fwd_ctrl.delta)
        back = propagate_bilinear(spec30, matrix_n2_30, rev_ctrl, np.conj(fwd))[1][-1]
        assert np.linalg.norm(np.conj(back) - psi0) <= 1e-10

    def test_control_range_enforced(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        sig = ControlSignal(samples=((1.0, 0.4),), delta=0.5)
        with pytest.raises(ValueError):
            propagate_bilinear(
                spec30, matrix_n2_30, ControlSignal(samples=sig.samples, delta=DELTA), psi0
            )

    def test_initial_norm_checked(self, spec30, matrix_n2_30):
        bad = np.full(30, 0.5, dtype=complex)
        with pytest.raises(ValueError):
            propagate_bilinear(
                spec30, matrix_n2_30, ControlSignal.constant(1.0, 0.0, DELTA), bad
            )

    def test_memory_is_one_row_per_sample(self, spec30, matrix_n2_30):
        # the trajectory is one complex row of 16*N bytes per sample, with
        # no per-sample objects next to it
        psi0 = galerkin_mode_state(spec30, (1, 1))
        samples = tuple((0.05, 0.1 + 0.05 * (k % 3)) for k in range(4000))
        ctrl = ControlSignal(samples=samples, delta=DELTA)
        tracemalloc.start()
        try:
            propagate_bilinear(spec30, matrix_n2_30, ctrl, psi0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * 30 * len(samples)

    def test_memory_holds_only_live_values(self, spec30, matrix_n2_30):
        # 40 blocks of 10 distinct values, each block cycled for 100 samples
        # like one pulse edge: 400 values, of which only one block is live
        psi0 = galerkin_mode_state(spec30, (1, 1))
        samples = tuple(
            (0.05, 0.01 + 0.0007 * (10 * block + k % 10))
            for block in range(40)
            for k in range(100)
        )
        ctrl = ControlSignal(samples=samples, delta=DELTA)
        assert len({u for _, u in samples}) == 400
        tracemalloc.start()
        try:
            propagate_bilinear(spec30, matrix_n2_30, ctrl, psi0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * 30 * (len(samples) + 1)

    def test_recurring_values_decomposed_once_and_exact(self, spec30, matrix_n2_30, monkeypatch):
        # values come back non-adjacently, and durations recur across values:
        # a value dropped too early would be decomposed again, and a stale
        # eigenbasis or phase would move the trajectory off the oracle
        a, b, c = 0.1, 0.25, 0.03
        samples = ((0.2, a), (0.05, b), (0.13, a), (0.05, c), (0.2, b), (0.07, a))
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(m):
            calls.append(1)
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        psi0 = galerkin_mode_state(spec30, (1, 1))
        _, values = propagate_bilinear(
            spec30, matrix_n2_30, ControlSignal(samples=samples, delta=DELTA), psi0
        )
        assert len(calls) == 3
        expected = bilinear_expm_rows(
            spec30.eigenvalues, matrix_n2_30.values, samples, psi0
        )
        assert np.abs(values - expected).max() <= 1e-12

    def test_gauge_covariance_constant_offset(self, spec30, matrix_n2_30):
        # V0 -> V0 + c shifts B by c*Id: populations must not move
        psi0 = galerkin_mode_state(spec30, (1, 1))
        ctrl = ControlSignal(samples=((0.5, 0.3), (0.5, 0.12)), delta=DELTA)
        _, base = propagate_bilinear(spec30, matrix_n2_30, ctrl, psi0)
        shifted_matrix = CouplingMatrix(
            values=matrix_n2_30.values + 0.7 * np.eye(30),
            zero_tol=matrix_n2_30.zero_tol,
        )
        _, moved = propagate_bilinear(spec30, shifted_matrix, ctrl, psi0)
        for a, b in zip(base, moved):
            assert np.abs(np.abs(a) ** 2 - np.abs(b) ** 2).max() <= 1e-10


class TestSynthesis:
    def test_single_node_path_empty_signal(self, spec30, matrix_n2_30):
        sig = synthesize_chain_transfer([(1, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        assert sig.samples == ()

    def test_single_node_path_must_be_in_the_window(self, spec30, matrix_n2_30):
        with pytest.raises(ValueError, match=r"^mode \(9, 9\) not in spectrum$"):
            synthesize_chain_transfer([(9, 9)], spec30, matrix_n2_30, DELTA, 0.5)

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

    @pytest.mark.parametrize("size", (30, 100))
    def test_drives_the_certified_levels(self, request, size):
        # the pulse runs at the gaps of the levels `certify` checks at its
        # default rho = delta/2, bit for bit
        spec = request.getfixturevalue(f"spec{size}")
        matrix = request.getfixturevalue(f"matrix_n2_{size}")
        levels, _ = shifted_spectrum(spec, matrix, 0.5 * DELTA)
        pairs = [
            (p, q) for p, q in itertools.permutations(range(12), 2) if matrix.values[p, q] != 0
        ]
        assert len(pairs) == 70
        for p, q in pairs:
            path = [spec.modes[p], spec.modes[q]]
            sig = synthesize_chain_transfer(path, spec, matrix, DELTA, 0.5)
            assert len(sig.samples) > 1
            assert sig.samples[0][0] == (2 * math.pi / abs(levels[q] - levels[p])) / 40

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
        p, q = (spec30.position(m) for m in edge)
        t_pi = math.pi / (0.5 * DELTA * abs(matrix_n2_30.values[p, q]))
        assert sig.total_duration == pytest.approx(t_pi, rel=1e-12)

    @pytest.mark.parametrize("spp", (40, 41))
    @pytest.mark.parametrize("edge", CHAIN_EDGES)
    def test_period_is_mirror_symmetric(self, spec30, matrix_n2_30, edge, spp):
        sig = synthesize_chain_transfer(
            list(edge), spec30, matrix_n2_30, DELTA, 0.5, samples_per_period=spp
        )
        durations = np.array([d for d, _ in sig.samples])
        values = np.array([v for _, v in sig.samples])
        nfull = int(np.sum(durations == durations[0]))
        periods = values[: nfull - nfull % spp].reshape(-1, spp)
        assert periods.shape[0] > 1
        # sample spp-1-k repeats sample k bitwise in every full period
        assert np.array_equal(periods, periods[:, ::-1])
        assert len(set(values.tolist())) <= (spp + 1) // 2 + 1

    def test_chain_concatenates_edges(self, spec30, matrix_n2_30):
        chain = synthesize_chain_transfer(
            [(1, 1), (2, 1), (3, 1)], spec30, matrix_n2_30, DELTA, 0.5
        )
        edges = [
            synthesize_chain_transfer(list(e), spec30, matrix_n2_30, DELTA, 0.5)
            for e in CHAIN_EDGES
        ]
        assert chain.samples == edges[0].samples + edges[1].samples

    @pytest.mark.parametrize("height", (0.9, 0.97, 1.0, 1.1))
    def test_edges_share_one_table_of_values(self, height):
        # each edge scales one period's table by its own sample length, so a
        # 3-edge pulse adds only its three remainder samples to the table
        spec = enumerate_modes(height, 100)
        matrix = assemble_coupling_matrix(solve_full_gate([fourier_term(2, height)], height), spec)
        sig = synthesize_chain_transfer(
            [(1, 1), (2, 1), (3, 1), (4, 1)], spec, matrix, DELTA, 0.5
        )
        assert len(sig.samples) > 1000
        assert len({v for _, v in sig.samples}) <= math.ceil(40 / 2) + 3

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
        psi0 = galerkin_mode_state(spec30, (1, 1))
        propagate_bilinear(spec30, matrix_n2_30, sig, psi0)
        # two edges of at most ceil(samples_per_period/2) + 1 distinct values
        # each, against 360 and 834 samples
        assert len(sig.samples) > 1000
        assert len(calls) <= 2 * (20 + 1)

    def test_two_level_transfer(self, spec30, matrix_n2_30):
        psi0 = galerkin_mode_state(spec30, (1, 1))
        sig = synthesize_chain_transfer([(1, 1), (2, 1)], spec30, matrix_n2_30, DELTA, 0.5)
        final = propagate_bilinear(spec30, matrix_n2_30, sig, psi0)[1][-1]
        assert transfer_fidelity(spec30, final, (2, 1)) >= 0.9


class TestFidelity:
    def test_targets(self, spec30):
        state = galerkin_mode_state(spec30, (2, 1))
        assert transfer_fidelity(spec30, state, (2, 1)) == 1.0
        assert transfer_fidelity(spec30, state, (1, 1)) == 0.0

    def test_superposition(self, spec30):
        v = np.zeros(30, dtype=complex)
        v[0] = v[1] = 1 / math.sqrt(2)
        assert transfer_fidelity(spec30, v, (1, 1)) == pytest.approx(0.5, abs=1e-15)

    def test_unknown_target(self, spec30):
        state = galerkin_mode_state(spec30, (1, 1))
        with pytest.raises(ValueError):
            transfer_fidelity(spec30, state, (50, 50))


@pytest.mark.parametrize(
    "name",
    ["shifted_spectrum", "propagate_bilinear", "synthesize_chain_transfer", "certify",
     "transfer_fidelity"],
)
def test_window_sizes_must_agree(name, spec30, field_n2):
    # a 20-mode input beside a 30-mode one; each message names both sizes
    spec20 = enumerate_modes(1.0, 20)
    m20 = assemble_coupling_matrix(field_n2, spec20)
    psi30 = galerkin_mode_state(spec30, (1, 1))
    calls = {
        "shifted_spectrum": lambda: shifted_spectrum(spec30, m20, 0.1),
        "propagate_bilinear": lambda: propagate_bilinear(
            spec30, m20, ControlSignal.constant(1.0, 0.1, DELTA), psi30
        ),
        "synthesize_chain_transfer": lambda: synthesize_chain_transfer(
            [(1, 1), (2, 1)], spec30, m20, DELTA, 0.5
        ),
        "certify": lambda: certify(m20, spec30.eigenvalues, 1e-9),
        "transfer_fidelity": lambda: transfer_fidelity(
            spec30, galerkin_mode_state(spec20, (1, 1)), (1, 1)
        ),
    }
    with pytest.raises(ValueError, match=r"^(20|30)\b.* for a (20|30)-mode "):
        calls[name]()


class TestNonlinear:
    def test_free_eigenmode_stationary(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0.0, dt=1e-3, grid=grid, log_populations=2)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        res = propagate_nonlinear(psi0, ControlSignal.constant(0.3, 0.0, DELTA), cfg, v0)
        assert np.abs(res.populations[:, 0] - 1.0).max() <= 1e-12
        assert np.abs(res.norms - 1.0).max() <= 1e-10

    def test_gauge_covariance_populations(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0.2, dt=1e-3, grid=grid, log_populations=4)
        ctrl = ControlSignal(samples=((0.2, 0.3), (0.2, 0.1)), delta=DELTA)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        base = propagate_nonlinear(psi0, ctrl, cfg, v0)
        moved = propagate_nonlinear(psi0, ctrl, cfg, v0 + 0.9)
        assert np.abs(base.populations - moved.populations).max() <= 1e-10

    def test_strang_second_order(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0 = grid_mode_state(grid, (1, 1))
        v0 = field_n2.values_on(grid.x1, grid.x2)

        def final(dt):
            cfg = NonlinearConfig(alpha=0.5, dt=dt, grid=grid, log_populations=0)
            return propagate_nonlinear(
                psi0, ControlSignal.constant(0.4, 0.25, DELTA), cfg, v0
            ).final

        c1, c2, c3 = final(2e-3), final(1e-3), final(5e-4)
        r = grid.norm(c1 - c2) / grid.norm(c2 - c3)
        assert 3.0 <= r <= 5.5

    def test_matches_bilinear_at_zero_alpha(self, field_n2):
        grid = StaggeredGrid(L=L, nx=48, ny=48)
        psi0g = grid_mode_state(grid, (1, 1))
        ctrl = ControlSignal(samples=((0.4, 0.3), (0.6, 0.1)), delta=DELTA)
        cfg = NonlinearConfig(alpha=0.0, dt=2e-4, grid=grid, log_populations=0)
        res = propagate_nonlinear(psi0g, ctrl, cfg, field_n2.values_on(grid.x1, grid.x2))
        n = 40
        spec = enumerate_modes(L, n)
        matrix = assemble_coupling_matrix(field_n2, spec)
        galerkin = propagate_bilinear(
            spec, matrix, ctrl, galerkin_mode_state(spec, (1, 1))
        )[1][-1]
        proj = np.array(
            [
                grid.cell_weight
                * np.sum(eigenfunction_on_grid(m, L, grid.x1, grid.x2) * res.final)
                for m in spec.modes
            ]
        )
        assert np.linalg.norm(proj - galerkin) <= 1e-5

    def test_h1_seminorm_bounded_strong_coupling(self, field_n2):
        # alpha = 1, delta = 0.5, T = 5: the energy stays controlled even at
        # the strongest parameters exercised anywhere in the suite
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=1.0, dt=2e-3, grid=grid, log_populations=0)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        res = propagate_nonlinear(psi0, ControlSignal.constant(5.0, 0.5, 0.5), cfg, v0)
        assert res.h1_seminorms.max() <= 2.0 * res.h1_seminorms[0]
        assert np.abs(res.norms - 1.0).max() <= 1e-10

    def test_shape_and_norm_validation(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        cfg = NonlinearConfig(alpha=0.0, dt=1e-3, grid=grid)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        bad_norm = np.ones(grid.shape, dtype=complex)
        with pytest.raises(ValueError):
            propagate_nonlinear(bad_norm, ControlSignal.constant(0.1, 0.0, DELTA), cfg, v0)
        off_grid = np.ones(4, dtype=complex)
        with pytest.raises(ValueError):
            propagate_nonlinear(off_grid, ControlSignal.constant(0.1, 0.0, DELTA), cfg, v0)

    def test_gate_shape_validation(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        cfg = NonlinearConfig(alpha=0.0, dt=1e-3, grid=grid)
        psi0 = grid_mode_state(grid, (1, 1))
        # the gate potential sampled on another grid
        other = StaggeredGrid(L=L, nx=16, ny=32)
        v0 = field_n2.values_on(other.x1, other.x2)
        with pytest.raises(ValueError, match="gate field shape does not match grid"):
            propagate_nonlinear(psi0, ControlSignal.constant(0.1, 0.0, DELTA), cfg, v0)

    def test_configs_and_results_compare_without_reading_arrays(self):
        # configs compare and hash by value, their grids by (L, nx, ny)
        cfg = NonlinearConfig(alpha=0.1, dt=1e-3, grid=StaggeredGrid(L=L, nx=8, ny=8))
        same = NonlinearConfig(alpha=0.1, dt=1e-3, grid=StaggeredGrid(L=L, nx=8, ny=8))
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != replace(cfg, grid=StaggeredGrid(L=L, nx=8, ny=16))
        # results hold arrays, so they compare by identity
        grid = cfg.grid
        psi0 = grid_mode_state(grid, (1, 1))
        nothing = ControlSignal(samples=(), delta=DELTA)
        first, second = (
            propagate_nonlinear(psi0, nothing, cfg, np.zeros(grid.shape)) for _ in range(2)
        )
        assert first == first and first != second
        assert len({first, second}) == 2

    def test_config_validation(self):
        grid = StaggeredGrid(L=L, nx=4, ny=4)
        with pytest.raises(ValueError):
            NonlinearConfig(alpha=-1.0, dt=1e-3, grid=grid)
        with pytest.raises(ValueError):
            NonlinearConfig(alpha=0.0, dt=0.0, grid=grid)
        # the first six modes at L = 1 reach (5, 1); the 4x4 grid resolves j1 <= 3
        with pytest.raises(ValueError, match=r"mode \(4, 1\) not resolved on the 4x4"):
            NonlinearConfig(alpha=0.0, dt=1e-3, grid=StaggeredGrid(L=1.0, nx=4, ny=4))
        NonlinearConfig(alpha=0.0, dt=1e-3, grid=grid, log_populations=0)


def two_solve_strang(initial, control, config, v0):
    """Oracle: the Strang step with a fresh Hartree solve before each half phase.

    Returns the final state and the per-record norms, H1 seminorms, gate
    expectations and populations of the first `config.log_populations`
    modes, computed as the integrator logs them.
    """
    grid = config.grid
    weight = grid.cell_weight
    pop_modes = enumerate_modes(L, config.log_populations).modes
    phis = np.stack([eigenfunction_on_grid(m, L, grid.x1, grid.x2).ravel() for m in pop_modes])
    psi = initial.copy()
    logs = []

    def record():
        dens = np.abs(psi) ** 2
        h1 = per_axis_h1(grid, psi)
        pops = np.abs(weight * (phis @ psi.ravel())) ** 2
        logs.append((grid.norm(psi), h1, weight * np.sum(v0 * dens), pops))

    record()
    for dur, u in control.samples:
        nsteps = max(1, int(math.ceil(dur / config.dt - 1e-12)))
        step = dur / nsteps
        k1, k2 = grid.kinetic(step)
        for _ in range(nsteps):
            w = hartree_field(np.abs(psi) ** 2, config.alpha, grid)
            psi = psi * np.exp(-0.5j * step * (u * v0 + w))
            psi = k1 @ psi @ k2.T
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
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=alpha, dt=1e-2, grid=grid, log_populations=3)
        ctrl = ControlSignal(samples=samples, delta=DELTA)
        calls = []

        def counted(*args):
            calls.append(1)
            return hartree_field(*args)

        monkeypatch.setattr("gatedqdot.dynamics.hartree_field", counted)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        res = propagate_nonlinear(psi0, ctrl, cfg, v0)
        expected = two_solve_strang(psi0, ctrl, cfg, v0)
        steps = sum(max(1, math.ceil(d / cfg.dt - 1e-12)) for d, _ in samples)
        assert res.times.size == steps + 1
        got = (res.final, res.norms, res.h1_seminorms, res.gate_expectations, res.populations)
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
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0, dt=2e-3, grid=grid, log_populations=0)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        out = alpha_scaling_study(
            [1e-2], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, v0, psi0
        )
        assert out["slope"] is None
        assert len(out["rows"]) == 1

    def test_deviations_increase_with_alpha(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0, dt=2e-3, grid=grid, log_populations=0)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        out = alpha_scaling_study(
            [1e-2, 1e-1], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, v0, psi0
        )
        devs = [r["deviation"] for r in out["rows"]]
        assert devs[1] > devs[0] > 0

    def test_alpha_ordering_enforced(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0, dt=2e-3, grid=grid)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        with pytest.raises(ValueError):
            alpha_scaling_study(
                [1e-1, 1e-2], ControlSignal.constant(0.5, 0.15, DELTA), 0.5, cfg, v0, psi0
            )


def growing_kinetic(grid, step, kinetic=StaggeredGrid.kinetic):
    """The kinetic step scaled by 1.001, so every step grows the norm by 1e-3."""
    k1, k2 = kinetic(grid, step)
    return 1.001 * k1, k2


def assert_same_bytes(a, b):
    # bytes, so even the sign of a zero must agree
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def recording(run, flows):
    """`run` that also keeps each flow's result under its alpha in `flows`."""

    def recorded(initial, control, config, *args, **kwargs):
        flows[config.alpha] = run(initial, control, config, *args, **kwargs)
        return flows[config.alpha]

    return recorded


class TestLoggedQuantities:
    """Runs log only what is read, and what they log is the first-written loop's, byte for byte."""

    def setup_run(self, field_n2):
        grid = StaggeredGrid(L=L, nx=16, ny=16)
        psi0 = grid_mode_state(grid, (1, 1))
        cfg = NonlinearConfig(alpha=0.0, dt=1e-2, grid=grid, log_populations=3)
        ctrl = ControlSignal(samples=TestOneSolvePerStep.SAMPLES, delta=DELTA)
        return psi0, ctrl, cfg, field_n2.values_on(grid.x1, grid.x2)

    def oracle(self, field_n2, psi0, ctrl, cfg, alpha):
        grid = cfg.grid
        modes = enumerate_modes(L, cfg.log_populations).modes
        phis = np.stack(
            [eigenfunction_on_grid(m, L, grid.x1, grid.x2).ravel() for m in modes]
        ).astype(complex)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        return strang_full_log(psi0, ctrl, replace(cfg, alpha=alpha), v0, phis)

    @staticmethod
    def logs(res):
        return (res.times, res.norms, res.h1_seminorms, res.gate_expectations,
                res.populations, res.control_values)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_full_log_matches_first_loop(self, field_n2, alpha):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        res = propagate_nonlinear(psi0, ctrl, replace(cfg, alpha=alpha), v0)
        final, *logs = self.oracle(field_n2, psi0, ctrl, cfg, alpha)
        assert_same_bytes(res.final, final)
        for got, expected in zip(self.logs(res), logs):
            assert_same_bytes(got, expected)

    def test_fortran_ordered_initial_state_gives_the_same_bytes(self, field_n2):
        grid = StaggeredGrid(L=L, nx=32, ny=32)
        psi0 = (grid_mode_state(grid, (1, 1)) + grid_mode_state(grid, (2, 1))) / math.sqrt(2.0)
        fortran = np.asfortranarray(psi0)
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        cfg = NonlinearConfig(alpha=0.1, dt=1e-2, grid=grid, log_populations=3)
        ctrl = ControlSignal(samples=TestOneSolvePerStep.SAMPLES, delta=DELTA)
        v0 = field_n2.values_on(grid.x1, grid.x2)
        expected = propagate_nonlinear(psi0, ctrl, cfg, v0, log="all")
        got = propagate_nonlinear(fortran, ctrl, cfg, v0, log="all")
        assert_same_bytes(got.final, expected.final)
        for a, b in zip(self.logs(got), self.logs(expected)):
            assert_same_bytes(a, b)

    def test_alpha_study_matches_first_loop(self, field_n2, monkeypatch):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        flows = {}
        monkeypatch.setattr(
            "gatedqdot.dynamics.propagate_nonlinear", recording(propagate_nonlinear, flows)
        )
        alphas = [0.05, 0.1]
        study = alpha_scaling_study(alphas, ctrl, ctrl.total_duration, cfg, v0, psi0)
        self.check_study(field_n2, study, alphas, flows[0.0])

    def check_study(self, field_n2, study, alphas, reference):
        """`reference` is the study's alpha = 0 flow, recorded by `recording`."""
        psi0, ctrl, cfg, _ = self.setup_run(field_n2)
        linear = self.oracle(field_n2, psi0, ctrl, cfg, 0.0)
        runs = [self.oracle(field_n2, psi0, ctrl, cfg, a) for a in alphas]
        rows = [
            {
                "alpha": a,
                "deviation": cfg.grid.norm(run[0] - linear[0]),
                "max_norm_drift": float(np.abs(run[2] - 1.0).max()),
                "max_h1": float(run[3].max()),
            }
            for a, run in zip(alphas, runs)
        ]
        assert study["rows"] == rows
        slope = np.polyfit(np.log(alphas), np.log([r["deviation"] for r in rows]), 1)[0]
        assert study["slope"] == float(slope)
        assert_same_bytes(reference.final, linear[0])
        assert_same_bytes(reference.norms, linear[2])
        assert reference.h1_seminorms.size == 0 and reference.populations.size == 0
        middle, last = study["runs"]
        assert_same_bytes(middle.final, runs[0][0])
        assert_same_bytes(middle.norms, runs[0][2])
        assert_same_bytes(middle.h1_seminorms, runs[0][3])
        assert middle.gate_expectations.size == 0 and middle.populations.size == 0
        assert_same_bytes(last.final, runs[1][0])
        for got, expected in zip(self.logs(last), runs[1][1:]):
            assert_same_bytes(got, expected)

    @pytest.mark.parametrize("alpha, log", [(0.0, "norm"), (0.1, "h1")])
    def test_trimmed_log_still_guards_norm(self, field_n2, monkeypatch, alpha, log):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        monkeypatch.setattr(StaggeredGrid, "kinetic", growing_kinetic)
        with pytest.raises(InstabilityError):
            propagate_nonlinear(psi0, ctrl, replace(cfg, alpha=alpha), v0, log=log)

    def test_unknown_log_rejected(self, field_n2):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        with pytest.raises(ValueError):
            propagate_nonlinear(psi0, ctrl, cfg, v0, log="gate")

    def test_sine_transforms_per_run(self, field_n2, monkeypatch):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        h1_seminorm = dynamics._h1_seminorm
        # the flows run concurrently, so each thread counts its own H1 evaluations
        calls = collections.Counter()

        def counted_h1(*args):
            calls[threading.get_ident()] += 1
            return h1_seminorm(*args)

        per_run = {}

        def counted_run(initial, control, config, *args, **kwargs):
            before = calls[threading.get_ident()]
            res = propagate_nonlinear(initial, control, config, *args, **kwargs)
            per_run[config.alpha] = calls[threading.get_ident()] - before
            return res

        monkeypatch.setattr(dynamics, "_h1_seminorm", counted_h1)
        monkeypatch.setattr("gatedqdot.dynamics.propagate_nonlinear", counted_run)
        alpha_scaling_study([0.05, 0.1, 0.2], ctrl, ctrl.total_duration, cfg, v0, psi0)
        steps = sum(max(1, math.ceil(d / cfg.dt - 1e-12)) for d, _ in ctrl.samples)
        # the kinetic step evaluates no H1, and the reference logs none;
        # every alpha run evaluates it once per record
        assert [per_run[a] for a in (0.0, 0.05, 0.1, 0.2)] == [0] + [steps + 1] * 3


class TestConcurrentAlphaStudy:
    """The study's flows run on a thread pool and still give the serial loop's bytes."""

    setup_run = TestLoggedQuantities.setup_run
    oracle = TestLoggedQuantities.oracle
    logs = staticmethod(TestLoggedQuantities.logs)
    check_study = TestLoggedQuantities.check_study

    def test_two_flows_run_at_once(self, field_n2, monkeypatch):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        # the flows share these two arrays: a write from any flow raises
        psi0.setflags(write=False)
        v0.setflags(write=False)
        # neither of the first two flows passes the barrier until the other
        # has reached it, so the study finishes only if they run at once
        barrier = threading.Barrier(2, timeout=30)
        entered = itertools.count()

        def paired_run(*args, **kwargs):
            if next(entered) < 2:
                barrier.wait()
            return propagate_nonlinear(*args, **kwargs)

        # two workers need two CPUs and one BLAS thread per flow
        monkeypatch.setattr("gatedqdot.dynamics._usable_cpus", lambda: 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        flows = {}
        monkeypatch.setattr(
            "gatedqdot.dynamics.propagate_nonlinear", recording(paired_run, flows)
        )
        alphas = [0.05, 0.1]
        study = alpha_scaling_study(alphas, ctrl, ctrl.total_duration, cfg, v0, psi0)
        assert next(entered) == 3
        self.check_study(field_n2, study, alphas, flows[0.0])

    @pytest.mark.parametrize(
        "threads, workers", [("", 1), ("1", 4), ("2", 2), ("4,2", 1), ("abc", 1)]
    )
    def test_pool_leaves_each_flow_its_blas_threads(self, monkeypatch, threads, workers):
        monkeypatch.setattr("gatedqdot.dynamics._usable_cpus", lambda: 4)
        for name in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        # unset and unparsable both mean a BLAS thread per CPU
        monkeypatch.setenv("OMP_NUM_THREADS", threads)
        assert _pool_workers(4) == workers
        assert _pool_workers(1) == 1
        # the BLAS's own variables come before OpenMP's
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert _pool_workers(4) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _pool_workers(4) == 4

    def test_one_cpu_runs_longest_flow_first(self, field_n2, monkeypatch):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        started = []

        def recorded_run(initial, control, config, *args, log, **kwargs):
            started.append((config.alpha, log, threading.get_ident()))
            return propagate_nonlinear(initial, control, config, *args, log=log, **kwargs)

        monkeypatch.setattr("gatedqdot.dynamics._usable_cpus", lambda: 1)
        flows = {}
        monkeypatch.setattr(
            "gatedqdot.dynamics.propagate_nonlinear", recording(recorded_run, flows)
        )
        alphas = [0.05, 0.1]
        study = alpha_scaling_study(alphas, ctrl, ctrl.total_duration, cfg, v0, psi0)
        assert [(a, log) for a, log, _ in started] == [(0.1, "all"), (0.05, "h1"), (0.0, "norm")]
        # one worker, which is not the caller's thread
        assert len({ident for _, _, ident in started} - {threading.get_ident()}) == 1
        self.check_study(field_n2, study, alphas, flows[0.0])

    def test_failure_raises_the_serial_loops_first_error(self, field_n2, monkeypatch):
        psi0, ctrl, cfg, v0 = self.setup_run(field_n2)
        # every flow trips the norm guard
        monkeypatch.setattr(StaggeredGrid, "kinetic", growing_kinetic)
        raised = {}

        def recorded_run(initial, control, config, *args, **kwargs):
            try:
                return propagate_nonlinear(initial, control, config, *args, **kwargs)
            except InstabilityError as exc:
                raised[config.alpha] = exc
                raise

        monkeypatch.setattr("gatedqdot.dynamics._usable_cpus", lambda: 2)
        monkeypatch.setattr("gatedqdot.dynamics.propagate_nonlinear", recorded_run)
        threads = threading.active_count()
        with pytest.raises(InstabilityError) as excinfo:
            alpha_scaling_study([0.05, 0.1], ctrl, ctrl.total_duration, cfg, v0, psi0)
        # the reference comes first in the serial loop
        assert excinfo.value is raised[0.0]
        assert str(excinfo.value) == "norm drift 1.000e-03 at t=0.01; reduce dt"
        assert threading.active_count() == threads

    def test_failure_exits_3_through_the_cli(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(StaggeredGrid, "kinetic", growing_kinetic)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dynamics": {"T": 0.05, "dt": 1e-2, "alphas": [0.05, 0.1],
                         "nonlinear_nx": 16, "nonlinear_ny": 16},
        }))
        threads = threading.active_count()
        assert run("nonlinear", config, tmp_path) == 3
        assert capsys.readouterr().err == "numerical failure: norm drift 1.000e-03 at t=0.01; reduce dt\n"
        assert threading.active_count() == threads


def test_trajectory_csv(tmp_path, field_n2):
    grid = StaggeredGrid(L=L, nx=32, ny=32)
    psi0 = grid_mode_state(grid, (1, 1))
    cfg = NonlinearConfig(alpha=0.1, dt=1e-2, grid=grid, log_populations=3)
    v0 = field_n2.values_on(grid.x1, grid.x2)
    res = propagate_nonlinear(psi0, ControlSignal.constant(0.05, 0.2, DELTA), cfg, v0)
    # the same run through the CLI: its only alpha is the logged one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "control": {"samples": [[0.05, 0.2]]},
        "dynamics": {"T": 0.05, "dt": 1e-2, "alphas": [0.1],
                     "nonlinear_nx": 32, "nonlinear_ny": 32, "log_populations": 3},
    }))
    assert run("nonlinear", config, tmp_path) == 0
    lines = (tmp_path / "nonlinear_trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "time,norm,h1_seminorm,gate_expectation,population_1,population_2,population_3,control_value"
    assert len(lines) == 1 + res.times.size


def test_control_trajectory_csv_matches_per_state_oracle(tmp_path, spec30, matrix_n2_30):
    path = [(1, 1), (2, 1), (3, 1)]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 30,
        "dynamics": {"path": [list(m) for m in path]},
    }))
    assert run("control", config, tmp_path) == 0
    control = synthesize_chain_transfer(path, spec30, matrix_n2_30, DELTA, 0.5)
    psi0 = galerkin_mode_state(spec30, path[0])
    times, values = propagate_bilinear(spec30, matrix_n2_30, control, psi0)
    controls = [u for _, u in control.samples] + [0.0]
    expected = trajectory_csv(times, values, spec30.eigenvalues, controls, 6)
    assert (tmp_path / "trajectory.csv").read_text() == expected


def test_final_results_are_the_trajectory_last_row(tmp_path, spec30):
    # final_norm, final_populations and the fidelity read the arrays that
    # trajectory.csv is written from; 17 significant digits round-trip
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gate": {"kind": "fourier_mode", "n": 2},
        "truncation": 30,
        "control": {"samples": [[0.05, 0.1], [0.05, 0.2]]},
        "dynamics": {"path": [[1, 1], [2, 1], [3, 1]]},
    }))
    for command in ("evolve", "control"):
        out = tmp_path / command
        assert run(command, config, out) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        header, *_, last = (out / "trajectory.csv").read_text().splitlines()
        row = dict(zip(header.split(","), map(float, last.split(","))))
        assert results["final_norm"] == row["norm"]
        if command == "evolve":
            assert results["final_populations"] == {
                str(tuple(m)): row[f"population_{i + 1}"] for i, m in enumerate(spec30.modes[:6])
            }
        else:
            assert spec30.position((3, 1)) == 2
            assert results["fidelity"] == row["population_3"]
