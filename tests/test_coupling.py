import json
import math

import numpy as np
import pytest
from oracles import lattice_coupling_dct, panel_rule

from gatedqdot.cli import run
from gatedqdot.coupling import (
    assemble_coupling_matrix,
    coupling_block,
    coupling_x1_closed,
    coupling_x2_closed,
)
from gatedqdot.poisson import (
    GateSegment,
    SpectralField,
    fourier_term,
    segment_trace,
    solve_full_gate,
    solve_partial_gate_fd,
)
from gatedqdot.spectral import Spectrum, enumerate_modes, shifted_spectrum


def quad_a(n, j1, k1):
    """1-D quadrature oracle for the x1 factor."""
    x, w = panel_rule(0.0, math.pi, 16, 24)
    return float(np.sum(w * np.sin(n * x) * np.sin(j1 * x) * np.sin(k1 * x)))


def quad_b(n, j2, k2, L):
    """1-D quadrature oracle for the x2 factor."""
    x, w = panel_rule(0.0, L, 16, 24)
    return float(np.sum(w * np.cosh(n * x) * np.sin(j2 * np.pi * x / L) * np.sin(k2 * np.pi * x / L)))


class TestClosedForms:
    def test_a_parity_zero(self):
        assert coupling_x1_closed(2, 1, 3) == 0.0
        assert quad_a(2, 1, 3) == pytest.approx(0.0, abs=1e-14)

    def test_a_specific_values(self):
        # oracle disagrees with the printed sign in the source material;
        # direct integration is authoritative: +16/15
        assert coupling_x1_closed(2, 1, 2) == pytest.approx(16.0 / 15.0, abs=0)
        assert quad_a(2, 1, 2) == pytest.approx(16.0 / 15.0, abs=1e-13)
        # int sin^3 = 4/3
        assert coupling_x1_closed(1, 1, 1) == pytest.approx(4.0 / 3.0, abs=0)
        assert quad_a(1, 1, 1) == pytest.approx(4.0 / 3.0, abs=1e-13)

    def test_b_specific_value(self):
        want = math.pi**2 * math.sinh(2.0) / (4 + 4 * math.pi**2)
        assert coupling_x2_closed(2, 1, 1, 1.0) == pytest.approx(want, rel=1e-15)
        assert quad_b(2, 1, 1, 1.0) == pytest.approx(want, rel=1e-13)

    def test_b_sign_pattern(self):
        assert coupling_x2_closed(2, 1, 2, 1.0) < 0.0
        assert quad_b(2, 1, 2, 1.0) < 0.0

    def test_b_never_zero(self):
        for n in range(1, 5):
            for j2 in range(1, 13):
                for k2 in range(1, 13):
                    assert abs(coupling_x2_closed(n, j2, k2, 1.3)) > 0.0

    def test_b_l_scaling(self):
        # substitution u = x2/L: B(n, j2, k2, L) = L * int_0^1 cosh(nLu) sin sin du
        n, j2, k2, L = 3, 2, 5, 1.7
        x, w = panel_rule(0.0, 1.0, 16, 24)
        sub = L * float(
            np.sum(w * np.cosh(n * L * x) * np.sin(j2 * np.pi * x) * np.sin(k2 * np.pi * x))
        )
        assert coupling_x2_closed(n, j2, k2, L) == pytest.approx(sub, rel=1e-12)

    @pytest.mark.parametrize("L", [1.0, 1.3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_closed_vs_quadrature_sweep(self, n, L):
        idx = [1, 2, 3, 5, 8, 12]
        for j in idx:
            for k in idx:
                a_cf, a_q = coupling_x1_closed(n, j, k), quad_a(n, j, k)
                if a_cf == 0.0:
                    assert abs(a_q) <= 1e-12
                else:
                    assert a_q == pytest.approx(a_cf, rel=1e-9)
                b_cf, b_q = coupling_x2_closed(n, j, k, L), quad_b(n, j, k, L)
                assert b_q == pytest.approx(b_cf, rel=1e-9)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            coupling_x1_closed(0, 1, 1)
        with pytest.raises(ValueError):
            coupling_x2_closed(1, 1, 0, 1.0)
        with pytest.raises(ValueError):
            coupling_x2_closed(1, 1, 1, -1.0)


class TestQuadratureEntry:
    """Single entries against values derived from 1-D quadrature-checked closed forms."""

    def test_product_entry(self, field_n2):
        spec = enumerate_modes(1.0, 3)
        m = assemble_coupling_matrix(field_n2, spec)
        assert spec.modes[:2] == [(1, 1), (2, 1)]
        want = (4 / math.pi) * (16 / 15) * coupling_x2_closed(2, 1, 1, 1.0)
        assert m.values[0, 1] == pytest.approx(want, rel=1e-12)
        assert m.values[0, 1] == pytest.approx(1.1181387502194358, rel=1e-12)

    def test_even_diagonal_zero(self, field_n2, spec100):
        pos = spec100.position((3, 2))
        m = assemble_coupling_matrix(field_n2, enumerate_modes(1.0, pos + 1))
        assert m.values[pos, pos] == pytest.approx(0.0, abs=1e-12)

    def test_zero_field(self):
        zero = SpectralField([], 1.0)
        m = assemble_coupling_matrix(zero, enumerate_modes(1.0, 10))
        assert m.entries == {}
        assert m.values.max() == 0.0


class TestAssembly:
    def test_even_gate_parity_pattern(self, matrix_n2_100, spec100):
        for a, b in matrix_n2_100.entries:
            assert (spec100.modes[a].j1 + spec100.modes[b].j1) % 2 == 1

    def test_odd_gate_parity_pattern(self, matrix_n1_100, spec100):
        for a, b in matrix_n1_100.entries:
            assert (spec100.modes[a].j1 + spec100.modes[b].j1) % 2 == 0

    def test_parity_exhaustive_truncation_20(self, spec100, field_n2, field_n1):
        spec20 = enumerate_modes(1.0, 20)
        m2 = assemble_coupling_matrix(field_n2, spec20, None)
        stored2 = set(m2.entries)
        for i in range(20):
            for j in range(i, 20):
                odd = (spec100.modes[i].j1 + spec100.modes[j].j1) % 2 == 1
                assert ((i, j) in stored2) == odd
        m1 = assemble_coupling_matrix(field_n1, spec20, None)
        stored1 = set(m1.entries)
        for i in range(20):
            for j in range(i, 20):
                even = (spec100.modes[i].j1 + spec100.modes[j].j1) % 2 == 0
                assert ((i, j) in stored1) == even

    def test_infinite_zero_tol_empty(self, field_n2):
        m = assemble_coupling_matrix(field_n2, enumerate_modes(1.0, 10), math.inf)
        assert m.entries == {}
        assert m.dropped == 55

    def test_symmetry_exact(self, matrix_n2_30):
        assert np.array_equal(matrix_n2_30.values, matrix_n2_30.values.T)

    def test_serialization_round_trip(self, matrix_n2_30, tmp_path):
        # the default config is the n = 2 gate at L = 1, truncation 30
        config = tmp_path / "config.json"
        config.write_text("{}")
        assert run("coupling", config, tmp_path) == 0
        lines = (tmp_path / "coupling.csv").read_text().strip().splitlines()
        assert lines[0] == "a1,a2,b1,b2,value"
        assert len(lines) == 1 + len(matrix_n2_30.entries)
        doc = json.loads((tmp_path / "coupling.json").read_text())
        assert len(doc["triplets"]) == len(matrix_n2_30.entries)
        for a, b, v in doc["triplets"]:
            assert matrix_n2_30.entries[(a, b)] == v


class TestEigenvalueSlope:
    """Slopes d(lambda)/d(rho) at rho = 0 are the diagonal entries int V0 phi^2."""

    def test_even_gate_slopes_vanish(self, matrix_n2_100):
        for i in range(6):
            assert abs(matrix_n2_100.values[i, i]) <= 1e-12

    def test_odd_gate_ground_slope(self, matrix_n1_100):
        want = 32 * math.pi * math.sinh(1.0) / (3 * (1 + 4 * math.pi**2))
        got = matrix_n1_100.values[0, 0]
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.9728979619121302, rel=1e-12)

    def test_hellmann_feynman(self, field_n1):
        h = 1e-4
        spec = enumerate_modes(1.0, 60)
        matrix = assemble_coupling_matrix(field_n1, spec)
        up = shifted_spectrum(spec, matrix, h)
        dn = shifted_spectrum(spec, matrix, -h)
        fd = (up.eigenvalues - dn.eigenvalues) / (2 * h)
        for pos in range(10):
            assert fd[pos] == pytest.approx(matrix.values[pos, pos], rel=1e-6)


def scalar_x1(n, j1, k1):
    """Scalar closed form of A, in Python arithmetic."""
    if (j1 + k1 + n) % 2 == 0:
        return 0.0
    num = 4.0 * j1 * k1 * n
    den = (j1 + k1 - n) * (j1 - k1 + n) * (-j1 + k1 + n) * (j1 + k1 + n)
    return num / den


def scalar_x2(n, j2, k2, L):
    """Scalar closed form of B, in Python arithmetic."""
    sign = -1.0 if (j2 + k2) % 2 else 1.0
    num = 2.0 * sign * L**2 * n * math.pi**2 * j2 * k2 * math.sinh(n * L)
    den = (n**2 * L**2 + math.pi**2 * (j2 - k2) ** 2) * (n**2 * L**2 + math.pi**2 * (j2 + k2) ** 2)
    return num / den


def loop_oracle(terms, modes, L, zero_tol):
    """Pair-by-pair closed-form assembly and threshold rule in scalar Python.

    The upper triangle is computed and mirrored; a row's maximum runs over
    the mirrored array.  Returns the symmetric dense matrix, the stored
    {(a, b): value} entries in insertion order and the dropped count.
    """
    n = len(modes)
    raw = np.zeros((n, n))
    for m, c in terms:
        scale = (4.0 / (math.pi * L)) * c / math.cosh(m * L)
        for i in range(n):
            for j in range(i, n):
                a, b = modes[i], modes[j]
                a1 = scalar_x1(m, a.j1, b.j1)
                if a1 == 0.0:
                    continue
                raw[i, j] += scale * a1 * scalar_x2(m, a.j2, b.j2, L)
    if zero_tol is None:
        row_max = np.abs(raw + np.triu(raw, 1).T).max(axis=1)
        thresh = 1e-12 * np.maximum.outer(row_max, row_max)
    else:
        thresh = np.full_like(raw, zero_tol)
    entries, dropped = {}, 0
    for i in range(n):
        for j in range(i, n):
            if abs(raw[i, j]) <= thresh[i, j]:
                dropped += 1
            else:
                entries[(i, j)] = float(raw[i, j])
    dense = np.zeros((n, n))
    for (a, b), v in entries.items():
        dense[a, b] = dense[b, a] = v
    return dense, entries, dropped


class TestArrayKernel:
    """The array assembly against the scalar loop, bit for bit."""

    # n = 60000 puts the x1 denominators above 2**63
    @pytest.mark.parametrize("n, L", [(1, 1.03), (2, 1.03), (3, 1.03), (60000, 0.01)])
    def test_closed_forms_match_scalar(self, n, L):
        j = np.arange(1, 41)
        a1 = [[scalar_x1(n, p, q) for q in range(1, 41)] for p in range(1, 41)]
        x2 = [[scalar_x2(n, p, q, L) for q in range(1, 41)] for p in range(1, 41)]
        assert np.array_equal(coupling_x1_closed(n, j[:, None], j[None, :]), a1)
        assert np.array_equal(coupling_x2_closed(n, j[:, None], j[None, :], L), x2)

    @pytest.mark.parametrize(
        "gate, L, zero_tol",
        [
            ({"kind": "fourier_mode", "n": 1}, 1.03, None),
            ({"kind": "fourier_mode", "n": 2}, 1.03, None),
            ({"kind": "fourier_mode", "n": 3}, 1.03, None),
            ({"kind": "sine_series", "coefficients": [0.3, -0.7, 0.5]}, 1.03, None),
            ({"kind": "sine_series", "coefficients": [0.3, -0.7, 0.5]}, 1.03, 1e-3),
        ],
        ids=["n1", "n2", "n3", "series", "series-zero-tol"],
    )
    def test_matches_scalar_loop(self, gate, L, zero_tol, tmp_path):
        N = 100
        if gate["kind"] == "fourier_mode":
            terms = [fourier_term(gate["n"], L)]
        else:
            terms = enumerate(gate["coefficients"], start=1)
        field = solve_full_gate(terms, L)
        spectrum = enumerate_modes(L, N)
        m = assemble_coupling_matrix(field, spectrum, zero_tol)
        dense, entries, dropped = loop_oracle(field.terms, spectrum.modes, L, zero_tol)
        assert np.array_equal(m.values, dense)
        assert m.dropped == dropped
        assert list(m.entries.items()) == list(entries.items())
        assert np.array_equal(m.values, m.values.T)
        assert len(m.entries) + m.dropped == N * (N + 1) // 2

        doc = {"L": L, "truncation": N, "gate": gate}
        if zero_tol is not None:
            doc["tolerances"] = {"zero_tol": zero_tol}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run("coupling", config, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["stored"] == len(m.entries)
        assert report["results"]["dropped"] == m.dropped

    def test_negative_zero_tol_rejected(self, field_n2, spec30):
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_coupling_matrix(field_n2, spec30, -1e-3)

    def test_even_parity_entries_survive_overflow(self, tmp_path):
        # at L = 354 the n = 2 factor B overflows to inf, and every entry
        # among the first three modes (j1 = 1, 2, 3) has even parity
        doc = {"L": 354.0, "truncation": 3, "gate": {"kind": "fourier_mode", "n": 2}}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run("coupling", config, tmp_path / "out") == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["stored"] == 0
        assert report["results"]["dropped"] == 6


def segment_field(a, b, trace_mode, L, n):
    """FD partial-gate field, with the trace the CLI poses on the snapped segment."""
    segment = GateSegment(a, b)
    return solve_partial_gate_fd(segment, segment_trace(segment, trace_mode, L, n), L, n, n)


def cellwise_oracle(field, spectrum, nodes):
    """Normalized entries by Gauss-Legendre with one panel per lattice cell.

    The bilinear interpolant is smooth inside each cell, so the rule
    converges geometrically once `nodes` resolves the mode frequencies.
    """
    L = spectrum.L
    x1, w1 = panel_rule(0.0, math.pi, field.x1.size - 1, nodes)
    x2, w2 = panel_rule(0.0, L, field.x2.size - 1, nodes)
    v = field.values_on(x1, x2)
    modes = spectrum.modes
    s1 = np.array([np.sin(m.j1 * x1) for m in modes])
    s2 = np.array([np.sin(m.j2 * math.pi * x2 / L) for m in modes])
    out = np.zeros((len(modes), len(modes)))
    for a in range(len(modes)):
        core = (s1[a] * s1 * w1) @ v
        out[a] = np.einsum("by,by->b", core, s2[a] * s2 * w2)
    return (4.0 / (math.pi * L)) * out


class TestLatticeFields:
    @pytest.mark.parametrize(
        "trace_mode, n, truncation, nodes",
        [(1, 64, 60, 8), (2, 64, 60, 8), (3, 64, 60, 8), (2, 16, 100, 16)],
    )
    def test_segment_entries_match_cellwise_oracle(self, trace_mode, n, truncation, nodes):
        # at 16^2 and truncation 100 the frequencies j1 + k1 reach 40 > 16,
        # so the entries read folded lattice-cosine frequencies
        L = 1.03
        field = segment_field(0.6, 2.2, trace_mode, L, n)
        spectrum = enumerate_modes(L, truncation)
        m = assemble_coupling_matrix(field, spectrum, 0.0)
        got = m.values
        want = cellwise_oracle(field, spectrum, nodes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize(
        "a, b, trace_mode, nx, ny, truncation",
        [
            (0.6, 2.2, 1, 64, 64, 60),
            (0.03, 3.11, 2, 64, 48, 60),
            (0.6, 2.2, 2, 16, 16, 100),
            (0.6, 2.2, 1, 256, 256, 60),
        ],
    )
    def test_entries_match_the_dct_oracle(self, a, b, trace_mode, nx, ny, truncation):
        # the same cosine sums as one DCT-I of the node values; at 16^2 and
        # truncation 100 the frequencies reach 40 > 16, which the DCT table
        # holds only at folded indices
        L = 1.03
        segment = GateSegment(a, b)
        trace = segment_trace(segment, trace_mode, L, nx)
        field = solve_partial_gate_fd(segment, trace, L, nx, ny)
        spectrum = enumerate_modes(L, truncation)
        want = lattice_coupling_dct(field, spectrum, spectrum)
        got = coupling_block(field, spectrum, spectrum)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("n, L", [(2, 1.0), (1, 1.3)])
    def test_rasterized_closed_form_converges_at_second_order(self, n, L):
        spectrum = enumerate_modes(L, 30)
        full = solve_full_gate([fourier_term(n, L)], L)
        exact = assemble_coupling_matrix(full, spectrum)
        scale = max(abs(v) for v in exact.entries.values())
        errors = []
        for size in (64, 128, 256, 512):
            m = assemble_coupling_matrix(full.rasterize(size, size), spectrum)
            assert set(m.entries) == set(exact.entries)
            errors.append(np.abs(m.values - exact.values).max() / scale)
        for coarse, fine in zip(errors[:-1], errors[1:]):
            assert 3.9 <= coarse / fine <= 4.1

    @pytest.mark.parametrize("trace_mode", [1, 2])
    def test_segment_couplings_converge_at_order_one_half(self, trace_mode):
        # ends on nodes of every lattice, so each nx solves the same segment;
        # the scheme is second order locally, but the trace's jumps at the
        # segment ends leave the couplings order 1/2 in the spacing
        a, b, L = 6 * math.pi / 32, 22 * math.pi / 32, 1.03
        spectrum = enumerate_modes(L, 60)
        values = [
            assemble_coupling_matrix(segment_field(a, b, trace_mode, L, nx), spectrum, zero_tol=0).values
            for nx in (32, 64, 128, 256)
        ]
        diffs = [np.abs(fine - coarse).max() for coarse, fine in zip(values[:-1], values[1:])]
        for coarse, fine in zip(diffs[:-1], diffs[1:]):
            assert 1.3 <= coarse / fine <= 1.6

    def test_other_height_rejected(self):
        field = solve_full_gate([fourier_term(1, 1.2)], 1.2).rasterize(32, 32)
        with pytest.raises(ValueError, match="lies on L = 1.2, not on L = 1.0"):
            assemble_coupling_matrix(field, enumerate_modes(1.0, 10))

    def test_other_spectral_height_rejected(self):
        field = solve_full_gate([fourier_term(2, 1.0)], 2.0)
        with pytest.raises(ValueError, match="lies on L = 2.0, not on L = 1.0"):
            assemble_coupling_matrix(field, enumerate_modes(1.0, 10))

    def test_square_is_bitwise_symmetric(self):
        field = segment_field(0.6, 2.2, 2, 1.03, 64)
        spectrum = enumerate_modes(1.03, 200)
        block = coupling_block(field, spectrum, spectrum)
        assert np.array_equal(block, block.T)

    def test_other_field_types_rejected(self, field_n1, spec30):
        class Sampled:
            values_on = field_n1.values_on

        with pytest.raises(ValueError, match="SpectralField or a GridField"):
            assemble_coupling_matrix(Sampled(), spec30)


class TestCouplingBlock:
    """Any two mode windows read the same entries as the square over their union."""

    @pytest.mark.parametrize("kind", ["series", "segment"])
    def test_head_by_tail_block_is_a_block_of_the_square(self, kind):
        L = 1.03
        if kind == "series":
            field = solve_full_gate(enumerate([0.3, -0.7, 0.5], start=1), L)
        else:
            field = segment_field(0.6, 2.2, 2, L, 64)
        full = enumerate_modes(L, 1600)
        head = enumerate_modes(L, 400)
        assert np.array_equal(head.j1, full.j1[:400]) and np.array_equal(head.j2, full.j2[:400])
        tail = Spectrum(L, full.j1[400:], full.j2[400:], full.eigenvalues[400:])
        block = coupling_block(field, head, tail)
        assert block.shape == (400, 1200)
        assert np.array_equal(block, coupling_block(field, full, full)[:400, 400:])

    def test_windows_on_another_height_rejected(self, field_n2, spec30):
        with pytest.raises(ValueError, match="lies on L = 1.0, not on L = 2.0"):
            coupling_block(field_n2, spec30, enumerate_modes(2.0, 10))
