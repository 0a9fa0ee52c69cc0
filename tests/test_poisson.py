import math

import numpy as np
import pytest

from gatedqdot.poisson import (
    GateProfile,
    GateSegment,
    StaggeredGrid,
    gate_convergence_sweep,
    lattice_l2_error,
    solve_full_gate_mode,
    solve_full_gate_series,
    solve_hartree,
    solve_partial_gate_fd,
)

L = 1.0


def full_top_trace(nx, values_fn):
    """Trace values on the widest snappable segment, for manufactured runs."""
    h1 = math.pi / nx
    seg = GateSegment(0.5 * h1, math.pi - 0.5 * h1)
    ia, ib = seg.snap(nx)
    x1 = np.linspace(0.0, math.pi, nx + 1)
    return seg, values_fn(x1[ia : ib + 1])


class TestFullGate:
    def test_mode_point_values(self):
        f = solve_full_gate_mode(2, L)
        assert f(math.pi / 4, 0.0) == pytest.approx(1.0, abs=1e-15)
        f1 = solve_full_gate_mode(1, L)
        assert f1(math.pi / 2, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)

    def test_dirichlet_sides_vanish(self):
        for n in (1, 2, 5):
            f = solve_full_gate_mode(n, L)
            x2 = np.linspace(0, L, 7)
            assert np.abs(f.values_on(np.array([0.0, math.pi]), x2)).max() <= 1e-12

    def test_top_trace_matches_profile(self):
        f = solve_full_gate_series([1.0], L)
        x1 = np.linspace(0, math.pi, 33)
        assert np.abs(f.values_on(x1, np.array([L]))[:, 0] - np.sin(x1)).max() <= 1e-14

    def test_single_coefficient_equals_mode(self):
        n = 3
        series = solve_full_gate_series([0.0, 0.0, math.cosh(n * L)], L)
        mode = solve_full_gate_mode(n, L)
        x1 = np.linspace(0, math.pi, 21)
        x2 = np.linspace(0, L, 17)
        assert np.abs(series.values_on(x1, x2) - mode.values_on(x1, x2)).max() <= 1e-12

    def test_two_mode_value(self):
        f = solve_full_gate_series([1.0, 1.0], L)
        # sin(pi/2)cosh(.5)/cosh(1) + sin(pi)(...) = cosh(.5)/cosh(1)
        assert f(math.pi / 2, 0.5) == pytest.approx(0.7307628258463588, abs=1e-15)

    def test_superposition_linearity(self):
        rng = np.random.default_rng(7)
        x1 = np.linspace(0, math.pi, 19)
        x2 = np.linspace(0, L, 13)
        c1 = rng.standard_normal(4)
        c2 = rng.standard_normal(4)
        a, b = rng.standard_normal(2)
        lhs = solve_full_gate_series(a * c1 + b * c2, L).values_on(x1, x2)
        rhs = a * solve_full_gate_series(c1, L).values_on(x1, x2) + b * solve_full_gate_series(
            c2, L
        ).values_on(x1, x2)
        assert np.abs(lhs - rhs).max() <= 1e-13

    def test_fd_cross_check(self):
        # closed form against the discrete solver with the exact trace imposed
        nx = ny = 128
        f = solve_full_gate_mode(1, L)
        seg, trace = full_top_trace(nx, lambda x: math.cosh(L) * np.sin(x))
        sol = solve_partial_gate_fd(seg, trace, L, nx, ny, require_endpoint_zero=False)
        exact = f.values_on(sol.x1, sol.x2)
        assert np.abs(sol.values - exact).max() <= 1e-4

    def test_validates(self):
        with pytest.raises(ValueError):
            solve_full_gate_mode(0, L)
        with pytest.raises(ValueError):
            solve_full_gate_mode(1, -2.0)
        with pytest.raises(ValueError):
            GateProfile.sine_series([], L)


class TestPartialGate:
    def test_zero_trace_zero_field(self):
        seg = GateSegment(1.0, 2.0)
        ia, ib = seg.snap(64)
        sol = solve_partial_gate_fd(seg, np.zeros(ib - ia + 1), L, 64, 64)
        assert np.abs(sol.values).max() == 0.0

    def test_manufactured_second_order(self):
        errs = []
        for nx in (32, 64, 128):
            seg, trace = full_top_trace(nx, lambda x: np.sin(x) * math.cosh(L))
            sol = solve_partial_gate_fd(seg, trace, L, nx, nx, require_endpoint_zero=False)
            exact = np.outer(np.sin(sol.x1), np.cosh(sol.x2))
            errs.append(np.abs(sol.values - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_neumann_residual_at_least_second_order(self):
        # one-sided second-order normal derivative at the bottom wall
        resids = []
        for nx in (32, 64):
            seg, trace = full_top_trace(nx, lambda x: np.sin(x) * math.cosh(L))
            sol = solve_partial_gate_fd(seg, trace, L, nx, nx, require_endpoint_zero=False)
            h2 = L / nx
            dn = (-3 * sol.values[:, 0] + 4 * sol.values[:, 1] - sol.values[:, 2]) / (2 * h2)
            resids.append(np.abs(dn).max())
        assert resids[0] / resids[1] >= 3.2

    def test_endpoint_vanishing_enforced(self):
        seg = GateSegment(1.0, 2.0)
        ia, ib = seg.snap(64)
        bad = np.ones(ib - ia + 1)
        with pytest.raises(ValueError, match="vanish"):
            solve_partial_gate_fd(seg, bad, L, 64, 64)

    def test_trace_length_checked(self):
        seg = GateSegment(1.0, 2.0)
        with pytest.raises(ValueError, match="trace values"):
            solve_partial_gate_fd(seg, np.zeros(3), L, 64, 64)

    def test_grid_size_minimum(self):
        seg = GateSegment(1.0, 2.0)
        with pytest.raises(ValueError):
            solve_partial_gate_fd(seg, np.zeros(5), L, 8, 64)

    def test_boundary_trace_imposed_exactly(self):
        seg = GateSegment(0.8, 2.2)
        ia, ib = seg.snap(64)
        x1 = np.linspace(0, math.pi, 65)
        trace = np.sin(x1[ia : ib + 1] - x1[ia]) * np.sin(
            (x1[ia : ib + 1] - x1[ib]) * 0.5
        )
        trace[0] = 0.0
        trace[-1] = 0.0
        sol = solve_partial_gate_fd(seg, trace, L, 64, 64)
        assert np.array_equal(sol.values[ia : ib + 1, -1], trace)
        assert np.abs(sol.values[0, :]).max() == 0.0
        assert np.abs(sol.values[-1, :]).max() == 0.0

    def test_maximum_principle_on_solution(self):
        seg = GateSegment(0.9, 2.3)
        ia, ib = seg.snap(96)
        x1 = np.linspace(0, math.pi, 97)
        trace = GateProfile.fourier_mode(2, L).trace(x1[ia : ib + 1])
        trace[0] = trace[-1] = 0.0
        sol = solve_partial_gate_fd(seg, trace, L, 96, 96)
        boundary = np.concatenate(
            [sol.values[0, :], sol.values[-1, :], sol.values[:, 0], sol.values[:, -1]]
        )
        assert sol.values.max() <= boundary.max() + 1e-12
        assert sol.values.min() >= boundary.min() - 1e-12

    @pytest.mark.parametrize("trace_mode", [1, 2, 3])
    def test_stencil_vanishes_at_free_nodes(self, trace_mode):
        # the 5-point stencil applied to the returned lattice, independent
        # of the solver's matrix: reflected ghost rows at the Neumann bottom
        # and on the top row, which is free only off the gate
        n, height = 64, 1.03
        seg = GateSegment(0.6, 2.2)
        ia, ib = seg.snap(n)
        x1 = np.linspace(0, math.pi, n + 1)
        trace = GateProfile.fourier_mode(trace_mode, height).trace(x1[ia : ib + 1])
        trace[0] = trace[-1] = 0.0
        u = solve_partial_gate_fd(seg, trace, height, n, n).values
        c1, c2 = (n / math.pi) ** 2, (n / height) ** 2
        ext = np.concatenate([u[:, 1:2], u, u[:, -2:-1]], axis=1)
        lap = c1 * (u[:-2] - 2 * u[1:-1] + u[2:]) + c2 * (
            ext[1:-1, :-2] - 2 * u[1:-1] + ext[1:-1, 2:]
        )
        free = np.ones_like(lap, dtype=bool)
        free[ia - 1 : ib, n] = False
        scaled = np.abs(lap[free]) / ((c1 + c2) * np.abs(u).max())
        assert scaled.max() <= 1e-12

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            GateSegment(0.0, 1.0)
        with pytest.raises(ValueError):
            GateSegment(2.0, 1.0)
        with pytest.raises(ValueError):
            GateSegment(1.0, math.pi)


class TestGateSweep:
    def test_errors_decrease(self):
        rows = gate_convergence_sweep([0.5, 0.75, 0.9, 0.99], n=2, L=L, nx=96, ny=96)
        l2 = [r["l2_error"] for r in rows]
        assert all(b < a for a, b in zip(l2[:-1], l2[1:]))
        h1 = [r["h1_error"] for r in rows]
        assert all(b < a for a, b in zip(h1[:-1], h1[1:]))

    def test_deterministic(self):
        a = gate_convergence_sweep([0.5], n=2, L=L, nx=64, ny=64)
        b = gate_convergence_sweep([0.5], n=2, L=L, nx=64, ny=64)
        assert a == b

    def test_validates_fractions(self):
        with pytest.raises(ValueError):
            gate_convergence_sweep([0.9, 0.5], 2, L, 64, 64)
        with pytest.raises(ValueError):
            gate_convergence_sweep([0.0, 0.5], 2, L, 64, 64)


class TestHartree:
    def test_zero_alpha_zero_field(self):
        g = StaggeredGrid(L=L, nx=32, ny=32)
        dens = np.outer(np.sin(g.x1), np.cos(np.pi * g.x2 / (2 * L)))
        W = solve_hartree(dens, 0.0, g)
        assert np.abs(W.values).max() == 0.0

    def test_single_eigenmode_exact(self):
        g = StaggeredGrid(L=L, nx=48, ny=48)
        dens = np.outer(np.sin(g.x1), np.cos(np.pi * g.x2 / (2 * L)))
        W = solve_hartree(dens, 1.0, g)
        assert np.abs(W.values - dens / (1 + math.pi**2 / 4)).max() <= 1e-13

    def test_positivity_random_sources(self):
        g = StaggeredGrid(L=L, nx=48, ny=48)
        rng = np.random.default_rng(11)
        for _ in range(5):
            smooth = np.zeros(g.shape)
            for _ in range(4):
                a = int(rng.integers(1, 7))
                b = int(rng.integers(1, 7))
                smooth += rng.standard_normal() * np.outer(
                    np.sin(a * g.x1), np.sin(b * np.pi * g.x2 / L)
                )
            W = solve_hartree(smooth**2, 0.8, g)
            assert W.values.min() >= -1e-12 * max(W.values.max(), 1.0)

    def test_energy_identity(self):
        g = StaggeredGrid(L=L, nx=64, ny=64)
        rng = np.random.default_rng(3)
        smooth = np.zeros(g.shape)
        for _ in range(5):
            a = int(rng.integers(1, 6))
            b = int(rng.integers(1, 6))
            smooth += rng.standard_normal() * np.outer(
                np.sin(a * g.x1), np.sin(b * np.pi * g.x2 / L)
            )
        dens = smooth**2
        alpha = 0.7
        W = solve_hartree(dens, alpha, g)
        coeffs = g.mixed_forward(W.values)
        grad_sq = g.cell_weight * float(np.sum(g.mixed_eigenvalues * coeffs**2))
        rhs = alpha * g.cell_weight * float(np.sum(W.values * dens))
        assert grad_sq == pytest.approx(rhs, rel=1e-10)

    def test_smooth_manufactured_second_order(self):
        errs = []
        for ny in (32, 64, 128):
            g = StaggeredGrid(L=L, nx=ny, ny=ny)
            u = g.x2[None, :] / L
            exact = np.outer(np.sin(g.x1), 1 - (g.x2 / L) ** 2)
            source = np.sin(g.x1)[:, None] * ((1 - u**2) + 2 / L**2)
            W = solve_hartree(source, 1.0, g)
            errs.append(np.abs(W.values - exact).max())
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_validates(self):
        g = StaggeredGrid(L=L, nx=32, ny=32)
        dens = np.ones(g.shape)
        with pytest.raises(ValueError):
            solve_hartree(dens, -1.0, g)
        with pytest.raises(ValueError):
            solve_hartree(-dens, 1.0, g)
        with pytest.raises(ValueError):
            solve_hartree(np.ones((3, 3)), 1.0, g)


class TestStaggeredGrid:
    def test_transform_round_trips(self):
        g = StaggeredGrid(L=1.3, nx=24, ny=20)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(g.shape)
        assert np.abs(g.sine_backward(g.sine_forward(v)) - v).max() <= 1e-13
        assert np.abs(g.mixed_backward(g.mixed_forward(v)) - v).max() <= 1e-13

    def test_sampled_eigenmode_norm_is_one(self):
        g = StaggeredGrid(L=L, nx=32, ny=32)
        phi = (2 / math.sqrt(math.pi * L)) * np.outer(
            np.sin(2 * g.x1), np.sin(3 * np.pi * g.x2 / L)
        )
        assert g.norm(phi) == pytest.approx(1.0, abs=1e-13)


def test_grid_field_csv_round_trip(tmp_path):
    f = solve_full_gate_mode(2, L).rasterize(8, 8)
    path = tmp_path / "field.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + 9 * 9
    x1, x2, v = (float(t) for t in lines[1 + 9 * 2 + 3].split(","))
    # row-major: row index 2 -> x1 node 2, col 3 -> x2 node 3
    assert x1 == f.x1[2] and x2 == f.x2[3]
    assert v == f.values[2, 3]


def test_spectral_field_l2_error_helper():
    f = solve_full_gate_mode(1, L).rasterize(32, 32)
    assert lattice_l2_error(f, f.values) == 0.0
