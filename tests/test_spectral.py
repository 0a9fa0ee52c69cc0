import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from oracles import relation, weak_relations, weak_resonances
from strategies import scan_inputs

from gatedqdot import spectral
from gatedqdot.coupling import assemble_coupling_matrix
from gatedqdot.errors import DegenerateEigenvalueError
from gatedqdot.spectral import (
    LISTED_VIOLATIONS,
    SCAN_CHUNK,
    BoundaryDisplacement,
    ModeIndex,
    NonresonanceScan,
    Spectrum,
    check_simplicity,
    check_weak_nonresonance,
    enumerate_modes,
    eigenvalue_shape_derivative,
    shifted_spectrum,
)

PI2 = math.pi**2


def test_first_three_modes_unit_height():
    spec = enumerate_modes(1.0, 3)
    assert spec.modes == [(1, 1), (2, 1), (3, 1)]
    assert spec.eigenvalues == pytest.approx([1 + PI2, 4 + PI2, 9 + PI2], abs=0)
    assert np.allclose(spec.eigenvalues, [10.869604401089358, 13.869604401089358, 18.869604401089358])


def test_eigenvalues_exact_formula():
    spec = enumerate_modes(1.3, 40)
    for (j1, j2), lam in zip(spec.modes, spec.eigenvalues):
        assert lam == j1**2 + j2**2 * (PI2 / 1.3**2)


def test_square_degeneracy_lexicographic():
    spec = enumerate_modes(math.pi, 3)
    assert spec.eigenvalues[0] == 2.0
    assert spec.eigenvalues[1] == spec.eigenvalues[2] == 5.0
    assert spec.modes[1] == (1, 2)
    assert spec.modes[2] == (2, 1)


def test_hundred_modes_strictly_increasing():
    spec = enumerate_modes(1.0, 100)
    assert np.all(np.diff(spec.eigenvalues) > 0)


def test_prefix_stability():
    small = enumerate_modes(1.0, 30)
    large = enumerate_modes(1.0, 100)
    assert small.modes == large.modes[:30]


def brute_force_modes(L, count):
    # the box j1, j2 <= count is complete: the count modes (k, 1) lie below
    # every mode with j1 > count, and the count modes (1, k) below every
    # mode with j2 > count
    vert = math.pi**2 / L**2
    j1, j2 = (g.ravel() for g in np.mgrid[1 : count + 1, 1 : count + 1])
    lam = j1**2 + vert * j2**2
    keep = np.lexsort((j2, j1, lam))[:count]
    return j1[keep], j2[keep], lam[keep]


@pytest.mark.parametrize("count", [1, 30, 400])
@pytest.mark.parametrize("L", [1e-3, 0.05, 1.0, math.pi, 20.0, 1e3])
def test_enumerate_matches_brute_force_box(L, count):
    spec = enumerate_modes(L, count)
    j1, j2, lam = brute_force_modes(L, count)
    for got, want in ((spec.j1, j1), (spec.j2, j2), (spec.eigenvalues, lam)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_enumerate_box_sized_per_axis():
    # at L = 0.05 the 30 lowest modes all have j2 = 1; one square box side
    # long enough for j1 would hold 346**2 candidates (a 4.9 MB peak)
    tracemalloc.start()
    try:
        spec = enumerate_modes(0.05, 30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(spec.j2.tolist()) == {1}
    assert peak <= 256 * 1024


def test_enumerate_validates():
    with pytest.raises(ValueError):
        enumerate_modes(-1.0, 5)
    with pytest.raises(ValueError):
        enumerate_modes(1.0, 0)


@pytest.mark.parametrize("L", [1.0, math.pi, 0.37])
def test_position_round_trips(L):
    spec = enumerate_modes(L, 60)
    assert all(type(j) is int for m in spec.modes for j in m)
    assert [spec.position(m) for m in spec.modes] == list(range(60))
    assert spec.position([1, 1]) == 0
    for absent in [(0, 1), (1, 60), (2, 1, 1)]:
        with pytest.raises(ValueError, match="not in spectrum"):
            spec.position(absent)


def test_spectrum_arrays_read_only():
    spec = enumerate_modes(1.0, 5)
    for values in (spec.j1, spec.j2, spec.eigenvalues):
        with pytest.raises(ValueError):
            values[0] = 0


def test_fd_laplacian_oracle():
    # independent 5-point eigensolver on (0,pi)x(0,1); O(h^2) agreement
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m = 200
    h1, h2 = math.pi / m, 1.0 / m
    dx = sp.diags([1, -2, 1], [-1, 0, 1], shape=(m - 1, m - 1), dtype=float) / h1**2
    dy = sp.diags([1, -2, 1], [-1, 0, 1], shape=(m - 1, m - 1), dtype=float) / h2**2
    lap = sp.kronsum(dy, dx, format="csc")
    vals = spla.eigsh(-lap, k=3, sigma=0, which="LM", return_eigenvectors=False)
    vals = np.sort(vals)
    spec = enumerate_modes(1.0, 3)
    assert np.allclose(vals, spec.eigenvalues, rtol=5e-4)


def test_simplicity_unit_height_50():
    spec = enumerate_modes(1.0, 50)
    assert check_simplicity(spec, 1e-9) == []


def test_simplicity_square_collision():
    spec = enumerate_modes(math.pi, 10)
    report = check_simplicity(spec, 1e-9)
    named = [(tuple(spec.modes[a]), tuple(spec.modes[b]), g) for a, b, g in report]
    assert ((1, 2), (2, 1), 0.0) in named


def test_simplicity_single_mode():
    spec = enumerate_modes(1.0, 1)
    assert check_simplicity(spec, 1e-9) == []


def test_simplicity_validates_tol():
    spec = enumerate_modes(1.0, 5)
    with pytest.raises(ValueError):
        check_simplicity(spec, 0.0)


def spectrum_of(values):
    n = len(values)
    return Spectrum(L=1.0, j1=np.arange(1, n + 1), j2=np.ones(n, dtype=int), eigenvalues=values)


# 1 + 2**-52 - 2**-53 rounds to 1.0 = tol, while 2**-53 + tol rounds to
# 1.0 < 1 + 2**-52: the window has to reach past values[i] + tol
HALF_ULP_TIE = (np.array([0.0, 2.0**-53, 1.0 + 2.0**-52]), 1.0)


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
@example(HALF_ULP_TIE)
def test_simplicity_matches_all_pairs(instance):
    values, tol = instance
    spec = spectrum_of(values)
    expected = [
        (i, j, abs(values[j] - values[i]))
        for i, j in itertools.combinations(range(len(values)), 2)
        if abs(values[j] - values[i]) <= tol
    ]
    assert check_simplicity(spec, tol) == expected


def assert_scan_matches(values, tol):
    expected = weak_relations(values, tol)
    got = check_weak_nonresonance(values, tol)
    assert got.count == len(got) == len(expected)
    assert got.rows == tuple(expected[:LISTED_VIOLATIONS])
    assert all(type(x) is int for s, t, _ in got.rows for x in s + t)
    return got


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
@example(HALF_ULP_TIE)
def test_weak_nonresonance_matches_all_pairs_of_pairs(instance):
    values, tol = instance
    lam = values.tolist()
    oriented = [(a, b) for a in range(len(lam)) for b in range(a)]
    expected = []
    for p, q in itertools.combinations(oriented, 2):
        gap = abs((lam[p[0]] - lam[p[1]]) - (lam[q[0]] - lam[q[1]]))
        if gap <= tol:
            expected.append((min(p, q), max(p, q), gap))
    assert weak_resonances(values, tol) == sorted(expected)
    # the scan counts each relation once
    assert assert_scan_matches(values, tol).count == len({relation(s, t) for s, t, _ in expected})


def test_weak_nonresonance_distinct_differences():
    assert assert_scan_matches([1.0, 2.0, 4.0], 1e-12) == NonresonanceScan(count=0, rows=())


def test_weak_nonresonance_equal_spacings():
    out = assert_scan_matches([1.0, 2.0, 3.0], 1e-12)
    assert out == NonresonanceScan(count=1, rows=(((1, 0), (2, 1), 0.0),))


def test_weak_nonresonance_integer_collision():
    # shifted copies of the j1 ladder: 64-49 = 16-1 = 15, so 64+1 = 49+16;
    # the same relation also reads 64-16 = 49-1 = 48, and only its pairing
    # at the smaller frequency, 15, is reported (the values are exact in
    # binary, so the gap is 0.0)
    lam = sorted(v + 7.25 for v in (1.0, 16.0, 49.0, 64.0))
    out = assert_scan_matches(lam, 1e-12)
    assert out == NonresonanceScan(count=1, rows=(((1, 0), (3, 2), 0.0),))


def test_weak_nonresonance_lists_first_rows():
    # every equal spacing of 0..39 collides: 9,880 pairings of 5,130
    # relations, 200 listed
    out = assert_scan_matches(np.arange(40.0), 1e-9)
    assert out.count == 5130
    assert len(out.rows) == LISTED_VIOLATIONS
    with pytest.raises(TypeError):  # the rows are a prefix, not the violations
        iter(out)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
def test_weak_nonresonance_chunks(monkeypatch, chunk):
    # small chunks spread the hits and the listed rows over many chunks;
    # a row whose window alone exceeds the chunk is a chunk of its own
    monkeypatch.setattr(spectral, "SCAN_CHUNK", chunk)
    values = np.sort(np.random.default_rng(5).integers(0, 40, 50).astype(float))
    assert assert_scan_matches(values, 0.5).count == 12551
    assert assert_scan_matches(enumerate_modes(math.pi, 40).eigenvalues, 1e-6).count == 4436


@pytest.mark.parametrize("n", [250, 300])
def test_weak_nonresonance_memory_is_set_by_the_chunk(n):
    # the square at rho = 0: 1,164,279 violations at 250 levels and
    # 2,008,536 at 300 (2,252,682 and 3,906,283 pairings); one tuple per
    # pairing peaked at 357 MB at 200 levels
    lam = enumerate_modes(math.pi, n).eigenvalues
    tracemalloc.start()
    try:
        out = check_weak_nonresonance(lam, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.count > SCAN_CHUNK
    assert peak <= 128 * SCAN_CHUNK


def test_weak_nonresonance_requires_sorted():
    with pytest.raises(ValueError):
        check_weak_nonresonance([2.0, 1.0], 1e-9)


def test_shifted_spectrum_identity_at_zero(field_n2):
    spec = enumerate_modes(1.0, 60)
    shifted = shifted_spectrum(spec, assemble_coupling_matrix(field_n2, spec), 0.0)
    assert np.abs(shifted.eigenvalues - spec.eigenvalues).max() <= 1e-12
    gram = shifted.eigenvectors.T @ shifted.eigenvectors
    assert np.abs(gram - np.eye(60)).max() <= 1e-12


def test_shifted_spectrum_truncation_guard(spec100, matrix_n2_30):
    with pytest.raises(ValueError, match="30-mode coupling matrix for a 100-mode spectrum"):
        shifted_spectrum(spec100, matrix_n2_30, 0.1)


def test_shifted_spectrum_first_order_slope(field_n1):
    # lambda_j(rho) - lambda_j(0) ~ rho * alpha_j for small rho
    rho = 1e-4
    spec = enumerate_modes(1.0, 40)
    matrix = assemble_coupling_matrix(field_n1, spec)
    shifted = shifted_spectrum(spec, matrix, rho)
    slopes = matrix.values.diagonal()
    predicted = spec.eigenvalues + rho * slopes
    rel = np.abs(shifted.eigenvalues - predicted) / np.abs(rho * slopes)
    assert rel.max() <= 1e-3


def test_shape_derivative_left_wall_values():
    spec = enumerate_modes(1.0, 30)
    disp = BoundaryDisplacement(wall="left")
    got = eigenvalue_shape_derivative(spec, ModeIndex(1, 1), disp)
    assert got == pytest.approx(-2.0 / math.pi, abs=1e-10)
    got32 = eigenvalue_shape_derivative(spec, ModeIndex(3, 2), disp)
    assert got32 == pytest.approx(-18.0 / math.pi, abs=1e-10)


def test_shape_derivative_widened_rectangle_oracle():
    # exact eigenvalues of (-t, pi) x (0, 1), differenced at t = 1e-5
    spec = enumerate_modes(1.0, 40)
    t = 1e-5
    for j1 in range(1, 5):
        lam = lambda s: j1**2 * PI2 / (math.pi + s) ** 2 + PI2
        oracle = (lam(t) - lam(-t)) / (2 * t)
        got = eigenvalue_shape_derivative(spec, ModeIndex(j1, 1), BoundaryDisplacement("left"))
        assert got == pytest.approx(oracle, abs=1e-8)


def test_shape_derivative_bottom_wall():
    spec = enumerate_modes(1.0, 30)
    t = 1e-5
    lam = lambda s: 4 + PI2 / (1.0 + s) ** 2
    oracle = (lam(t) - lam(-t)) / (2 * t)
    got = eigenvalue_shape_derivative(spec, ModeIndex(2, 1), BoundaryDisplacement("bottom"))
    assert got == pytest.approx(-2.0 * PI2, rel=1e-10)
    assert got == pytest.approx(oracle, abs=1e-7)


def test_shape_derivative_zero_profile():
    spec = enumerate_modes(1.0, 10)
    disp = BoundaryDisplacement(wall="left", profile=lambda s: np.zeros_like(s))
    assert eigenvalue_shape_derivative(spec, ModeIndex(1, 1), disp) == 0.0


def test_shape_derivative_degenerate_raises():
    spec = enumerate_modes(math.pi, 10)
    with pytest.raises(DegenerateEigenvalueError, match=r"\(1, 2\) collides with \(2, 1\);"):
        eigenvalue_shape_derivative(spec, ModeIndex(1, 2), BoundaryDisplacement("left"))


def test_boundary_displacement_validates_wall():
    with pytest.raises(ValueError):
        BoundaryDisplacement(wall="north")
