"""Gate potentials and self-consistent fields on the rectangle (0,pi) x (0,L).

The gate potential V0 is harmonic with Dirichlet trace chi on the gate
(top side), Dirichlet 0 on the source/drain sides and homogeneous Neumann
on the bulk (bottom) side.  For a full gate with a sine-series trace the
solution is closed form; a partial gate is solved by second-order finite
differences.  The Hartree field W solves -Delta W = alpha * density with
Dirichlet 0 on top and sides, Neumann 0 at the bottom, via the separable
basis sin(j1*x1) * cos((k2+1/2)*pi*x2/L) which matches those mixed
conditions exactly.  The staggered grid is three dense orthonormal tables
that its callers apply by matrix products, so no FFT library is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import SolverFailureError


@dataclass(frozen=True)
class GateSegment:
    """Partial-gate footprint (a, b) strictly inside (0, pi) on the top side."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 < self.a < self.b < math.pi):
            raise ValueError("segment must satisfy 0 < a < b < pi")

    def snap(self, nx: int) -> tuple[int, int]:
        """Nearest grid-node index range [ia, ib] on an nx-cell x1 axis."""
        h1 = math.pi / nx
        ia = min(max(int(round(self.a / h1)), 1), nx - 1)
        ib = min(max(int(round(self.b / h1)), 1), nx - 1)
        if ia >= ib:
            raise ValueError("segment collapses after snapping; refine the grid")
        return ia, ib


def gate_term_cosh(m: int, L: float) -> float:
    """cosh(m*L) of gate term m; an overflow names the term and L."""
    try:
        return math.cosh(m * L)
    except OverflowError:
        raise OverflowError(
            f"cosh(m*L) overflows for gate term m={m} at L={L:g}"
        ) from None


class SpectralField:
    """Closed-form full-gate potential: sum of sin(m*x1)*cosh(m*x2)/cosh(m*L).

    `terms` maps the sine-mode number m to the trace coefficient c_m, so the
    field is exactly harmonic and takes the trace sum c_m sin(m*x1) on top.
    """

    def __init__(self, terms: Sequence[tuple[int, float]], L: float):
        self.terms = tuple((int(m), float(c)) for m, c in terms if c != 0.0)
        self.L = float(L)

    def trace(self, x1: np.ndarray) -> np.ndarray:
        """Dirichlet datum sum c_m sin(m*x1) on the gate."""
        x1 = np.asarray(x1, dtype=float)
        out = np.zeros_like(x1)
        for m, c in self.terms:
            out += c * np.sin(m * x1)
        return out

    def values_on(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Field on the outer product of node arrays, shape (len(x1), len(x2))."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros((x1.size, x2.size))
        for m, c in self.terms:
            den = gate_term_cosh(m, self.L)
            out += c * np.outer(np.sin(m * x1), np.cosh(m * x2) / den)
        return out

    def rasterize(self, nx: int, ny: int) -> "GridField":
        return GridField(self.L, self.values_on(*_lattice(self.L, nx, ny)), {"method": "closed-form"})


def _lattice(L: float, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x1 = i*pi/nx and x2 = j*L/ny of the uniform lattice of [0, pi] x [0, L]."""
    return np.linspace(0.0, math.pi, nx + 1), np.linspace(0.0, L, ny + 1)


class GridField:
    """Scalar field on the uniform lattice of [0, pi] x [0, L]: values[i, j],
    of shape (nx+1, ny+1), is the field at node (i*pi/nx, j*L/ny)."""

    def __init__(self, L: float, values: np.ndarray, meta: dict | None = None):
        self.L = float(L)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2 or min(self.values.shape) < 2:
            raise ValueError("grid field values need a 2-D lattice of at least 2 x 2 nodes")
        self.x1, self.x2 = _lattice(self.L, self.values.shape[0] - 1, self.values.shape[1] - 1)
        self.meta = dict(meta or {})

    def values_on(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Bilinear interpolation onto the outer product of target nodes."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        i = np.clip(np.searchsorted(self.x1, x1) - 1, 0, self.x1.size - 2)
        j = np.clip(np.searchsorted(self.x2, x2) - 1, 0, self.x2.size - 2)
        t = (x1 - self.x1[i]) / (self.x1[i + 1] - self.x1[i])
        s = (x2 - self.x2[j]) / (self.x2[j + 1] - self.x2[j])
        v00 = self.values[np.ix_(i, j)]
        v10 = self.values[np.ix_(i + 1, j)]
        v01 = self.values[np.ix_(i, j + 1)]
        v11 = self.values[np.ix_(i + 1, j + 1)]
        t = t[:, None]
        s = s[None, :]
        return (1 - t) * (1 - s) * v00 + t * (1 - s) * v10 + (1 - t) * s * v01 + t * s * v11


def fourier_term(n: int, L: float) -> tuple[int, float]:
    """Gate term of Fourier mode n: the trace cosh(n*L)*sin(n*x1), field sin(n*x1)*cosh(n*x2)."""
    return n, gate_term_cosh(n, L)


def solve_full_gate(terms: Sequence[tuple[int, float]], L: float) -> SpectralField:
    """Closed-form potential of the full-gate trace sum c_m sin(m*x1) given as (m, c_m) terms."""
    if L <= 0:
        raise ValueError("L must be positive")
    terms = list(terms)
    if not terms:
        raise ValueError("the gate trace needs at least one term")
    if any(m < 1 for m, _ in terms):
        raise ValueError("sine-mode numbers m must be >= 1")
    return SpectralField(terms, L)


def segment_trace(segment: GateSegment, n: int, L: float, nx: int) -> np.ndarray:
    """Mode-n trace on the snapped nodes of `segment`, both end values set to zero.

    The FD solver requires the trace to vanish exactly at the segment ends.
    """
    ia, ib = segment.snap(nx)
    x1 = _lattice(L, nx, 1)[0]
    trace = SpectralField([fourier_term(n, L)], L).trace(x1[ia : ib + 1])
    trace[0] = 0.0
    trace[-1] = 0.0
    return trace


def solve_partial_gate_fd(
    segment: GateSegment,
    trace_values: np.ndarray,
    L: float,
    nx: int,
    ny: int,
    *,
    require_endpoint_zero: bool = True,
) -> GridField:
    """Partial-gate potential by the 5-point scheme on an (nx+1) x (ny+1) lattice.

    Dirichlet 0 on both vertical sides, Dirichlet `trace_values` on the
    snapped gate nodes, homogeneous Neumann (second-order ghost elimination)
    on the bottom and on the top outside the gate.  `trace_values` covers
    the snapped node range inclusive; its endpoint entries must be exactly
    zero (set require_endpoint_zero=False only for solver-verification runs
    with manufactured data).  The operator is the Kronecker sum
    kron(d1, I) + kron(I, d2) of the 1-D second differences in x1 and x2 on
    the whole lattice; the Dirichlet nodes are sliced out and the rest is
    solved by sparse LU.
    """
    # imported here, its only user, so commands without a segment gate skip it
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    if nx < 16 or ny < 16:
        raise ValueError("grid sizes must be >= 16")
    if L <= 0:
        raise ValueError("L must be positive")
    ia, ib = segment.snap(nx)
    trace_values = np.asarray(trace_values, dtype=float)
    if trace_values.shape != (ib - ia + 1,):
        raise ValueError(
            f"expected {ib - ia + 1} trace values for snapped nodes {ia}..{ib}, "
            f"got {trace_values.shape}"
        )
    if require_endpoint_zero and (trace_values[0] != 0.0 or trace_values[-1] != 0.0):
        raise ValueError("trace values must vanish exactly at the segment endpoints")

    h1 = math.pi / nx
    h2 = L / ny
    c1 = 1.0 / h1**2
    c2 = 1.0 / h2**2

    # a Neumann end row of d2 reflects its ghost row (u[i,-1] = u[i,1] at
    # the bottom, likewise on top off the gate), so its inward entry doubles
    up = np.full(ny, c2)
    up[0] = 2.0 * c2
    d1 = sp.diags([c1, -2.0 * c1, c1], [-1, 0, 1], shape=(nx + 1, nx + 1))
    d2 = sp.diags([up[::-1], -2.0 * c2, up], [-1, 0, 1], shape=(ny + 1, ny + 1))
    op = (sp.kron(d1, sp.identity(ny + 1)) + sp.kron(sp.identity(nx + 1), d2)).tocsr()

    # Dirichlet nodes carry known values and are eliminated from the system,
    # so posed boundary data appears in the output exactly; `0.0 -` keeps
    # +0.0 on the rows with no known neighbour
    values = np.zeros((nx + 1, ny + 1))
    values[ia : ib + 1, ny] = trace_values
    known = np.zeros((nx + 1, ny + 1), dtype=bool)
    known[[0, nx], :] = True
    known[ia : ib + 1, ny] = True
    free = ~known.ravel()
    free_rows = op[free]
    mat = free_rows[:, free].tocsc()
    rhs = 0.0 - free_rows[:, ~free] @ values[known]
    # -mat is an irreducibly diagonally dominant M-matrix (non-positive
    # off-diagonals, zero row sums except next to a Dirichlet node, connected
    # lattice), so every symmetric ordering factors without pivoting
    try:
        sol = spla.splu(mat, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True}).solve(rhs)
    except RuntimeError as exc:
        raise SolverFailureError(f"sparse LU failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SolverFailureError("sparse solve returned non-finite values")
    scale = max(np.abs(rhs).max(), np.abs(sol).max() * (c1 + c2), 1.0)
    residual = float(np.abs(mat @ sol - rhs).max() / scale)
    if residual > 1e-8:
        raise SolverFailureError(f"discrete Laplace residual {residual:.3e} above tolerance")
    values[~known] = sol

    # harmonic fields attain extrema on the boundary; the 5-point scheme
    # satisfies this exactly, so a violation flags a broken solve
    boundary = np.concatenate(
        [values[0, :], values[-1, :], values[:, 0], values[:, -1]]
    )
    rng = boundary.max() - boundary.min()
    slack = 1e-12 * max(rng, 1.0)
    if values.max() > boundary.max() + slack or values.min() < boundary.min() - slack:
        raise SolverFailureError("discrete maximum principle violated")

    meta = {
        "method": "sparse-lu",
        "residual": residual,
        "segment_snapped": (ia * h1, ib * h1),
        "nx": nx,
        "ny": ny,
    }
    return GridField(L, values, meta)


def lattice_l2_error(field: GridField, reference: np.ndarray) -> float:
    """Trapezoidal L2 norm of field.values - reference on the lattice."""
    err = field.values - reference
    w1 = np.full(field.x1.size, field.x1[1] - field.x1[0])
    w1[[0, -1]] *= 0.5
    w2 = np.full(field.x2.size, field.x2[1] - field.x2[0])
    w2[[0, -1]] *= 0.5
    return float(np.sqrt(np.einsum("i,j,ij->", w1, w2, err**2)))


def lattice_h1_error(field: GridField, reference: np.ndarray) -> float:
    """Forward-difference H1 seminorm of the lattice error field."""
    err = field.values - reference
    h1 = field.x1[1] - field.x1[0]
    h2 = field.x2[1] - field.x2[0]
    dx = np.diff(err, axis=0) / h1
    dy = np.diff(err, axis=1) / h2
    return float(np.sqrt(h1 * h2 * (np.sum(dx**2) + np.sum(dy**2))))


def gate_convergence_sweep(
    fractions: Sequence[float], n: int, L: float, nx: int, ny: int
) -> list[dict]:
    """Partial-gate fields for centered gates of widths f*pi against the full gate.

    Each gate poses `segment_trace`, the mode-n trace on its snapped nodes.
    Errors are discrete L2 and H1 norms against the closed-form full-gate
    field on the same lattice.
    """
    fracs = [float(f) for f in fractions]
    if any(not 0.0 < f < 1.0 for f in fracs):
        raise ValueError("fractions must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(fracs[:-1], fracs[1:])):
        raise ValueError("fractions must be strictly increasing")
    reference = solve_full_gate([fourier_term(n, L)], L).rasterize(nx, ny).values
    rows = []
    for f in fracs:
        half = 0.5 * f * math.pi
        segment = GateSegment(0.5 * math.pi - half, 0.5 * math.pi + half)
        sol = solve_partial_gate_fd(segment, segment_trace(segment, n, L, nx), L, nx, ny)
        with np.errstate(over="ignore"):  # an overflowing error stays inf for the caller
            rows.append(
                {
                    "fraction": f,
                    "a_snapped": sol.meta["segment_snapped"][0],
                    "b_snapped": sol.meta["segment_snapped"][1],
                    "l2_error": lattice_l2_error(sol, reference),
                    "h1_error": lattice_h1_error(sol, reference),
                }
            )
    return rows


def _ortho_table(kind: str, n: int) -> np.ndarray:
    """Orthonormal DST-I, DST-II or DCT-IV matrix of size n, rows the frequencies.

    Every argument is pi*p/m for an integer product p of the two indices;
    p is reduced mod 2m before it is scaled, so each entry is as accurate
    as one with a small argument.
    """
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    if kind == "dst1":  # sqrt(2/(n+1)) sin(pi (k+1)(i+1) / (n+1))
        m, p, fn, scale = n + 1, (k + 1) * (i + 1), np.sin, math.sqrt(2.0 / (n + 1))
    elif kind == "dst2":  # sqrt(2/n) sin(pi (k+1)(2i+1) / 2n), the last row / sqrt(2)
        m, p, fn, scale = 2 * n, (k + 1) * (2 * i + 1), np.sin, math.sqrt(2.0 / n)
    else:  # dct4: sqrt(2/n) cos(pi (2k+1)(2i+1) / 4n)
        m, p, fn, scale = 4 * n, (2 * k + 1) * (2 * i + 1), np.cos, math.sqrt(2.0 / n)
    table = scale * fn(math.pi * (p % (2 * m)) / m)
    if kind == "dst2":
        table[-1] *= math.sqrt(0.5)
    return table


@dataclass(frozen=True)
class StaggeredGrid:
    """Wavefunction grid: x1 at interior integer nodes, x2 at cell midpoints.

    This placement makes three transforms exactly orthogonal at once:
    DST-I in x1 (Dirichlet sides), DST-II in x2 for the full-Dirichlet sine
    basis, and DCT-IV in x2 for the quarter-wave cosine basis of the
    Hartree problem.  Each is one dense orthonormal table built once per
    grid, rows the frequencies: `s1` and `c4` are symmetric, `d2` is not.
    The callers apply them as matrix products: `s1 @ v @ d2.T` gives the
    sine coefficients of v and `s1 @ v @ c4` its quarter-wave ones, undone
    by `s1 @ c @ d2` and `s1 @ c @ c4`.  `mixed_eigenvalues` holds the
    Laplacian eigenvalues of the modes sin(j1*x1)*cos((k2+1/2)*pi*x2/L),
    k2 = 0..ny-1, for the Hartree solve.  Grids compare and hash by
    (L, nx, ny); the arrays derived from them do not take part.
    """

    L: float
    nx: int
    ny: int
    x1: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)
    mixed_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    s1: np.ndarray = field(init=False, repr=False, compare=False)
    d2: np.ndarray = field(init=False, repr=False, compare=False)
    c4: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid sizes must be >= 4")
        h1 = math.pi / self.nx
        h2 = self.L / self.ny
        object.__setattr__(self, "x1", h1 * np.arange(1, self.nx))
        object.__setattr__(self, "x2", h2 * (np.arange(self.ny) + 0.5))
        j1 = np.arange(1, self.nx)
        k2 = np.arange(self.ny)
        object.__setattr__(
            self,
            "mixed_eigenvalues",
            (j1**2)[:, None] + (((k2 + 0.5) * math.pi / self.L) ** 2)[None, :],
        )
        object.__setattr__(self, "s1", _ortho_table("dst1", self.nx - 1))
        object.__setattr__(self, "d2", _ortho_table("dst2", self.ny))
        object.__setattr__(self, "c4", _ortho_table("dct4", self.ny))

    @property
    def cell_weight(self) -> float:
        """Quadrature weight per node, exact for the band-limited sine basis."""
        return (math.pi / self.nx) * (self.L / self.ny)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx - 1, self.ny)

    def kinetic(self, step: float) -> tuple[np.ndarray, np.ndarray]:
        """The exact kinetic step exp(i*step*Delta) as psi -> k1 @ psi @ k2.T.

        The Dirichlet Laplacian is separable in the sine basis, so the step
        is k1 = s1 diag(exp(-i j1^2 step)) s1 in x1 and
        k2 = d2.T diag(exp(-i (j2 pi/L)^2 step)) d2 in x2, j2 = 1..ny.
        """
        j1 = np.arange(1, self.nx)
        j2 = np.arange(1, self.ny + 1)
        k1 = (self.s1 * np.exp(-1j * step * j1**2)) @ self.s1
        k2 = (self.d2.T * np.exp(-1j * step * (j2 * math.pi / self.L) ** 2)) @ self.d2
        return k1, k2

    def norm(self, values: np.ndarray) -> float:
        """Discrete L2(Omega) norm."""
        return float(np.sqrt(self.cell_weight * np.sum(np.abs(values) ** 2)))


def hartree_field(density: np.ndarray, alpha: float, grid: StaggeredGrid) -> np.ndarray:
    """Spectral solve of -Delta W = alpha*density on the staggered grid.

    The quarter-wave basis meets the mixed boundary conditions exactly, so a
    single-eigenmode source is reproduced to machine precision.  The
    density is left unchanged.
    """
    coeffs = grid.s1 @ density @ grid.c4
    coeffs *= alpha
    coeffs /= grid.mixed_eigenvalues
    return grid.s1 @ coeffs @ grid.c4

