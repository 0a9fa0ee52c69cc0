"""Gate potentials and self-consistent fields on the rectangle (0,pi) x (0,L).

The gate potential V0 is harmonic with Dirichlet trace chi on the gate
(top side), Dirichlet 0 on the source/drain sides and homogeneous Neumann
on the bulk (bottom) side.  For a full gate with a sine-series trace the
solution is closed form; a partial gate is solved by second-order finite
differences.  The Hartree field W solves -Delta W = alpha * density with
Dirichlet 0 on top and sides, Neumann 0 at the bottom, via the separable
basis sin(j1*x1) * cos((k2+1/2)*pi*x2/L) which matches those mixed
conditions exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.fft import dctn, dstn, idstn

from .errors import SolverFailureError

CSV_HEADER = "x1,x2,value"


@dataclass(frozen=True)
class GateProfile:
    """Dirichlet datum chi on the full gate, vanishing at x1 in {0, pi}.

    kind "fourier_mode": chi(x1) = cosh(n*L) * sin(n*x1).
    kind "sine_series":  chi(x1) = sum_m c_m sin(m*x1), m = 1..len(c).
    """

    kind: str
    L: float
    n: int = 0
    coefficients: tuple[float, ...] = ()

    @staticmethod
    def fourier_mode(n: int, L: float) -> "GateProfile":
        if n < 1:
            raise ValueError("fourier mode index n must be >= 1")
        if L <= 0:
            raise ValueError("L must be positive")
        return GateProfile(kind="fourier_mode", L=L, n=n)

    @staticmethod
    def sine_series(coefficients: Sequence[float], L: float) -> "GateProfile":
        if L <= 0:
            raise ValueError("L must be positive")
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ValueError("sine series needs at least one coefficient")
        return GateProfile(kind="sine_series", L=L, coefficients=coeffs)

    def trace(self, x1: np.ndarray) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        if self.kind == "fourier_mode":
            return math.cosh(self.n * self.L) * np.sin(self.n * x1)
        out = np.zeros_like(x1)
        for m, c in enumerate(self.coefficients, start=1):
            if c != 0.0:
                out += c * np.sin(m * x1)
        return out


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

    def values_on(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """Field on the outer product of node arrays, shape (len(x1), len(x2))."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros((x1.size, x2.size))
        for m, c in self.terms:
            den = gate_term_cosh(m, self.L)
            out += c * np.outer(np.sin(m * x1), np.cosh(m * x2) / den)
        return out

    def __call__(self, x1, x2):
        """Pointwise evaluation with broadcasting."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        out = np.zeros(np.broadcast(x1, x2).shape)
        for m, c in self.terms:
            den = gate_term_cosh(m, self.L)
            out = out + c * np.sin(m * x1) * np.cosh(m * x2) / den
        return out

    def rasterize(self, nx: int, ny: int) -> "GridField":
        x1 = np.linspace(0.0, math.pi, nx + 1)
        x2 = np.linspace(0.0, self.L, ny + 1)
        return GridField(x1, x2, self.values_on(x1, x2), meta={"method": "closed-form"})


class GridField:
    """Scalar field sampled on the outer product of node arrays."""

    def __init__(self, x1: np.ndarray, x2: np.ndarray, values: np.ndarray, meta: dict | None = None):
        self.x1 = np.asarray(x1, dtype=float)
        self.x2 = np.asarray(x2, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.x1.size, self.x2.size):
            raise ValueError("values shape does not match node arrays")
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

    def to_csv(self, path) -> None:
        """Row-major (x1 outer, x2 inner) CSV with 17 significant digits."""
        with open(path, "w") as fh:
            fh.write(CSV_HEADER + "\n")
            for i, a in enumerate(self.x1):
                for j, b in enumerate(self.x2):
                    fh.write(f"{a:.17g},{b:.17g},{self.values[i, j]:.17g}\n")


def solve_full_gate_mode(n: int, L: float) -> SpectralField:
    """Exact potential sin(n*x1)*cosh(n*x2) for the trace cosh(n*L)*sin(n*x1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    return SpectralField([(n, gate_term_cosh(n, L))], L)


def solve_full_gate_series(coefficients: Sequence[float], L: float) -> SpectralField:
    """Superposition sum c_m sin(m*x1)*cosh(m*x2)/cosh(m*L) for a sine-series trace."""
    if L <= 0:
        raise ValueError("L must be positive")
    return SpectralField(list(enumerate(coefficients, start=1)), L)


def solve_full_gate(profile: GateProfile) -> SpectralField:
    if profile.kind == "fourier_mode":
        return solve_full_gate_mode(profile.n, profile.L)
    return solve_full_gate_series(profile.coefficients, profile.L)


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
    with manufactured data).
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

    # Dirichlet nodes carry known values and are eliminated from the system,
    # so posed boundary data appears in the output exactly
    known = np.zeros((nx + 1, ny + 1))
    is_known = np.zeros((nx + 1, ny + 1), dtype=bool)
    is_known[0, :] = True
    is_known[nx, :] = True
    is_known[ia : ib + 1, ny] = True
    known[ia : ib + 1, ny] = trace_values

    free_index = -np.ones((nx + 1, ny + 1), dtype=int)
    free_nodes = np.argwhere(~is_known)
    free_index[~is_known] = np.arange(len(free_nodes))

    # stencil slots of each free node: centre, left, right, below, above.  A
    # Neumann row reflects its ghost row (u[i,-1] = u[i,1] at the bottom,
    # likewise on top off the gate): the outward slot is absent (clipped
    # into the lattice, masked out) and the inward one doubles.
    i, j = free_nodes.T
    nb_i = np.column_stack([i, i - 1, i + 1, i, i])
    nb_j = np.column_stack([j, j, j, np.maximum(j - 1, 0), np.minimum(j + 1, ny)])
    coeff = np.empty((i.size, 5))
    coeff[:] = [-2.0 * c1 - 2.0 * c2, c1, c1, c2, c2]
    coeff[j == ny, 3] = coeff[j == 0, 4] = 2.0 * c2
    present = np.ones((i.size, 5), dtype=bool)
    present[:, 3], present[:, 4] = j > 0, j < ny
    nb_known = present & is_known[nb_i, nb_j]
    nb_free = present & ~is_known[nb_i, nb_j]

    # known neighbours move to the right-hand side slot by slot, so each
    # row subtracts its terms in stencil order
    rhs = np.zeros(len(free_nodes))
    for slot in range(5):
        k = nb_known[:, slot]
        rhs[k] -= coeff[k, slot] * known[nb_i[k, slot], nb_j[k, slot]]
    rows = np.broadcast_to(np.arange(len(free_nodes))[:, None], nb_free.shape)[nb_free]
    cols = free_index[nb_i[nb_free], nb_j[nb_free]]
    data = coeff[nb_free]

    mat = sp.csc_matrix((data, (rows, cols)), shape=(len(free_nodes), len(free_nodes)))
    sol = spla.spsolve(mat, rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverFailureError("sparse solve returned non-finite values")
    scale = max(np.abs(rhs).max(), np.abs(sol).max() * (c1 + c2), 1.0)
    residual = float(np.abs(mat @ sol - rhs).max() / scale)
    if residual > 1e-8:
        raise SolverFailureError(
            f"discrete Laplace residual {residual:.3e} above tolerance", residual=residual
        )
    values = known.copy()
    values[~is_known] = sol

    # harmonic fields attain extrema on the boundary; the 5-point scheme
    # satisfies this exactly, so a violation flags a broken solve
    boundary = np.concatenate(
        [values[0, :], values[-1, :], values[:, 0], values[:, -1]]
    )
    rng = boundary.max() - boundary.min()
    slack = 1e-12 * max(rng, 1.0)
    if values.max() > boundary.max() + slack or values.min() < boundary.min() - slack:
        raise SolverFailureError("discrete maximum principle violated")

    x1 = np.linspace(0.0, math.pi, nx + 1)
    x2 = np.linspace(0.0, L, ny + 1)
    meta = {
        "method": "sparse-lu",
        "residual": residual,
        "segment_snapped": (ia * h1, ib * h1),
        "nx": nx,
        "ny": ny,
    }
    return GridField(x1, x2, values, meta=meta)


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

    The trace is chi_n restricted to the snapped segment with its two
    endpoint values set to zero (the solver requires exact vanishing there).
    Errors are discrete L2 and H1 norms against the closed-form full-gate
    field on the same lattice.
    """
    fracs = [float(f) for f in fractions]
    if any(not 0.0 < f < 1.0 for f in fracs):
        raise ValueError("fractions must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(fracs[:-1], fracs[1:])):
        raise ValueError("fractions must be strictly increasing")
    full = solve_full_gate_mode(n, L)
    x1 = np.linspace(0.0, math.pi, nx + 1)
    x2 = np.linspace(0.0, L, ny + 1)
    reference = full.values_on(x1, x2)
    chi = GateProfile.fourier_mode(n, L)
    rows = []
    for f in fracs:
        half = 0.5 * f * math.pi
        segment = GateSegment(0.5 * math.pi - half, 0.5 * math.pi + half)
        ia, ib = segment.snap(nx)
        trace = chi.trace(x1[ia : ib + 1])
        trace[0] = 0.0
        trace[-1] = 0.0
        sol = solve_partial_gate_fd(segment, trace, L, nx, ny)
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


@dataclass(frozen=True)
class StaggeredGrid:
    """Wavefunction grid: x1 at interior integer nodes, x2 at cell midpoints.

    This placement makes three transforms exactly orthogonal at once:
    DST-I in x1 (Dirichlet sides), DST-II in x2 for the full-Dirichlet sine
    basis, and DCT-IV in x2 for the quarter-wave cosine basis of the
    Hartree problem.  `mixed_eigenvalues` holds the Laplacian eigenvalues
    of the modes sin(j1*x1)*cos((k2+1/2)*pi*x2/L), k2 = 0..ny-1, built once
    per grid for the Hartree solve.
    """

    L: float
    nx: int
    ny: int
    x1: np.ndarray = field(init=False, repr=False)
    x2: np.ndarray = field(init=False, repr=False)
    mixed_eigenvalues: np.ndarray = field(init=False, repr=False)

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

    @property
    def h1(self) -> float:
        return math.pi / self.nx

    @property
    def h2(self) -> float:
        return self.L / self.ny

    @property
    def cell_weight(self) -> float:
        """Quadrature weight per node, exact for the band-limited sine basis."""
        return self.h1 * self.h2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx - 1, self.ny)

    def sine_eigenvalues(self) -> np.ndarray:
        """Dirichlet Laplacian eigenvalues for modes (j1, j2), j2 = 1..ny."""
        j1 = np.arange(1, self.nx)
        j2 = np.arange(1, self.ny + 1)
        return (j1**2)[:, None] + ((j2 * math.pi / self.L) ** 2)[None, :]

    def sine_forward(self, values: np.ndarray) -> np.ndarray:
        out = dstn(values, type=1, axes=[0], norm="ortho")
        return dstn(out, type=2, axes=[1], norm="ortho")

    def sine_backward(self, coeffs: np.ndarray) -> np.ndarray:
        out = idstn(coeffs, type=2, axes=[1], norm="ortho")
        return dstn(out, type=1, axes=[0], norm="ortho")

    def mixed_forward(self, values: np.ndarray) -> np.ndarray:
        out = dstn(values, type=1, axes=[0], norm="ortho")
        return dctn(out, type=4, axes=[1], norm="ortho")

    def mixed_backward(self, coeffs: np.ndarray) -> np.ndarray:
        out = dctn(coeffs, type=4, axes=[1], norm="ortho")
        return dstn(out, type=1, axes=[0], norm="ortho")

    def norm(self, values: np.ndarray) -> float:
        """Discrete L2(Omega) norm."""
        return float(np.sqrt(self.cell_weight * np.sum(np.abs(values) ** 2)))


def hartree_field(density: np.ndarray, alpha: float, grid: StaggeredGrid) -> np.ndarray:
    """Raw spectral solve of -Delta W = alpha*density on the staggered grid."""
    coeffs = grid.mixed_forward(density)
    return grid.mixed_backward(alpha * coeffs / grid.mixed_eigenvalues)


def solve_hartree(density: np.ndarray, alpha: float, grid: StaggeredGrid) -> GridField:
    """Self-consistent field W with Dirichlet top/sides and Neumann bottom.

    `density` holds |psi|^2 on the staggered grid.  The quarter-wave basis
    solves the mixed boundary conditions exactly, so a single-eigenmode
    source is reproduced to machine precision.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    density = np.asarray(density, dtype=float)
    if density.shape != grid.shape:
        raise ValueError(f"density shape {density.shape} does not match grid {grid.shape}")
    if density.size and density.min() < 0:
        raise ValueError("density must be nonnegative")
    values = hartree_field(density, alpha, grid)
    return GridField(grid.x1, grid.x2, values, meta={"method": "quarter-wave-spectral"})
