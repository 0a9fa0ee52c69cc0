"""Laplace-Dirichlet spectra of the rectangle (0,pi) x (0,L) and perturbation tools.

Eigenpairs are indexed by (j1, j2) with

    lambda = j1**2 + j2**2 * pi**2 / L**2
    phi(x) = (2 / sqrt(pi*L)) * sin(j1*x1) * sin(j2*pi*x2/L)

Resonance scans, Galerkin spectra of -Delta + rho*V0, and Hadamard shape
derivatives of simple eigenvalues all operate on this parameterization.
A `Spectrum` is also the Galerkin window: every coupling matrix, shifted
spectrum and Galerkin state spans all of the spectrum it was built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateEigenvalueError

WALLS = ("left", "right", "bottom", "top")
# composite Gauss-Legendre rule of the shape derivative's wall integral
SHAPE_PANELS = 16
SHAPE_NODES = 16
# candidate pairs per chunk of the tolerance-window scans
SCAN_CHUNK = 1 << 20
# violations check_weak_nonresonance lists; `resonance` writes them all
LISTED_VIOLATIONS = 200


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ordered truncation of the rectangle spectrum: three read-only arrays.

    Eigenvalues are nondecreasing; exact ties are broken lexicographically
    in (j1, j2) so enumeration is reproducible in degenerate geometries
    (L**2 a rational multiple of pi**2).  A dict maps each mode, a plain
    (j1, j2) tuple of ints, to its position.
    """

    L: float
    j1: np.ndarray
    j2: np.ndarray
    eigenvalues: np.ndarray
    _positions: dict = field(init=False, repr=False)

    def __post_init__(self):
        for values in (self.j1, self.j2, self.eigenvalues):
            values.flags.writeable = False
        modes = zip(self.j1.tolist(), self.j2.tolist())
        object.__setattr__(self, "_positions", {m: i for i, m in enumerate(modes)})

    def __len__(self):
        return self.eigenvalues.size

    @property
    def modes(self) -> list[tuple[int, int]]:
        return list(self._positions)

    def position(self, mode) -> int:
        """Index of `mode` in the ordering; ValueError if absent."""
        try:
            return self._positions[tuple(mode)]
        except KeyError:
            raise ValueError(f"mode {tuple(mode)} not in spectrum") from None


def eigenfunction_on_grid(mode: tuple[int, int], L: float, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Normalized eigenfunction evaluated on the outer product of node arrays."""
    c = 2.0 / math.sqrt(math.pi * L)
    return c * np.outer(np.sin(mode[0] * x1), np.sin(mode[1] * math.pi * x2 / L))


def enumerate_modes(L: float, count: int) -> Spectrum:
    """Return the `count` smallest eigenpairs of the rectangle, sorted.

    The candidate box j1 <= b1, j2 <= b2 starts as the bounding box of
    lambda <= 4*count/L, which by Weyl's law holds about `count` modes, cut
    to `count` per side (the `count` modes (k, 1), or (1, k), come before
    any mode further out along that axis); either way it holds at least
    `count` candidates.  Each side is doubled until the smallest eigenvalue
    beyond it strictly exceeds the last included one, so no mode below the
    cutoff can be missed.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if count < 1:
        raise ValueError("count must be >= 1")
    vert = math.pi**2 / L**2
    b1 = min(count, math.ceil(math.sqrt(4 * count / L)) + 1)
    b2 = min(count, math.ceil(math.sqrt(4 * count * L) / math.pi) + 1)
    while True:
        j1, j2 = (g.ravel() for g in np.mgrid[1 : b1 + 1, 1 : b2 + 1])
        lam = j1**2 + vert * j2**2
        order = np.lexsort((j2, j1, lam))
        cutoff = lam[order[count - 1]]
        short1 = cutoff >= (b1 + 1) ** 2 + vert
        short2 = cutoff >= 1 + vert * (b2 + 1) ** 2
        if not (short1 or short2):
            break
        b1 *= 2 if short1 else 1
        b2 *= 2 if short2 else 1
    keep = order[:count]
    return Spectrum(L=L, j1=j1[keep], j2=j2[keep], eigenvalues=lam[keep])


def window_pairs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (row, index) with lo[row] <= index < hi[row], as two arrays.

    Row-major, the order of a double loop over searchsorted windows.
    """
    counts = hi - lo
    rows = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return rows, lo[rows] + np.arange(rows.size) - starts[rows]


def _close_pair_chunks(values: np.ndarray, tol: float):
    """Pairs i < j of a sorted nonnegative array with values[j] - values[i] <= tol.

    Yields i, j and |values[j] - values[i]| row-major, in chunks of whole
    rows holding about SCAN_CHUNK candidate pairs each (a single row may hold
    more).  Rounding is monotone, so the j of one i are a prefix of i+1,
    i+2, ..., which the window up to the float after values[i] + tol holds;
    it is then filtered.
    """
    hi = np.searchsorted(values, np.nextafter(values + tol, np.inf), side="right")
    ends = np.cumsum(hi - np.arange(1, values.size + 1))
    start = 0
    while start < values.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + SCAN_CHUNK, side="right")))
        i, j = window_pairs(np.arange(start + 1, stop + 1), hi[start:stop])
        i += start
        gaps = values[j] - values[i]
        keep = gaps <= tol
        # rebound so the suspended generator holds only the hits
        i, j, gaps = i[keep], j[keep], np.abs(gaps[keep])
        yield i, j, gaps
        start = stop


def check_simplicity(spectrum: Spectrum, tol: float) -> list[tuple[int, int, float]]:
    """All (a, b, gap) position pairs a < b whose eigenvalues collide within `tol`.

    Positions are 0-based and named by `spectrum.modes`.  An empty list
    certifies simplicity at this truncation and tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return [
        pair
        for i, j, gaps in _close_pair_chunks(spectrum.eigenvalues, tol)
        for pair in zip(i.tolist(), j.tolist(), gaps.tolist())
    ]


@dataclass(frozen=True)
class NonresonanceScan:
    """Weak non-resonance violations: their count and the first LISTED_VIOLATIONS.

    `rows` holds ((s1, s2), (t1, t2), gap) quadruples in lexicographic
    order.  `len()` is the count, and there is deliberately no iteration
    or indexing: the rows are a prefix, not the violations.
    """

    count: int
    rows: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]

    def __len__(self):
        return self.count


def check_weak_nonresonance(eigenvalues: Sequence[float], tol: float) -> NonresonanceScan:
    """Count coinciding eigenvalue differences and list the first LISTED_VIOLATIONS.

    A violation is a quadruple ((s1, s2), (t1, t2), gap) of 0-based
    positions with s1 != s2, (s1, s2) != (t1, t2) and
    |(lam_s1 - lam_s2) - (lam_t1 - lam_t2)| <= tol.  Each is oriented so
    both differences are nonnegative, and the (s <-> t) swap and the joint
    swap are deduplicated.  On four levels a > b > c > d the relation
    lam_a - lam_b = lam_c - lam_d also reads lam_a - lam_c = lam_b - lam_d,
    and it is counted once: as ((a, b), (c, d)), at the smaller frequency,
    and as ((a, c), (b, d)) only where rounding leaves just that pairing
    within tol.  Each row has (s1, s2) < (t1, t2), and the listed
    rows come first in lexicographic ((s1, s2), (t1, t2)) order.  A count
    of 0 certifies weak non-resonance at this truncation/tolerance.

    Candidate pairs are walked in chunks, keeping only the smallest keys
    seen, so memory does not grow with the number of violations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = np.asarray(eigenvalues, dtype=float)
    n = lam.size
    if np.any(np.diff(lam) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    lo, hi = np.triu_indices(n, k=1)
    # orient each pair as (larger position, smaller position): differences >= 0
    diffs = lam[hi] - lam[lo]
    # ties may sort in any order; hi * n + lo ranks oriented pairs lexicographically
    order = np.argsort(diffs)
    diffs, code = diffs[order], (hi * n + lo)[order]
    del lo, hi, order  # three n(n-1)/2 arrays the chunked walk no longer needs
    count = 0
    keys = np.empty(0, dtype=np.int64)
    gaps = np.empty(0)
    for i, j, chunk_gaps in _close_pair_chunks(diffs, tol):
        first, second = np.minimum(code[i], code[j]), np.maximum(code[i], code[j])
        # a hit (q1, q2) = first, (p1, p2) = second on levels p1 > q1 > p2 > q2
        # is also the pairing (p1, q1), (p2, q2), at the smaller frequency
        # lam_p1 - lam_q1: drop it where that pairing, by the walk's own
        # subtraction, is a hit too
        pick = np.flatnonzero(
            (second // n > first // n) & (first % n < second % n) & (second % n < first // n)
        )
        (q1, q2), (p1, p2) = np.divmod(first[pick], n), np.divmod(second[pick], n)
        pick = pick[np.abs((lam[p1] - lam[q1]) - (lam[p2] - lam[q2])) <= tol]
        count += i.size - pick.size
        # codes are < n**2, so first * n**2 + second orders (first, second)
        # lexicographically; it fits int64 for n below 55,000
        keys = np.concatenate((keys, np.delete(first * n**2 + second, pick)))
        gaps = np.concatenate((gaps, np.delete(chunk_gaps, pick)))
        del first, second, pick, p1, p2, q1, q2  # chunk-sized: freed before the next chunk
        if keys.size > LISTED_VIOLATIONS:
            smallest = np.argpartition(keys, LISTED_VIOLATIONS - 1)[:LISTED_VIOLATIONS]
            keys, gaps = keys[smallest], gaps[smallest]
    order = np.argsort(keys)
    first, second = np.divmod(keys[order], n**2)
    (a1, a2), (b1, b2) = np.divmod(first, n), np.divmod(second, n)
    first_pairs = zip(a1.tolist(), a2.tolist())
    rows = tuple(zip(first_pairs, zip(b1.tolist(), b2.tolist()), gaps[order].tolist()))
    return NonresonanceScan(count=count, rows=rows)


def shifted_spectrum(spectrum: Spectrum, matrix, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize diag(lambda) + rho * matrix.values over the modes of `spectrum`.

    Returns the `(eigenvalues, eigenvectors)` pair of `np.linalg.eigh`:
    the eigenvalues ascending, and column k of `eigenvectors` the
    coefficients of the k-th shifted eigenfunction in the unshifted
    eigenbasis.  `matrix` is a CouplingMatrix over the same modes.  rho
    may be slightly negative: central differencing of eigenvalue slopes at
    rho = 0 needs both signs even though physical controls live in
    [0, delta].
    """
    if len(matrix) != len(spectrum):
        raise ValueError(f"{len(matrix)}-mode coupling matrix for a {len(spectrum)}-mode spectrum")
    return np.linalg.eigh(np.diag(spectrum.eigenvalues) + rho * matrix.values)


def _normal_derivative_sq(mode: tuple[int, int], L: float, wall: str, s: np.ndarray) -> np.ndarray:
    # squared outward normal derivative of the normalized eigenfunction,
    # as a function of arclength s along the wall
    j1, j2 = mode
    if wall in ("left", "right"):
        return (4.0 * j1**2 / (math.pi * L)) * np.sin(j2 * math.pi * s / L) ** 2
    return (4.0 * j2**2 * math.pi / L**3) * np.sin(j1 * s) ** 2


def eigenvalue_shape_derivative(
    spectrum: Spectrum,
    mode: tuple[int, int],
    wall: str,
    profile=np.ones_like,
    *,
    simplicity_tol: float = 1e-9,
) -> float:
    """Hadamard derivative -int_wall (d(phi)/d(nu))**2 (X.nu) ds of a simple eigenvalue.

    `wall` is one of WALLS, and `profile` maps arclength along it (x2 on
    the vertical walls, x1 on the horizontal ones) to the normal
    displacement X.nu; the default is the uniform outward X.nu = 1.
    """
    if wall not in WALLS:
        raise ValueError(f"wall must be one of {WALLS}, got {wall!r}")
    pos = spectrum.position(mode)
    close = np.abs(spectrum.eigenvalues - spectrum.eigenvalues[pos]) <= simplicity_tol
    close[pos] = False
    if close.any():
        raise DegenerateEigenvalueError(
            f"eigenvalue of mode {tuple(mode)} collides with {spectrum.modes[close.argmax()]}; "
            "the Hadamard formula requires a simple eigenvalue"
        )
    length = spectrum.L if wall in ("left", "right") else math.pi
    xs, ws = np.polynomial.legendre.leggauss(SHAPE_NODES)
    edges = np.linspace(0.0, length, SHAPE_PANELS + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        pts = mid + half * xs
        vals = _normal_derivative_sq(mode, spectrum.L, wall, pts) * np.asarray(
            profile(pts), dtype=float
        )
        total += half * float(np.dot(ws, vals))
    return -total
