"""Coupling operator entries int V0 phi_j phi_k; diagonal entries are eigenvalue slopes.

For the single-mode gate trace the entries factor into 1-D integrals

    A(n, j1, k1) = int_0^pi  sin(n x1) sin(j1 x1) sin(k1 x1) dx1
    B(n, j2, k2) = int_0^L   cosh(n x2) sin(j2 pi x2/L) sin(k2 pi x2/L) dx2

with closed forms below.  A vanishes exactly when j1 + k1 + n is even
(parity law); B never vanishes.  Lattice fields (finite-difference
solutions) are integrated exactly through their bilinear interpolant.
`panel_rule` (composite Gauss-Legendre) is the independent quadrature oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn

from .errors import NumericalError
from .poisson import GridField, SpectralField
from .spectral import ModeIndex, Spectrum

COUPLING_CSV_HEADER = "a1,a2,b1,b2,value"


def panel_rule(lo: float, hi: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre points and weights on [lo, hi]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    pts = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
    wts = (halves[:, None] * ws[None, :]).ravel()
    return pts, wts


def coupling_x1_closed(n: int, j1: int, k1: int) -> float:
    """Closed form of A(n, j1, k1); zero exactly when j1 + k1 + n is even."""
    if min(n, j1, k1) < 1:
        raise ValueError("indices must be >= 1")
    if (j1 + k1 + n) % 2 == 0:
        return 0.0
    num = 4.0 * j1 * k1 * n
    den = (j1 + k1 - n) * (j1 - k1 + n) * (-j1 + k1 + n) * (j1 + k1 + n)
    return num / den


def coupling_x2_closed(n: int, j2: int, k2: int, L: float) -> float:
    """Closed form of B(n, j2, k2) on (0, L); never zero."""
    if min(n, j2, k2) < 1:
        raise ValueError("indices must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    sign = -1.0 if (j2 + k2) % 2 else 1.0
    num = 2.0 * sign * L**2 * n * math.pi**2 * j2 * k2 * math.sinh(n * L)
    den = (n**2 * L**2 + math.pi**2 * (j2 - k2) ** 2) * (n**2 * L**2 + math.pi**2 * (j2 + k2) ** 2)
    return num / den


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric sparse coupling operator over an ordered mode list.

    Entries are keyed by ordering positions (a, b) with a <= b; magnitudes
    at or below the effective zero tolerance are structural zeros, dropped
    at assembly and counted in `dropped`.
    """

    modes: tuple[ModeIndex, ...]
    entries: dict[tuple[int, int], float]
    zero_tol: float
    dropped: int = 0

    def __len__(self):
        return len(self.modes)

    def get(self, a: int, b: int) -> float:
        if a > b:
            a, b = b, a
        return self.entries.get((a, b), 0.0)

    def to_dense(self, truncation: int | None = None) -> np.ndarray:
        n = len(self.modes) if truncation is None else truncation
        if n > len(self.modes):
            raise ValueError("truncation exceeds coupling matrix size")
        out = np.zeros((n, n))
        for (a, b), v in self.entries.items():
            if a < n and b < n:
                out[a, b] = v
                out[b, a] = v
        return out

    def stored_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.entries)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(COUPLING_CSV_HEADER + "\n")
            for a, b in self.stored_pairs():
                ma, mb = self.modes[a], self.modes[b]
                fh.write(
                    f"{ma.j1},{ma.j2},{mb.j1},{mb.j2},{self.entries[(a, b)]:.17g}\n"
                )

    def to_json_dict(self) -> dict:
        return {
            "modes": [list(m) for m in self.modes],
            "triplets": [[a, b, self.entries[(a, b)]] for a, b in self.stored_pairs()],
            "zero_tol": self.zero_tol,
            "dropped": self.dropped,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _raw_entries_spectral(field: SpectralField, modes, L: float) -> np.ndarray:
    n = len(modes)
    out = np.zeros((n, n))
    for m, c in field.terms:
        scale = (4.0 / (math.pi * L)) * c / math.cosh(m * L)
        for i in range(n):
            for j in range(i, n):
                a, b = modes[i], modes[j]
                a1 = coupling_x1_closed(m, a.j1, b.j1)
                if a1 == 0.0:
                    continue
                out[i, j] += scale * a1 * coupling_x2_closed(m, a.j2, b.j2, L)
    return out


def _lattice_spacing(nodes: np.ndarray, span: float, axis: str) -> float:
    """Spacing of `nodes` if they are the uniform lattice on [0, span]; else ValueError."""
    cells = nodes.size - 1
    if cells < 1 or not np.allclose(
        nodes, np.linspace(0.0, span, cells + 1), rtol=0.0, atol=1e-12 * span
    ):
        raise ValueError(
            f"grid field {axis} nodes are not a uniform lattice on [0, {span!r}]"
        )
    return span / cells


def _raw_entries_lattice(field: GridField, modes, L: float) -> np.ndarray:
    """Exact integrals of the bilinear interpolant of a lattice field.

    On the uniform lattice x_i = i*h the hat functions h_i integrate
    cosines in closed form, with w_i the trapezoid weight (1/2 at both
    ends) and sinc(u) = sin(u)/u:

        int h_i(x) cos(f x) dx = w_i * h * cos(f x_i) * sinc^2(f h/2).

    sin(j x) sin(k x) is half the difference of the cosines at j - k and
    j + k, so every entry is four lattice cosine sums, which one DCT-I of
    the node values tabulates.  On an n-cell axis the lattice cosine is
    even and 2n-periodic in the (integer) frequency, so frequencies above
    n fold back into the table.
    """
    h1 = _lattice_spacing(field.x1, math.pi, "x1")
    h2 = _lattice_spacing(field.x2, L, "x2")
    nx, ny = field.x1.size - 1, field.x2.size - 1
    table = (h1 * h2 / 4.0) * dctn(field.values, type=1)
    j1 = np.array([m.j1 for m in modes])
    j2 = np.array([m.j2 for m in modes])

    def factor(freq, n):
        # sinc^2 hat weight and folded DCT index of an integer frequency in
        # units of pi/span; np.sinc(x) is sin(pi x)/(pi x), and f h/2 = pi freq/(2n)
        freq = np.abs(freq)
        fold = freq % (2 * n)
        return np.sinc(freq / (2 * n)) ** 2, np.where(fold > n, 2 * n - fold, fold)

    out = np.zeros((len(modes), len(modes)))
    for s in (1, -1):
        w1, f1 = factor(j1[:, None] + s * j1[None, :], nx)
        for t in (1, -1):
            w2, f2 = factor(j2[:, None] + t * j2[None, :], ny)
            out += (s * t) * w1 * w2 * table[f1, f2]
    return out / (math.pi * L)


def assemble_coupling_matrix(
    field,
    spectrum: Spectrum,
    truncation: int,
    zero_tol: float | None = None,
) -> CouplingMatrix:
    """Coupling matrix over the first `truncation` ordered modes.

    A SpectralField (full-gate sine superposition) uses the closed forms; a
    GridField must sample the uniform lattice on [0, pi] x [0, L], and its
    bilinear interpolant is integrated exactly.  With zero_tol=None the
    structural-zero threshold is 1e-12 times the largest entry magnitude
    in either touching row, which keeps large cosh-inflated rows from
    misclassifying true zeros.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > len(spectrum):
        raise ValueError("truncation exceeds spectrum size")
    modes = spectrum.modes[:truncation]
    L = spectrum.L
    if isinstance(field, SpectralField):
        raw = _raw_entries_spectral(field, modes, L)
    elif isinstance(field, GridField):
        raw = _raw_entries_lattice(field, modes, L)
    else:
        raise ValueError(
            f"gate field must be a SpectralField or a GridField, not {type(field).__name__}"
        )
    if not np.all(np.isfinite(raw)):
        raise NumericalError("coupling entries overflow the float range")

    if zero_tol is None:
        row_max = np.abs(raw).max(axis=1)
        thresh = 1e-12 * np.maximum.outer(row_max, row_max)
        effective = float(thresh.max())
    else:
        thresh = np.full_like(raw, zero_tol)
        effective = float(zero_tol)

    entries: dict[tuple[int, int], float] = {}
    dropped = 0
    for i in range(truncation):
        for j in range(i, truncation):
            if abs(raw[i, j]) <= thresh[i, j]:
                dropped += 1
            else:
                entries[(i, j)] = float(raw[i, j])
    return CouplingMatrix(
        modes=tuple(modes), entries=entries, zero_tol=effective, dropped=dropped
    )

