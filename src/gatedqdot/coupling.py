"""Coupling operator entries int V0 phi_j phi_k; diagonal entries are eigenvalue slopes.

For the single-mode gate trace the entries factor into 1-D integrals

    A(n, j1, k1) = int_0^pi  sin(n x1) sin(j1 x1) sin(k1 x1) dx1
    B(n, j2, k2) = int_0^L   cosh(n x2) sin(j2 pi x2/L) sin(k2 pi x2/L) dx2

with closed forms below.  A vanishes exactly when j1 + k1 + n is even
(parity law); B never vanishes.  Lattice fields (finite-difference
solutions) are integrated exactly through their bilinear interpolant.
Composite Gauss-Legendre quadrature in `tests/oracles.py` is the
independent oracle for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .poisson import GridField, SpectralField, gate_term_cosh
from .spectral import Spectrum


def coupling_x1_closed(n: int, j1, k1):
    """Closed form of A(n, j1, k1) over index arrays; zero exactly when j1 + k1 + n is even."""
    j1, k1 = np.asarray(j1), np.asarray(k1)
    if n < 1 or np.any(j1 < 1) or np.any(k1 < 1):
        raise ValueError("indices must be >= 1")
    num = 4.0 * j1 * k1 * n
    # Python integers keep the denominator exact before its one rounding
    j, k = j1.astype(object), k1.astype(object)
    den = np.asarray((j + k - n) * (j - k + n) * (-j + k + n) * (j + k + n), dtype=float)
    odd = (j1 + k1 + n) % 2 == 1
    return np.divide(num, den, out=np.zeros(num.shape), where=odd)[()]


def coupling_x2_closed(n: int, j2, k2, L: float):
    """Closed form of B(n, j2, k2) on (0, L) over index arrays; never zero."""
    j2, k2 = np.asarray(j2), np.asarray(k2)
    if n < 1 or np.any(j2 < 1) or np.any(k2 < 1):
        raise ValueError("indices must be >= 1")
    if L <= 0:
        raise ValueError("L must be positive")
    sign = np.where((j2 + k2) % 2 == 1, -1.0, 1.0)
    num = 2.0 * sign * L**2 * n * math.pi**2 * j2 * k2 * math.sinh(n * L)
    den = (n**2 * L**2 + math.pi**2 * (j2 - k2) ** 2) * (n**2 * L**2 + math.pi**2 * (j2 + k2) ** 2)
    return (num / den)[()]


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Symmetric coupling operator over the positions of a spectrum, as one dense array.

    `values[a, b]` is the entry between ordering positions a and b.
    Magnitudes at or below the effective zero tolerance are structural
    zeros: assembly sets them to 0 and counts those of the upper triangle
    in `dropped`.  The stored entries are exactly the nonzero ones.
    """

    values: np.ndarray
    zero_tol: float
    dropped: int = 0

    def __len__(self):
        return len(self.values)

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        """A new {(a, b): value} dict of the stored entries with a <= b, in row-major order."""
        a, b = np.nonzero(np.triu(self.values))
        return dict(zip(zip(a.tolist(), b.tolist()), self.values[a, b].tolist()))


def coupling_block(field, rows: Spectrum, cols: Spectrum) -> np.ndarray:
    """Raw entries int V0 phi_a phi_b for every mode a of `rows` and b of `cols`, in their orders.

    Both spectra must lie on the field's L.  A SpectralField (full-gate sine
    superposition) reads per-term tables of the closed forms A and B; an
    entry whose A vanishes by parity is exactly 0 even where B overflows.
    A GridField's bilinear interpolant is integrated exactly on its lattice:
    with x_i = i*h, w_i the trapezoid weight (1/2 at both ends) and
    sinc(u) = sin(u)/u, the hat functions h_i integrate cosines as

        int h_i(x) cos(f x) dx = w_i * h * cos(f x_i) * sinc^2(f h/2).

    sin(j x) sin(k x) is half the difference of the cosines at j - k and
    j + k, so every entry is four lattice cosine sums, and with the
    normalization h1 h2 / (pi L) = 1 / (nx ny) one table C1^T @ values @ C2
    holds them all: column f of C holds w_i sinc^2(f h/2) cos(f x_i) / n for
    every frequency f that rows and cols together reach.  Overflow raises
    NumericalError.
    """
    if not isinstance(field, (SpectralField, GridField)):
        raise ValueError(
            f"gate field must be a SpectralField or a GridField, not {type(field).__name__}"
        )
    L = field.L
    for spectrum in (rows, cols):
        if spectrum.L != L:
            raise ValueError(f"gate field lies on L = {L!r}, not on L = {spectrum.L!r}")
    a1, a2, b1, b2 = rows.j1[:, None], rows.j2[:, None], cols.j1, cols.j2
    out = np.zeros((a1.size, b1.size))
    if isinstance(field, SpectralField):
        r1 = np.arange(1, max(a1.max(), b1.max()) + 1)
        r2 = np.arange(1, max(a2.max(), b2.max()) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            for m, c in field.terms:
                scale = (4.0 / (math.pi * L)) * c / gate_term_cosh(m, L)
                x1 = coupling_x1_closed(m, r1[:, None], r1[None, :])[a1 - 1, b1 - 1]
                x2 = coupling_x2_closed(m, r2[:, None], r2[None, :], L)[a2 - 1, b2 - 1]
                out += np.where(x1 == 0.0, 0.0, scale * x1 * x2)
    else:
        nx, ny = field.values.shape[0] - 1, field.values.shape[1] - 1

        def cosines(n, top):
            # w_i sinc^2(f h/2) cos(f x_i) / n for f = 0..top on an n-cell axis,
            # where f x_i = pi ((i f) mod 2n) / n and np.sinc(u) = sin(pi u)/(pi u)
            f = np.arange(top + 1)
            c = np.cos(np.outer(np.arange(n + 1), f) % (2 * n) * (math.pi / n))
            c *= np.sinc(f / (2 * n)) ** 2 / n
            c[[0, n]] *= 0.5
            return c

        c1 = cosines(nx, 2 * max(a1.max(), b1.max()))
        c2 = cosines(ny, 2 * max(a2.max(), b2.max()))
        table = c1.T @ field.values @ c2
        for s in (1, -1):
            for t in (1, -1):
                out += (s * t) * table[np.abs(a1 + s * b1), np.abs(a2 + t * b2)]
    if not np.all(np.isfinite(out)):
        raise NumericalError("coupling entries overflow the float range")
    return out


def assemble_coupling_matrix(
    field,
    spectrum: Spectrum,
    zero_tol: float | None = None,
) -> CouplingMatrix:
    """Coupling matrix over every mode of `spectrum`, in its order: `coupling_block`'s square.

    The square keeps its upper triangle, mirrored: the closed forms agree
    with their transpose only to rounding, and each entry keeps the value
    computed with its earlier position first.  With zero_tol=None the
    structural-zero threshold is 1e-12 times the largest magnitude in
    either touching row of that symmetric array, which keeps large
    cosh-inflated rows from misclassifying true zeros.
    """
    if zero_tol is not None and not zero_tol >= 0:
        raise ValueError("zero_tol must be nonnegative")
    raw = np.triu(coupling_block(field, spectrum, spectrum))
    raw += np.triu(raw, 1).T

    if zero_tol is None:
        row_max = np.abs(raw).max(axis=1)
        thresh = 1e-12 * np.maximum.outer(row_max, row_max)
        effective = float(thresh.max())
    else:
        thresh = np.full_like(raw, zero_tol)
        effective = float(zero_tol)

    drop = np.abs(raw) <= thresh
    values = np.where(drop, 0.0, raw)
    dropped = int(np.count_nonzero(np.triu(drop)))
    return CouplingMatrix(values=values, zero_tol=effective, dropped=dropped)
