"""Coupling operator entries int V0 phi_j phi_k and eigenvalue slopes.

For the single-mode gate trace the entries factor into 1-D integrals

    A(n, j1, k1) = int_0^pi  sin(n x1) sin(j1 x1) sin(k1 x1) dx1
    B(n, j2, k2) = int_0^L   cosh(n x2) sin(j2 pi x2/L) sin(k2 pi x2/L) dx2

with closed forms below; tensor-product Gauss-Legendre quadrature serves
as the independent oracle and as the general path for grid fields.  A
vanishes exactly when j1 + k1 + n is even (parity law); B never vanishes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
import numpy as np

from .errors import QuadraturePrecisionError
from .poisson import SpectralField
from .spectral import ModeIndex, Spectrum

COUPLING_CSV_HEADER = "a1,a2,b1,b2,value"


@dataclass(frozen=True)
class QuadratureConfig:
    """Panelized Gauss-Legendre rule; results are self-checked by panel doubling."""

    panels: int = 8
    nodes: int = 16
    self_check_tol: float = 1e-12

    def __post_init__(self):
        if self.panels < 1 or self.nodes < 2:
            raise ValueError("need at least 1 panel and 2 nodes")
        if self.self_check_tol <= 0:
            raise ValueError("self_check_tol must be positive")


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


def _tensor_integral(field, a: ModeIndex, b: ModeIndex, L: float, panels: int, nodes: int) -> float:
    x1, w1 = panel_rule(0.0, math.pi, panels, nodes)
    x2, w2 = panel_rule(0.0, L, panels, nodes)
    v = field.values_on(x1, x2)
    f1 = np.sin(a[0] * x1) * np.sin(b[0] * x1) * w1
    f2 = np.sin(a[1] * math.pi * x2 / L) * np.sin(b[1] * math.pi * x2 / L) * w2
    return (4.0 / (math.pi * L)) * float(f1 @ v @ f2)


def coupling_quadrature(field, a, b, q: QuadratureConfig, L: float) -> float:
    """Normalized entry (4/(pi L)) int V0 phi_a phi_b by tensor Gauss-Legendre.

    The computation is repeated with doubled panel count; disagreement
    beyond the config tolerance raises QuadraturePrecisionError.
    """
    a = ModeIndex(*a)
    b = ModeIndex(*b)
    coarse = _tensor_integral(field, a, b, L, q.panels, q.nodes)
    fine = _tensor_integral(field, a, b, L, 2 * q.panels, q.nodes)
    if abs(fine - coarse) > q.self_check_tol * max(1.0, abs(coarse), abs(fine)):
        raise QuadraturePrecisionError(
            f"quadrature self-check failed for modes {tuple(a)},{tuple(b)}: "
            f"{coarse!r} vs {fine!r}"
        )
    return fine


def eigenvalue_slope(field, mode, spectrum: Spectrum, q: QuadratureConfig) -> float:
    """Slope d(lambda)/d(rho) at rho = 0: the diagonal entry int V0 phi_mode^2."""
    mode = ModeIndex(*mode)
    spectrum.position(mode)
    return coupling_quadrature(field, mode, mode, q, spectrum.L)


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


def _raw_entries_quadrature(field, modes, L: float, panels: int, nodes: int) -> np.ndarray:
    x1, w1 = panel_rule(0.0, math.pi, panels, nodes)
    x2, w2 = panel_rule(0.0, L, panels, nodes)
    v = field.values_on(x1, x2) * w2[None, :]
    j1s = np.array([m.j1 for m in modes])
    j2s = np.array([m.j2 for m in modes])
    s1 = np.sin(j1s[:, None] * x1[None, :])
    s2 = np.sin(j2s[:, None] * (math.pi / L) * x2[None, :])
    n = len(modes)
    out = np.zeros((n, n))
    for i in range(n):
        pair1 = (s1[i][None, :] * s1) * w1[None, :]  # (n, nx) x1 pair factors
        core = pair1 @ v  # (n, ny)
        out[i, :] = (4.0 / (math.pi * L)) * np.einsum("nj,nj->n", core, s2[i][None, :] * s2)
    return 0.5 * (out + out.T)


def assemble_coupling_matrix(
    field,
    spectrum: Spectrum,
    truncation: int,
    zero_tol: float | None = None,
    q: QuadratureConfig = QuadratureConfig(),
) -> CouplingMatrix:
    """Coupling matrix over the first `truncation` ordered modes.

    Closed forms are used when the field is a full-gate sine superposition;
    grid fields go through the quadrature oracle (with panel-doubling
    self-check).  With zero_tol=None the structural-zero threshold is
    1e-12 times the largest entry magnitude in either touching row, which
    keeps large cosh-inflated rows from misclassifying true zeros.
    """
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    if truncation > len(spectrum):
        raise ValueError("truncation exceeds spectrum size")
    modes = spectrum.modes[:truncation]
    L = spectrum.L
    if isinstance(field, SpectralField):
        raw = _raw_entries_spectral(field, modes, L)
    else:
        raw = _raw_entries_quadrature(field, modes, L, q.panels, q.nodes)
        fine = _raw_entries_quadrature(field, modes, L, 2 * q.panels, q.nodes)
        scale = max(1.0, np.abs(raw).max(), np.abs(fine).max())
        if np.abs(fine - raw).max() > q.self_check_tol * scale:
            raise QuadraturePrecisionError("quadrature self-check failed during assembly")
        raw = fine

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

