"""Independent numerical oracles shared by the tests."""

import math

import numpy as np
import scipy.linalg


def panel_rule(lo: float, hi: float, panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre points and weights on [lo, hi]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    pts = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
    wts = (halves[:, None] * ws[None, :]).ravel()
    return pts, wts


def trajectory_csv(times, values, eigenvalues, controls, k: int) -> str:
    """trajectory.csv text with every column computed one state at a time.

    Per row: `np.linalg.norm(row)`, the H1 seminorm
    `math.sqrt(float(np.sum(eigenvalues * np.abs(row) ** 2)))` and the
    populations `abs(z) ** 2` of the first k coefficients, followed by the
    control value applied after that time; floats with 17 significant
    digits.
    """
    cols = ["time", "norm", "h1_seminorm", *(f"population_{i + 1}" for i in range(k)), "control_value"]
    lines = [",".join(cols)]
    for t, row, u in zip(times, values, controls):
        fields = [
            float(t),
            float(np.linalg.norm(row)),
            math.sqrt(float(np.sum(eigenvalues * np.abs(row) ** 2))),
            *(float(abs(row[i]) ** 2) for i in range(k)),
            float(u),
        ]
        lines.append(",".join(f"{x:.17g}" for x in fields))
    return "\n".join(lines) + "\n"


def bilinear_expm_rows(eigenvalues, cmat, samples, psi0) -> np.ndarray:
    """Galerkin coefficients at every sample boundary, row 0 the initial state.

    Each (duration, value) sample applies its own
    `scipy.linalg.expm(-1j * duration * (diag(eigenvalues) + value * cmat))`,
    computed afresh per sample with no eigendecomposition and no cache.
    """
    rows = [np.asarray(psi0, dtype=complex)]
    for dur, u in samples:
        h = np.diag(eigenvalues) + u * cmat
        rows.append(scipy.linalg.expm(-1j * dur * h) @ rows[-1])
    return np.array(rows)
