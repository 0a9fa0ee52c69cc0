"""Independent numerical oracles shared by the tests."""

import math

import numpy as np
import scipy.fft
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


def lattice_coupling_dct(field, rows, cols) -> np.ndarray:
    """Lattice coupling entries between `rows` and `cols` through one DCT-I of the node values.

    The bilinear interpolant's cosine integrals are
    h1 h2 w_i w_k cos(f1 x_i) cos(f2 y_k) sinc^2(f1 h1/2) sinc^2(f2 h2/2)
    summed over the nodes, and (h1 h2 / 4) dctn(values, type=1) tabulates
    the node sums for 0 <= f1 <= nx, 0 <= f2 <= ny.  The lattice cosine is
    even and 2n-periodic in the integer frequency, so a frequency above n
    reads the table at its folded index.
    """
    L = field.L
    nx, ny = field.values.shape[0] - 1, field.values.shape[1] - 1
    h1, h2 = math.pi / nx, L / ny
    table = (h1 * h2 / 4.0) * scipy.fft.dctn(field.values, type=1)

    def factor(freq, n):
        freq = np.abs(freq)
        fold = freq % (2 * n)
        return np.sinc(freq / (2 * n)) ** 2, np.where(fold > n, 2 * n - fold, fold)

    a1, a2, b1, b2 = rows.j1[:, None], rows.j2[:, None], cols.j1, cols.j2
    out = np.zeros((a1.size, b1.size))
    for s in (1, -1):
        w1, f1 = factor(a1 + s * b1, nx)
        for t in (1, -1):
            w2, f2 = factor(a2 + t * b2, ny)
            out += (s * t) * w1 * w2 * table[f1, f2]
    return out / (math.pi * L)


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


def strang_full_log(initial, control, config, v0, phis):
    """The Strang loop as first written: `np.exp` phases, out-of-place products, full log.

    One Hartree solve per step, computed inline as
    `mixed_backward(alpha * mixed_forward(|psi|^2) / mixed_eigenvalues)`,
    and the kinetic step `k1 @ psi @ k2.T` of `grid.kinetic`, built once
    per step length; no norm guard.  The state starts on `config.grid` at
    t = 0.  Returns the final grid values and the per-record times, norms,
    H1 seminorms, gate expectations, populations against the rows of `phis`
    and control values.
    """
    grid = config.grid
    sine_eigs = grid.sine_eigenvalues()
    weight = grid.cell_weight

    def hartree(psi):
        coeffs = grid.mixed_forward(np.abs(psi) ** 2)
        return grid.mixed_backward(config.alpha * coeffs / grid.mixed_eigenvalues)

    psi = np.asarray(initial, dtype=complex).copy()
    t = 0.0
    logs = {k: [] for k in ("t", "norm", "h1", "gate", "pop", "u")}

    def record(u_next):
        logs["t"].append(t)
        logs["norm"].append(grid.norm(psi))
        coeffs = grid.sine_forward(psi)
        logs["h1"].append(float(np.sqrt(weight * np.sum(sine_eigs * np.abs(coeffs) ** 2))))
        dens = np.abs(psi) ** 2
        logs["gate"].append(float(weight * np.sum(v0 * dens)))
        logs["pop"].append(np.abs(weight * (phis @ psi.ravel())) ** 2)
        logs["u"].append(u_next)

    record(control.samples[0][1] if control.samples else 0.0)
    nonlinear = config.alpha != 0.0
    w = hartree(psi) if nonlinear else 0.0
    kin_cache = {}
    for dur, u in control.samples:
        nsteps = max(1, int(math.ceil(dur / config.dt - 1e-12)))
        step = dur / nsteps
        if step not in kin_cache:
            kin_cache[step] = grid.kinetic(step)
        k1, k2 = kin_cache[step]
        phase = np.exp(-0.5j * step * (u * v0 + w))
        for _ in range(nsteps):
            psi = psi * phase
            psi = k1 @ psi @ k2.T
            if nonlinear:
                w = hartree(psi)
                phase = np.exp(-0.5j * step * (u * v0 + w))
            psi = psi * phase
            t += step
            record(u)
    return (psi, *(np.array(logs[k]) for k in ("t", "norm", "h1", "gate", "pop", "u")))


def fft_sine_forward(values):
    """Orthonormal DST-I along axis 0, then DST-II along axis 1, by `scipy.fft`."""
    out = scipy.fft.dstn(values, type=1, axes=[0], norm="ortho")
    return scipy.fft.dstn(out, type=2, axes=[1], norm="ortho")


def fft_sine_backward(coeffs):
    """Inverse of `fft_sine_forward`."""
    out = scipy.fft.idstn(coeffs, type=2, axes=[1], norm="ortho")
    return scipy.fft.dstn(out, type=1, axes=[0], norm="ortho")


def fft_mixed_forward(values):
    """Orthonormal DST-I along axis 0, then DCT-IV along axis 1, by `scipy.fft`."""
    out = scipy.fft.dstn(values, type=1, axes=[0], norm="ortho")
    return scipy.fft.dctn(out, type=4, axes=[1], norm="ortho")


def fft_mixed_backward(coeffs):
    """Inverse of `fft_mixed_forward`."""
    out = scipy.fft.dctn(coeffs, type=4, axes=[1], norm="ortho")
    return scipy.fft.dstn(out, type=1, axes=[0], norm="ortho")


def fft_kinetic_step(grid, psi, step):
    """exp(i*step*Delta) psi in the sine basis: backward(exp(-i*eig*step) * forward(psi))."""
    kin = np.exp(-1j * grid.sine_eigenvalues() * step)
    return fft_sine_backward(kin * fft_sine_forward(psi))


def weak_resonances(values, tol: float) -> list:
    """Every ((s1, s2), (t1, t2), gap) with |(lam_s1 - lam_s2) - (lam_t1 - lam_t2)| <= tol.

    Brute force over all pairs of oriented pairs: the oriented pairs (a, b),
    a > b, in lexicographic order, and every two of them p < q in that
    order, with gap = |d_p - d_q| of their differences.  Row-major, so the
    list comes out sorted.
    """
    lam = np.asarray(values, dtype=float)
    a, b = np.tril_indices(lam.size, k=-1)
    d = lam[a] - lam[b]
    p, q = np.triu_indices(d.size, k=1)
    gap = np.abs(d[p] - d[q])
    hit = np.flatnonzero(gap <= tol)
    p, q = p[hit], q[hit]
    return list(
        zip(
            zip(a[p].tolist(), b[p].tolist()),
            zip(a[q].tolist(), b[q].tolist()),
            gap[hit].tolist(),
        )
    )


def relation(s, t) -> frozenset:
    """{{s1, t2}, {s2, t1}}: the relation lam_s1 + lam_t2 = lam_s2 + lam_t1 of a hit (s, t)."""
    return frozenset((frozenset((s[0], t[1])), frozenset((s[1], t[0]))))


def weak_relations(values, tol: float) -> list:
    """`weak_resonances` with each four-level relation once, at its smaller frequency.

    A hit ((s1, s2), (t1, t2), gap) belongs to the relation
    {{s1, t2}, {s2, t1}} of `relation`.  Only four distinct
    levels w > x > y > z give one relation two hits: ((w, x), (y, z)) at
    frequency lam_w - lam_x and ((w, y), (x, z)) at lam_w - lam_y.  Grouped
    by relation, the hit whose top level w has the smaller difference to its
    partner is kept; a tie (lam_x == lam_y) keeps the partner higher in the
    ordering.  The list stays sorted.
    """
    lam = np.asarray(values, dtype=float)
    hits = weak_resonances(lam, tol)
    best = {}
    for k, (s, t, _) in enumerate(hits):
        key = relation(s, t)
        top, partner = max(s, t)
        rank = (lam[top] - lam[partner], -partner)
        if key not in best or rank < best[key][0]:
            best[key] = (rank, k)
    return [hits[k] for k in sorted(k for _, k in best.values())]
