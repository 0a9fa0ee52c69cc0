"""Coupling graphs, connectedness-chain decisions and non-resonance certificates.

A control field couples a pair of levels when the corresponding coupling
entry is nonzero; a set of pairs that links every pair of levels through
overlapping hops is a connectedness chain, rendered here as connectivity
of the undirected coupling graph.  All verdicts are finite: they hold at
the coupling matrix's truncation and tolerance, never for all modes.

The graph is the read-only boolean adjacency array of `build_graph`, and
every function here takes and returns ordering positions; the `Spectrum`
alone names them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix
from .spectral import window_pairs


def build_graph(matrix: CouplingMatrix) -> np.ndarray:
    """Coupling graph over the positions of `matrix`.

    Returns the read-only boolean adjacency array: `adj[a, b]` is True when
    positions a != b share a stored entry.
    """
    adj = matrix.values != 0
    np.fill_diagonal(adj, False)
    adj.flags.writeable = False
    return adj


def _tree(adj: np.ndarray, root: int, seen: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Breadth-first tree from `root` over the nodes not yet `seen`.

    Marks the nodes it reaches in `seen`, writes their parents into
    `parent` and returns them in visiting order.  Per level, a new node's
    parent is the first frontier row reaching it, and the next frontier
    is ordered by (parent rank, node): the order of a FIFO queue that
    takes adjacent nodes in ascending order, with the same parents.
    """
    seen[root] = True
    levels = [np.array([root])]
    while levels[-1].size:
        frontier = levels[-1]
        unseen = np.flatnonzero(~seen)
        reach = adj[np.ix_(frontier, unseen)]
        hit = reach.any(axis=0)
        new = unseen[hit]
        first = reach[:, hit].argmax(axis=0)
        seen[new] = True
        parent[new] = frontier[first]
        levels.append(new[np.lexsort((new, first))])
    return np.concatenate(levels)


def breadth_first_forest(adj: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """The one breadth-first search behind every chain verdict.

    Each component is rooted at its least node and adjacent nodes are
    visited in ascending order.  Returns the components, each sorted and
    listed in order of least member, and the parent pointers (-1 at
    roots).  The tree edges form the spanning chain, and the tree path from
    a root to a node is `coupling_path(adj, root, node)`: shortest, with
    ties broken towards lexicographically smaller node sequences.
    """
    seen = np.zeros(len(adj), dtype=bool)
    parent = np.full(len(adj), -1)
    components = []
    for root in range(len(adj)):
        if not seen[root]:
            components.append(np.sort(_tree(adj, root, seen, parent)).tolist())
    return components, parent.tolist()


def witness_paths(parent: list[int]) -> dict[tuple[int, int], list[int]]:
    """Forest path from each component's least node to every other member."""
    witness = {}
    for node, up in enumerate(parent):
        if up < 0:
            continue
        path = [node]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        path.reverse()
        witness[(path[0], node)] = path
    return witness


def coupling_path(adj: np.ndarray, src: int, dst: int) -> list[int] | None:
    """Shortest coupling path between two positions, or None across components.

    Ties are broken towards lexicographically smaller node sequences: the
    path is the branch of the breadth-first tree rooted at src.
    """
    for node in (src, dst):
        if not 0 <= node < len(adj):
            raise ValueError(f"node position {node} out of range")
    parent = np.full(len(adj), -1)
    _tree(adj, src, np.zeros(len(adj), dtype=bool), parent)
    path = [dst]
    while path[-1] != src:
        if parent[path[-1]] < 0:
            return None
        path.append(int(parent[path[-1]]))
    return path[::-1]


def certify_nonresonant_chain(
    eigenvalues,
    matrix: CouplingMatrix,
    chain_edges,
    tol: float,
) -> list[tuple[tuple[int, int], tuple[int, int], float]]:
    """Transition-frequency collisions between chain edges and coupled pairs.

    For every oriented chain edge (s1, s2) and every oriented coupled pair
    (t1, t2) != (s1, s2) (diagonal pairs included), reports
    |(lam_s1 - lam_s2) - (lam_t1 - lam_t2)| <= tol.  Chain edges are
    oriented with the larger eigenvalue first and mirror-image duplicates
    are canonicalized away.  An empty list certifies the non-resonant
    chain condition at this truncation and tolerance.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.shape != (len(matrix),):
        raise ValueError(f"{lam.size} eigenvalues for a {len(matrix)}-mode coupling matrix")
    coupled = matrix.values != 0
    chain = []
    for a, b in chain_edges:
        a, b = int(a), int(b)
        key = (min(a, b), max(a, b))
        if not 0 <= key[0] < key[1] < len(coupled) or not coupled[key]:
            raise ValueError(f"chain edge {key} is not a stored off-diagonal coupling")
        chain.append(key)

    # every coupled pair in both orientations, a diagonal pair once
    t_arr = np.argwhere(coupled)
    t_diff = lam[t_arr[:, 0]] - lam[t_arr[:, 1]]
    # ties may sort in any order: no two hits of one edge share a canonical key
    order = np.argsort(t_diff)
    t_diff_sorted = t_diff[order]

    # each chain edge once, larger eigenvalue first, and its frequency window
    edges = np.array(sorted(set(chain)), dtype=int).reshape(-1, 2)
    s = np.where((lam[edges[:, 0]] >= lam[edges[:, 1]])[:, None], edges, edges[:, ::-1])
    d = lam[s[:, 0]] - lam[s[:, 1]]
    lo = np.searchsorted(t_diff_sorted, d - tol, side="left")
    hi = np.searchsorted(t_diff_sorted, d + tol, side="right")
    e, t = window_pairs(lo, hi)
    t = order[t]  # rows of t_arr
    hit = (t_arr[t] != s[e]).any(axis=1)
    e, t = e[hit], t[hit]
    gaps = np.abs(d[e] - t_diff[t])

    found = {}
    for (s1, s2), (t1, t2), gap in zip(s[e].tolist(), t_arr[t].tolist(), gaps.tolist()):
        # identity up to (s <-> t) and joint within-pair reflection
        key = min(
            tuple(sorted(((s1, s2), (t1, t2)))),
            tuple(sorted(((s2, s1), (t2, t1)))),
        )
        if key not in found or gap < found[key][2]:
            found[key] = ((s1, s2), (t1, t2), gap)
    return sorted(found.values())


@dataclass(frozen=True)
class ChainCertificate:
    """Finite rendering of the non-resonant connectedness chain condition, over positions."""

    connected: bool
    components: list[list[int]]
    witness_paths: dict[tuple[int, int], list[int]]
    violations: list[tuple[tuple[int, int], tuple[int, int], float]]

    @property
    def certified(self) -> bool:
        return self.connected and not self.violations


def certify(matrix: CouplingMatrix, eigenvalues, resonance_tol: float) -> ChainCertificate:
    """Full certificate: connectivity, witness paths and resonance scan.

    The chain is the breadth-first spanning forest of the coupling graph;
    witness paths go from each component's least node to its other members
    (paths between arbitrary pairs concatenate two witnesses).
    """
    components, parent = breadth_first_forest(build_graph(matrix))
    tree_edges = [(min(p, v), max(p, v)) for v, p in enumerate(parent) if p >= 0]
    return ChainCertificate(
        connected=len(components) == 1,
        components=components,
        witness_paths=witness_paths(parent),
        violations=certify_nonresonant_chain(eigenvalues, matrix, tree_edges, resonance_tol),
    )
