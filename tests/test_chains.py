import itertools
import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import scan_inputs

from gatedqdot.chains import (
    breadth_first_forest,
    build_graph,
    certify,
    certify_nonresonant_chain,
    coupling_path,
)
from gatedqdot.cli import run
from gatedqdot.coupling import CouplingMatrix, assemble_coupling_matrix
from gatedqdot.spectral import enumerate_modes


def window_matrix(field, n):
    """Coupling matrix of a gate field over the first n modes at L = 1."""
    return assemble_coupling_matrix(field, enumerate_modes(1.0, n))


def toy_matrix(n_nodes, edges, diagonal=()):
    """CouplingMatrix with unit entries on the given pairs of positions."""
    values = np.zeros((n_nodes, n_nodes))
    for a, b in edges:
        values[a, b] = values[b, a] = 1.0
    for d in diagonal:
        values[d, d] = 1.0
    return CouplingMatrix(values=values, zero_tol=0.0)


def closure_connected(n_nodes, edges):
    """Brute-force transitive closure of the adjacency matrix."""
    adj = np.eye(n_nodes, dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    for _ in range(n_nodes):
        adj = adj | (adj @ adj)
    return bool(adj.all())


def tree_edges(parent):
    """Spanning-forest edges of breadth-first parent pointers, each as (min, max)."""
    return [(min(p, v), max(p, v)) for v, p in enumerate(parent) if p >= 0]


def queue_forest(neighbors):
    """FIFO-queue breadth-first forest, the reference for `breadth_first_forest`."""
    parent = [-1] * len(neighbors)
    seen = [False] * len(neighbors)
    components = []
    for root in range(len(neighbors)):
        if seen[root]:
            continue
        seen[root] = True
        comp = []
        queue = deque([root])
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    queue.append(v)
        components.append(sorted(comp))
    return components, parent


def queue_path(neighbors, src, dst):
    """Reference for `coupling_path`: distances to dst, then the smallest closer step."""
    if src == dst:
        return [src]
    dist = {dst: 0}
    queue = deque([dst])
    while queue:
        u = queue.popleft()
        for v in neighbors[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if src not in dist:
        return None
    path = [src]
    current = src
    while current != dst:
        current = min(v for v in neighbors[current] if dist.get(v, -1) == dist[current] - 1)
        path.append(current)
    return path


class TestGraph:
    def test_even_gate_edges_are_odd_sums(self, field_n2, spec100):
        adj = build_graph(window_matrix(field_n2, 20))
        for a, b in zip(*np.nonzero(adj)):
            assert (spec100.j1[a] + spec100.j1[b]) % 2 == 1
        for i in range(20):
            for j in range(i + 1, 20):
                if (spec100.j1[i] + spec100.j1[j]) % 2 == 1:
                    assert adj[i, j]

    def test_empty_matrix_edgeless(self):
        adj = build_graph(toy_matrix(4, []))
        assert not adj.any()

    def test_single_node(self):
        adj = build_graph(toy_matrix(1, []))
        assert adj.shape == (1, 1) and not adj.any()

    def test_diagonal_not_an_edge(self):
        adj = build_graph(toy_matrix(3, [(0, 1)], diagonal=[2]))
        assert not adj[2, 2]


class TestConnectivity:
    def test_even_gate_connected(self, field_n2):
        comps, _ = breadth_first_forest(build_graph(window_matrix(field_n2, 20)))
        assert len(comps) == 1

    def test_odd_gate_two_parity_components(self, field_n1, spec100):
        comps, _ = breadth_first_forest(build_graph(window_matrix(field_n1, 20)))
        assert len(comps) == 2
        parities = [{spec100.j1[i] % 2 for i in comp} for comp in comps]
        assert parities == [{1}, {0}]

    def test_edgeless_three_components(self):
        comps, _ = breadth_first_forest(build_graph(toy_matrix(3, [])))
        assert comps == [[0], [1], [2]]

    def test_components_ordered_by_least_member(self):
        g = build_graph(toy_matrix(5, [(1, 3), (0, 4)]))
        comps, _ = breadth_first_forest(g)
        assert comps == [[0, 4], [1, 3], [2]]

    def test_small_instance_oracle_exhaustive_4(self):
        nodes = 4
        all_pairs = list(itertools.combinations(range(nodes), 2))
        for bits in range(2 ** len(all_pairs)):
            edges = [p for i, p in enumerate(all_pairs) if bits >> i & 1]
            comps, _ = breadth_first_forest(build_graph(toy_matrix(nodes, edges)))
            got = len(comps) == 1
            assert got == closure_connected(nodes, edges)

    def test_small_instance_oracle_random_corpus(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(5, 9))
            pairs = list(itertools.combinations(range(n), 2))
            mask = rng.random(len(pairs)) < rng.random()
            edges = [p for p, m in zip(pairs, mask) if m]
            comps, _ = breadth_first_forest(build_graph(toy_matrix(n, edges)))
            got = len(comps) == 1
            assert got == closure_connected(n, edges)
            assert sorted(i for c in comps for i in c) == list(range(n))

    def test_adding_edges_never_disconnects(self):
        rng = np.random.default_rng(5)
        base = [(0, 1), (2, 3)]
        extra = [(1, 2), (3, 4), (0, 4)]
        counts = []
        for k in range(len(extra) + 1):
            g = build_graph(toy_matrix(5, base + extra[:k]))
            counts.append(len(breadth_first_forest(g)[0]))
        assert all(b <= a for a, b in zip(counts[:-1], counts[1:]))


class TestPaths:
    def test_two_hop_path(self, field_n2, spec100):
        adj = build_graph(window_matrix(field_n2, 30))
        path = coupling_path(adj, spec100.position((1, 1)), spec100.position((3, 1)))
        assert [tuple(spec100.modes[p]) for p in path] == [(1, 1), (2, 1), (3, 1)]

    def test_direct_edge_absent_for_even_sum(self, field_n2, spec100):
        adj = build_graph(window_matrix(field_n2, 30))
        assert not adj[spec100.position((1, 1)), spec100.position((3, 1))]

    def test_trivial_path(self, field_n2):
        adj = build_graph(window_matrix(field_n2, 10))
        assert coupling_path(adj, 4, 4) == [4]

    def test_absence_across_components(self, field_n1, spec100):
        adj = build_graph(window_matrix(field_n1, 20))
        assert coupling_path(adj, spec100.position((1, 1)), spec100.position((2, 1))) is None

    def test_unknown_node_raises(self, field_n2):
        adj = build_graph(window_matrix(field_n2, 10))
        with pytest.raises(ValueError):
            coupling_path(adj, 10, 0)
        with pytest.raises(ValueError):
            coupling_path(adj, 0, 99)
        with pytest.raises(ValueError):
            coupling_path(adj, -1, 0)

    def test_witness_paths_valid(self, matrix_n2_30, spec30):
        cert = certify(matrix_n2_30, spec30.eigenvalues, 1e-9)
        assert cert.connected
        adj = build_graph(matrix_n2_30)
        assert len(cert.witness_paths) == 29
        for (_, _), path in cert.witness_paths.items():
            assert len(path) <= 30
            for a, b in zip(path[:-1], path[1:]):
                assert adj[a, b]


@st.composite
def random_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [p for p, m in zip(pairs, mask) if m]


@st.composite
def sparse_graphs(draw):
    """1 to 40 nodes at density 0 to 0.3: edgeless, disconnected and connected."""
    n = draw(st.integers(1, 40))
    density = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = list(itertools.combinations(range(n), 2))
    return n, [p for p, keep in zip(pairs, rng.random(len(pairs)) < density) if keep]


class TestForest:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs())
    def test_witness_paths_are_lexicographic_shortest_paths(self, instance):
        n, edges = instance
        matrix = toy_matrix(n, edges)
        adj = build_graph(matrix)
        cert = certify(matrix, np.arange(n, dtype=float), 1e-9)
        comps, parent = breadth_first_forest(adj)
        expected = {}
        for comp in comps:
            for node in comp[1:]:
                expected[(comp[0], node)] = coupling_path(adj, comp[0], node)
        assert cert.witness_paths == expected
        # the witness paths walk exactly the spanning-chain edges
        tree = set()
        for path in cert.witness_paths.values():
            tree |= {(min(a, b), max(a, b)) for a, b in zip(path[:-1], path[1:])}
        chain = tree_edges(parent)
        assert tree == set(chain)
        assert len(chain) == n - len(comps)

    @settings(max_examples=100, deadline=None)
    @given(sparse_graphs())
    def test_matches_queue_search(self, instance):
        n, edges = instance
        adj = build_graph(toy_matrix(n, edges))
        neighbors = [np.flatnonzero(row).tolist() for row in adj]
        assert breadth_first_forest(adj) == queue_forest(neighbors)
        for src, dst in itertools.product(range(n), repeat=2):
            assert coupling_path(adj, src, dst) == queue_path(neighbors, src, dst)

    def test_forest_roots_at_least_node(self):
        adj = build_graph(toy_matrix(5, [(3, 4), (1, 4), (0, 2)]))
        comps, parent = breadth_first_forest(adj)
        assert comps == [[0, 2], [1, 3, 4]]
        assert parent == [-1, -1, 0, 4, 1]


def chain_scan_oracle(lam, matrix, chain_edges, tol):
    """Brute force: every chain edge against every coupled pair, both orientations.

    A chain edge (s1, s2), larger eigenvalue first, collides with an
    oriented coupled pair t != s when d - tol <= lam_t1 - lam_t2 <= d + tol
    for d = lam_s1 - lam_s2.  A collision is keyed up to (s <-> t) and the
    joint reflection; per key the smallest gap is kept, the first of equal
    ones in edge order.
    """
    n = len(lam)
    oriented = [(p, q) for p in range(n) for q in range(n) if matrix.values[p, q] != 0]
    found = {}
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in chain_edges}):
        s = (a, b) if lam[a] >= lam[b] else (b, a)
        d = lam[s[0]] - lam[s[1]]
        for t in oriented:
            if t != s and d - tol <= lam[t[0]] - lam[t[1]] <= d + tol:
                key = min(tuple(sorted((s, t))), tuple(sorted((s[::-1], t[::-1]))))
                gap = abs(d - (lam[t[0]] - lam[t[1]]))
                if key not in found or gap < found[key][2]:
                    found[key] = (s, t, gap)
    return sorted(found.values())


@st.composite
def chain_instances(draw):
    values, tol = draw(scan_inputs())
    n = max(len(values), 2)
    lam = draw(st.permutations(np.resize(values, n).tolist())) if values.size else [0.0, 0.0]
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for p in pairs if draw(st.booleans())]
    diagonal = [i for i in range(n) if draw(st.booleans())]
    chain = draw(st.lists(st.sampled_from(edges), max_size=2 * n)) if edges else []
    chain = [(b, a) if draw(st.booleans()) else (a, b) for a, b in chain]
    return lam, toy_matrix(n, edges, diagonal), chain, tol


class TestResonanceCertificate:
    @settings(max_examples=300, deadline=None)
    @given(chain_instances())
    def test_matches_brute_force(self, instance):
        lam, matrix, chain, tol = instance
        got = certify_nonresonant_chain(lam, matrix, chain, tol)
        assert got == chain_scan_oracle(lam, matrix, chain, tol)
        assert all(type(x) is int for s, t, _ in got for x in s + t)

    def test_unshifted_collision_found(self, matrix_n2_100, spec100):
        edges = [(a, b) for a, b in matrix_n2_100.entries if a != b]
        tol = 1e-9 * (spec100.eigenvalues[-1] - spec100.eigenvalues[0])
        violations = certify_nonresonant_chain(spec100.eigenvalues, matrix_n2_100, edges, tol)
        labeled = {
            frozenset(
                (
                    (tuple(spec100.modes[s[0]]), tuple(spec100.modes[s[1]])),
                    (tuple(spec100.modes[t[0]]), tuple(spec100.modes[t[1]])),
                )
            )
            for s, t, _ in violations
        }
        target = frozenset((((8, 1), (7, 1)), ((4, 1), (1, 1))))
        assert target in labeled

    def test_self_comparison_excluded(self):
        m = toy_matrix(2, [(0, 1)])
        assert certify_nonresonant_chain([0.0, 15.0], m, [(0, 1)], 1e-9) == []

    def test_chain_edges_must_be_stored(self):
        m = toy_matrix(3, [(0, 1)])
        with pytest.raises(ValueError):
            certify_nonresonant_chain([0.0, 1.0, 2.0], m, [(0, 2)], 1e-9)

    def test_violation_reported_once(self):
        # two chain edges with identical gaps: one canonical violation
        m = toy_matrix(4, [(0, 1), (2, 3)])
        out = certify_nonresonant_chain([0.0, 1.0, 5.0, 6.0], m, [(0, 1), (2, 3)], 1e-9)
        assert len(out) == 1

    def test_shrinking_tol_never_adds(self, matrix_n2_100, spec100):
        edges = [(a, b) for a, b in matrix_n2_100.entries if a != b][:200]
        loose = certify_nonresonant_chain(spec100.eigenvalues, matrix_n2_100, edges, 1e-3)
        tight = certify_nonresonant_chain(spec100.eigenvalues, matrix_n2_100, edges, 1e-9)
        loose_keys = {(s, t) for s, t, _ in loose}
        assert all((s, t) in loose_keys for s, t, _ in tight)

    def test_diagonal_pairs_compared(self):
        # a stored diagonal entry is a coupled pair with gap zero; a chain
        # edge between near-degenerate levels collides with it
        m = toy_matrix(2, [(0, 1)], diagonal=[0])
        out = certify_nonresonant_chain([1.0, 1.0 + 1e-12], m, [(0, 1)], 1e-9)
        assert any(t == (0, 0) for _, t, _ in out)

    def test_shifted_tree_chain_clean_for_odd_gate(self, spec100, matrix_n1_100):
        # full pipeline: spanning-forest chain frequencies on the 0.2-shifted
        # spectrum collide with no coupled pair at tol 1e-6 (truncation 40)
        from gatedqdot.poisson import fourier_term, solve_full_gate
        from gatedqdot.spectral import shifted_spectrum

        spec = enumerate_modes(1.0, 40)
        matrix = assemble_coupling_matrix(solve_full_gate([fourier_term(1, 1.0)], 1.0), spec)
        tree = tree_edges(breadth_first_forest(build_graph(matrix))[1])
        shifted, _ = shifted_spectrum(spec, matrix, 0.2)
        assert certify_nonresonant_chain(shifted, matrix, tree, 1e-6) == []

    def test_coupling_free_graph(self):
        cert = certify(toy_matrix(3, []), [1.0, 2.0, 3.0], 1e-9)
        assert cert.connected is False
        assert cert.violations == []

    def test_spanning_chain_is_tree(self, matrix_n2_30):
        adj = build_graph(matrix_n2_30)
        edges = tree_edges(breadth_first_forest(adj)[1])
        assert len(edges) == 29
        assert all(adj[e] for e in edges)

    def test_certificate_json(self, tmp_path):
        # the default config is the n = 2 gate at L = 1, truncation 30
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tolerances": {"resonance": 1e-9}}))
        assert run("certify", config, tmp_path) == 0
        doc = json.loads((tmp_path / "chain.json").read_text())
        assert doc["connected"] is True
        assert doc["truncation"] == 30
        assert doc["tolerances"]["resonance"] == 1e-9
        assert len(doc["witness_paths"]) == 29


@pytest.mark.parametrize("command", ["chain", "certify"])
def test_witness_paths_sorted_by_mode_pair(tmp_path, command):
    # the default config is the n = 2 gate at L = 1, truncation 30; there
    # (2, 1) comes before (1, 2) in the spectrum, but (1, 2) sorts first
    config = tmp_path / "config.json"
    config.write_text("{}")
    assert run(command, config, tmp_path) == 0
    doc = json.loads((tmp_path / "chain.json").read_text())
    pairs = [(tuple(w["from"]), tuple(w["to"])) for w in doc["witness_paths"]]
    spectrum = enumerate_modes(1.0, 30)
    by_position = sorted(pairs, key=lambda p: (spectrum.position(p[0]), spectrum.position(p[1])))
    assert pairs == sorted(pairs)
    assert pairs != by_position
