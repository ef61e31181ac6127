import random
from itertools import combinations

from bruteforce import (backtracking_induced_embeddings, naive_contains_induced,
                        naive_is_isomorphic)
from convexgeom.canon import canonical_form, is_isomorphic
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.graphs import Graph, emit_graph6, iter_bits, mask_of
from convexgeom.patterns import (
    A_GRAPH,
    CLAW,
    DOMINO,
    GEM,
    HOUSE,
    K3,
    P4,
    all_induced_occurrences,
    complete_bipartite,
    complete_graph,
    contains_induced,
    cycle_graph,
    iter_induced_embeddings,
    kuratowski_family,
    n_gem_graph,
    odd_cycle_family,
    path_graph,
    star_graph,
)
from test_graphs import random_graph


def test_builders():
    p = path_graph(5)
    assert p.n == 5 and sorted(p.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    c = cycle_graph(5)
    assert c.n == 5 and c.edge_count() == 5 and all(c.degree(v) == 2 for v in range(5))
    k = complete_graph(4)
    assert k.edge_count() == 6
    b = complete_bipartite(2, 3)
    assert b.n == 5 and b.edge_count() == 6
    assert all(not b.has_edge(u, v) for u, v in ((0, 1), (2, 3), (2, 4), (3, 4)))
    s = star_graph(4)
    assert s.n == 5 and s.degree(0) == 4 and s.edge_count() == 4


def test_fixed_patterns():
    assert GEM.n == 5 and GEM.degree(4) == 4
    assert HOUSE.n == 5 and sorted(HOUSE.degree(v) for v in range(5)) == [2, 2, 2, 3, 3]
    assert DOMINO.n == 6 and DOMINO.edge_count() == 7
    assert A_GRAPH.n == 6 and sorted(A_GRAPH.degree(v) for v in range(6)) == [1, 1, 2, 2, 3, 3]
    assert CLAW.n == 4 and K3.edge_count() == 3 and P4.n == 4
    for g, m, degs in [(GEM, 7, [2, 2, 3, 3, 4]),
                       (HOUSE, 6, [2, 2, 2, 3, 3]),
                       (DOMINO, 7, [2, 2, 2, 2, 3, 3]),
                       (A_GRAPH, 6, [1, 1, 2, 2, 3, 3]),
                       (CLAW, 3, [1, 1, 1, 3]),
                       (P4, 3, [1, 1, 2, 2]),
                       (K3, 3, [2, 2, 2])]:
        assert g.edge_count() == m, g
        assert sorted(g.degree(v) for v in range(g.n)) == degs, g
    # the fixed labelings of the module docstring
    assert GEM.adj[4] == 0b01111           # e universal over the path
    assert HOUSE.adj[4] == 0b00011         # roof on a,b
    assert DOMINO.has_edge(4, 5) and not A_GRAPH.has_edge(4, 5)
    # the gem is the 3-gem: path of three edges plus a universal apex
    assert is_isomorphic(GEM, n_gem_graph(3))


def test_n_gem_graph():
    g = n_gem_graph(4)
    assert g.n == 6
    assert g.degree(5) == 5
    assert sorted(g.edges()) == [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3),
                                 (2, 5), (3, 4), (3, 5), (4, 5)]


def test_odd_cycle_family():
    assert odd_cycle_family(2) == []
    assert [c.n for c in odd_cycle_family(3)] == [3]
    assert [c.n for c in odd_cycle_family(8)] == [3, 5, 7]


def _smooth(g):
    """Contract away degree-2 vertices; recovers the branch graph of a subdivision."""
    while True:
        v = next((x for x in range(g.n) if g.degree(x) == 2), None)
        if v is None:
            return g
        u, w = iter_bits(g.adj[v])
        keep = [x for x in range(g.n) if x != v]
        pos = {x: i for i, x in enumerate(keep)}
        edges = [(pos[a], pos[b]) for a, b in g.edges() if v not in (a, b)]
        edges.append((pos[u], pos[w]))
        g = Graph.from_edge_list(g.n - 1, sorted(set(tuple(sorted(e)) for e in edges)))


def test_kuratowski_family_members_and_counts():
    # counts follow from the edge-multiset orbits under Aut(K5) and Aut(K3,3)
    expected_total = {5: 1, 6: 3, 7: 7, 8: 17}
    k5 = complete_graph(5)
    k33 = complete_bipartite(3, 3)
    for max_n, total in expected_total.items():
        fam = kuratowski_family(max_n)
        assert len(fam) == total
        assert len({canonical_form(p) for p in fam}) == total
        for p in fam:
            assert p.n <= max_n
            core = _smooth(p)
            assert is_isomorphic(core, k5) or is_isomorphic(core, k33)


def test_kuratowski_family_degree_profiles():
    for p in kuratowski_family(8):
        degs = sorted(p.degree(v) for v in range(p.n))
        branch = [d for d in degs if d != 2]
        assert branch in ([4] * 5, [3] * 6)


def test_embedding_semantics():
    g = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    emb = contains_induced(g, P4)
    assert emb is not None
    for i in range(4):
        for j in range(i + 1, 4):
            assert g.has_edge(emb[i], emb[j]) == P4.has_edge(i, j)


def test_contains_induced_against_naive():
    patterns = [K3, P4, CLAW, cycle_graph(4), cycle_graph(5), GEM, HOUSE,
                path_graph(5), star_graph(4)]
    for g in connected_graphs_upto(6):
        for p in patterns:
            got = contains_induced(g, p) is not None
            assert got == naive_contains_induced(g, p), (g, p)


def test_occurrence_masks_against_naive():
    rng = random.Random(31)
    patterns = [K3, P4, CLAW, cycle_graph(4)]
    for trial in range(25):
        g = random_graph(6, rng.random(), rng)
        for p in patterns:
            naive = sorted(
                mask_of(sub) for sub in combinations(range(g.n), p.n)
                if naive_is_isomorphic(
                    _induced(g, mask_of(sub)), p))
            assert all_induced_occurrences(g, p) == naive


def _induced(g, members):
    from convexgeom.graphs import induced_subgraph
    return induced_subgraph(g, members)[0]


def test_known_occurrence_counts():
    c5 = cycle_graph(5)
    assert len(all_induced_occurrences(c5, P4)) == 5
    assert len(all_induced_occurrences(complete_graph(5), K3)) == 10
    assert len(all_induced_occurrences(star_graph(3), CLAW)) == 1
    assert len(all_induced_occurrences(path_graph(5), P4)) == 2
    assert len(all_induced_occurrences(GEM, GEM)) == 1
    assert contains_induced(GEM, cycle_graph(4)) is None


def test_empty_and_oversized_patterns():
    g = path_graph(3)
    assert contains_induced(g, Graph(0, ())) == ()
    assert contains_induced(g, path_graph(4)) is None
    assert list(iter_induced_embeddings(g, complete_graph(4))) == []


# the patterns the library searches for, the Kuratowski family to order 7,
# and the empty pattern
SEQUENCE_PATTERNS = (GEM, HOUSE, DOMINO, A_GRAPH, CLAW, P4, K3, cycle_graph(4),
                     cycle_graph(5), *kuratowski_family(7), Graph(0, ()))


def _same_embedding_sequences(g):
    for p in SEQUENCE_PATTERNS:
        assert list(iter_induced_embeddings(g, p)) == \
            list(backtracking_induced_embeddings(g, p)), (emit_graph6(g), p)


def test_embeddings_match_backtracking_sequence_exhaustive():
    # the same tuples in the same order, so contains_induced, the occurrence
    # masks, the closure rules and every witness built on them stay the same
    for g in connected_graphs_upto(7):
        _same_embedding_sequences(g)


def test_embeddings_match_backtracking_sequence_random():
    # larger graphs, disconnected ones among them; the search has no guard
    rng = random.Random(47)
    for n in range(8, 17):
        for _ in range(5):
            _same_embedding_sequences(random_graph(n, rng.uniform(0.15, 0.6), rng))
