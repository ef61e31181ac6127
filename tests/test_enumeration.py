import hashlib
from collections import Counter

import networkx as nx
import pytest

from bruteforce import (naive_canonical_keys, naive_is_isomorphic,
                        naive_passes_deletion_rule)
from convexgeom import enumeration
from convexgeom.canon import (_refine_colors, canonical_form, canonical_search,
                              decode_canonical_form)
from convexgeom.enumeration import (
    CONNECTED_COUNTS,
    ENUMERATION_LIMIT,
    _canonical_keys,
    _graphs,
    _neighbor_sets,
    _orbit_representatives,
    _parts_without,
    _passes_deletion_rule,
    connected_graphs,
    connected_graphs_upto,
)
from convexgeom.errors import CapacityError, UsageError
from convexgeom.graphs import Graph, is_connected
from convexgeom.patterns import complete_graph, cycle_graph, path_graph
from convexgeom.recognizers import is_bipartite, is_chordal, is_cograph, is_forest
from test_graphs import labeled_graphs


def test_counts_match_known_sequence():
    for n in range(1, 8):
        assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]


def test_count_n8():
    assert len(connected_graphs(8)) == CONNECTED_COUNTS[8]


def test_each_class_generated_exactly_once():
    # no dedupe set: a class generated twice would show up as extra length
    for n in range(1, 9):
        keys = _canonical_keys(n)
        assert len(keys) == CONNECTED_COUNTS[n]
        assert len(set(keys)) == len(keys)


# sha256 of b"".join(_canonical_keys(n)): pins every canonical byte
KEY_DIGESTS = {
    7: "038532859877fec534ae5b54f1a4f85353ce99d6ab1b94e30502357b9987b12c",
    8: "5067619f592aa75c11e55f8f1101c0398288d1df66aabf84f7e93520b08be0cd",
}


@pytest.mark.parametrize("n", sorted(KEY_DIGESTS))
def test_keys_byte_identical(n):
    assert hashlib.sha256(b"".join(_canonical_keys(n))).hexdigest() == KEY_DIGESTS[n]


def test_graphs_are_the_decoded_keys():
    for n in range(1, 9):
        keys = _canonical_keys(n)
        graphs = _graphs(n)
        assert len(graphs) == len(keys)
        for key, g in zip(keys, graphs):
            assert g == decode_canonical_form(key)


def test_members_are_connected_and_distinct():
    for n in range(1, 7):
        graphs = connected_graphs(n)
        forms = {canonical_form(g) for g in graphs}
        assert len(forms) == len(graphs)
        for g in graphs:
            assert g.n == n and is_connected(g)
        # deterministic order: sorted by canonical encoding
        assert [canonical_form(g) for g in graphs] == sorted(forms)


def test_exhaustive_against_labeled_enumeration():
    # independently: dedup all labeled 4-vertex graphs by permutation isomorphism
    reps = []
    for g in labeled_graphs(4):
        if not is_connected(g):
            continue
        if not any(naive_is_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 6
    ours = connected_graphs(4)
    assert len(ours) == 6
    for r in reps:
        assert sum(1 for g in ours if naive_is_isomorphic(g, r)) == 1


def test_known_families_present():
    for n in (3, 4, 5, 6):
        forms = {canonical_form(g) for g in connected_graphs(n)}
        assert canonical_form(path_graph(n)) in forms
        assert canonical_form(cycle_graph(n)) in forms
        assert canonical_form(complete_graph(n)) in forms


def test_upto_concatenates():
    upto = connected_graphs_upto(5)
    assert len(upto) == 1 + 1 + 2 + 6 + 21
    assert [g.n for g in upto] == sorted(g.n for g in upto)


def test_enumeration_guard():
    assert ENUMERATION_LIMIT == 9
    with pytest.raises(CapacityError):
        connected_graphs(0)
    with pytest.raises(CapacityError):
        connected_graphs(10)


def _split(n, edges):
    """The graph on n vertices with the given edges as (adjacency list,
    _parts_without of its parent), the parent being the graph less its last
    vertex, which must be connected."""
    adj = list(Graph.from_edge_list(n, edges).adj)
    parent = Graph(n - 1, [row & ~(1 << (n - 1)) for row in adj[:-1]])
    return adj, _parts_without(parent)


def _passes(n, edges):
    return _passes_deletion_rule(*_split(n, edges))


def test_deletion_rule_examples():
    # new vertex 3 joined to all of the path 0-1-2: the leaf 0 has lower
    # degree and is not a cut vertex
    assert not _passes(4, [(0, 1), (1, 2), (3, 0), (3, 1), (3, 2)])
    # new vertex 3 closes the 4-cycle: no vertex has lower degree
    assert _passes(4, [(0, 1), (1, 2), (3, 0), (3, 2)])
    # two 4-cliques joined through vertex 4: the only vertex of lower degree
    # than the new vertex 8 is a cut vertex
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges = k4 + [(a + 5, b + 5) for a, b in k4] + [(3, 4), (4, 5)]
    assert _passes(9, edges)
    # two 4-cliques joined by the path 0-4-5, and new vertex 9 on {0, 1, 6}:
    # the parent's non-cut vertices all have degree 3 = |S|, so the mask test
    # keeps the set, but the parent's cut vertex 4 (degree 2) is non-cut here
    edges = (k4 + [(a + 5, b + 5) for a, b in k4]
             + [(0, 4), (4, 5), (9, 0), (9, 1), (9, 6)])
    adj, parts = _split(10, edges)
    parent = Graph(9, [row & ~(1 << 9) for row in adj[:-1]])
    assert 0b1000011 in _neighbor_sets(parent, parts)
    assert not _passes_deletion_rule(adj, parts)
    assert not naive_passes_deletion_rule(Graph(10, adj))


def _child_adj(parent, nbrs):
    return [row | (1 << parent.n) if nbrs >> u & 1 else row
            for u, row in enumerate(parent.adj)] + [nbrs]


def test_prefilter_drops_only_rejected_sets():
    # every parent to n = 7: the capped, mask-tested neighbor sets are the
    # full orbit representatives, in order, less sets the rule rejects
    for n in range(1, 8):
        for parent in connected_graphs(n):
            parts = _parts_without(parent)
            generators = canonical_search(parent.adj, _refine_colors(parent.adj))[2]
            full = _orbit_representatives(n, generators, n)
            kept = _neighbor_sets(parent, parts)
            assert kept == [s for s in full if s in set(kept)]
            for s in set(full) - set(kept):
                assert not _passes_deletion_rule(_child_adj(parent, s), parts)


def test_deletion_rule_matches_definition():
    # the rule on inherited cut status against BFS connectivity of G - u,
    # on every orbit representative of every parent to n = 6
    for n in range(1, 7):
        for parent in connected_graphs(n):
            parts = _parts_without(parent)
            generators = canonical_search(parent.adj, _refine_colors(parent.adj))[2]
            for s in _orbit_representatives(n, generators, n):
                adj = _child_adj(parent, s)
                assert (_passes_deletion_rule(adj, parts)
                        == naive_passes_deletion_rule(Graph(n + 1, adj)))


def test_funnel_to_n8(monkeypatch):
    # neighbor sets tried under the size cap, kept by the mask test, passing
    # the deletion rule, canonical searches (one per parent and one per
    # child past the color test) and children accepted, over all parents of
    # order 1..7; without the cap there are 71300 orbit representatives
    connected_graphs(7)
    counts = Counter()

    def counting(name, measure):
        real = getattr(enumeration, name)

        def wrapper(*args):
            out = real(*args)
            counts[name] += measure(out)
            return out
        monkeypatch.setattr(enumeration, name, wrapper)

    counting("_orbit_representatives", len)
    counting("_neighbor_sets", len)
    counting("_passes_deletion_rule", int)
    counting("canonical_search", lambda out: 1)
    accepted = sum(1 for n in range(1, 8) for parent in _graphs(n)
                   for _ in enumeration._augmentations(parent))
    assert dict(counts) == {"_orbit_representatives": 30280, "_neighbor_sets": 18311,
                            "_passes_deletion_rule": 18311, "canonical_search": 13132}
    assert accepted == sum(CONNECTED_COUNTS[n] for n in range(2, 9)) == 12112


def test_non_int_orders_rejected(monkeypatch):
    for n in (2.5, "3", None, True, 8.0):
        with pytest.raises(UsageError, match="n must be an int"):
            connected_graphs(n)
        with pytest.raises(UsageError, match="n must be an int"):
            connected_graphs_upto(n)
    assert connected_graphs_upto(0) == []

    def build(n):
        raise AssertionError(f"order {n} built")
    # an order above the limit is refused before any order is built
    monkeypatch.setattr(enumeration, "_graphs", build)
    with pytest.raises(CapacityError):
        connected_graphs_upto(ENUMERATION_LIMIT + 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_deletion_rule_keeps_every_class(n):
    assert _canonical_keys(n) == naive_canonical_keys(n)


def test_matches_networkx_atlas():
    atlas = {}
    for h in nx.graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h):
            g = Graph.from_edge_list(n, h.edges())
            atlas.setdefault(n, set()).add(canonical_form(g))
    assert sorted(atlas) == list(range(1, 8))
    for n, forms in atlas.items():
        assert forms == set(_canonical_keys(n))


# connected members per order n = 1..8, from OEIS
OEIS_CLASS_COUNTS = [
    (is_forest, [1, 1, 1, 2, 3, 6, 11, 23]),             # A000055 trees
    (is_chordal, [1, 1, 2, 5, 15, 58, 272, 1614]),       # A058862
    (is_cograph, [1, 1, 2, 5, 12, 33, 90, 261]),         # A000669
    (is_bipartite, [1, 1, 1, 3, 5, 17, 44, 182]),        # A005142
]


@pytest.mark.parametrize("check, counts", OEIS_CLASS_COUNTS,
                         ids=[c.__name__ for c, _ in OEIS_CLASS_COUNTS])
def test_class_counts_match_oeis(check, counts):
    assert [sum(1 for g in connected_graphs(n) if check(g))
            for n in range(1, 9)] == counts
