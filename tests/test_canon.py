import random
from collections import Counter
from itertools import permutations

import networkx as nx
import pytest

from bruteforce import (canonical_graph, iso_invariant, naive_automorphisms,
                        naive_canonical_search, naive_is_isomorphic,
                        naive_refine_colors)
from convexgeom.canon import (
    _refine_colors,
    canonical_form,
    canonical_search,
    decode_canonical_form,
    is_isomorphic,
)
from convexgeom.enumeration import connected_graphs, connected_graphs_upto
from convexgeom.errors import CapacityError
from convexgeom.graphs import Graph
from convexgeom.patterns import complete_graph, cycle_graph
from test_graphs import labeled_graphs, random_graph, relabel


def test_relabel_invariance():
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.random(), rng)
        form = canonical_form(g)
        for rep in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, perm)) == form


def test_matches_naive_isomorphism_exhaustively():
    for n in (0, 1, 2, 3, 4):
        graphs = list(labeled_graphs(n))
        forms = [canonical_form(g) for g in graphs]
        for i, g in enumerate(graphs):
            for j, h in enumerate(graphs):
                assert (forms[i] == forms[j]) == naive_is_isomorphic(g, h), (g, h)


def test_matches_networkx_isomorphism():
    rng = random.Random(17)
    for trial in range(120):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.random(), rng)
        h = random_graph(n, rng.random(), rng)
        ag = nx.Graph([*g.edges()])
        ah = nx.Graph([*h.edges()])
        ag.add_nodes_from(range(n))
        ah.add_nodes_from(range(n))
        assert is_isomorphic(g, h) == nx.is_isomorphic(ag, ah)


def test_form_layout():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    form = canonical_form(g)
    assert isinstance(form, bytes)
    assert form[0] == 5
    assert len(form) == 1 + (5 * 4 // 2 + 7) // 8


def test_decode_is_inverse():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(0, 9)
        g = random_graph(n, rng.random(), rng)
        form = canonical_form(g)
        back = decode_canonical_form(form)
        assert canonical_form(back) == form
        assert naive_is_isomorphic(back, g) if n <= 5 else is_isomorphic(back, g)


def test_canonical_graph_is_isomorphic_representative():
    g = Graph.from_edge_list(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    rep = canonical_graph(g)
    assert rep.n == 6 and is_isomorphic(rep, g)
    # every relabeling lands on the same representative
    for perm in permutations(range(6)):
        if perm[0] > 1:
            continue
        assert canonical_graph(relabel(g, list(perm))) == rep


def test_iso_invariant_hashable():
    g = Graph.from_edge_list(3, [(0, 1)])
    h = relabel(g, [2, 1, 0])
    assert iso_invariant(g) == iso_invariant(h)
    assert len({iso_invariant(g), iso_invariant(h)}) == 1


def test_capacity_guard():
    big = Graph(13, (0,) * 13)
    with pytest.raises(CapacityError):
        canonical_form(big)


def _search_generators(g):
    return canonical_search(g.adj, _refine_colors(g.adj))[2]


def _generated_group(n, generators):
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for gen in generators:
            q = tuple(gen[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return group


def test_generators_generate_the_automorphism_group():
    rng = random.Random(11)
    for n in range(1, 7):
        for g in connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert _generated_group(n, _search_generators(h)) == naive_automorphisms(h)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edge_list(10, outer + inner + [(i, i + 5) for i in range(5)])


@pytest.mark.parametrize("g, order", [
    (complete_graph(8), 40320),
    (Graph.from_edge_list(8, [(0, i) for i in range(1, 8)]), 5040),
    (cycle_graph(8), 16),
    (Graph.from_edge_list(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4)
                              if u < u ^ b]), 48),
    (_petersen(), 120),
], ids=["K8", "K1,7", "C8", "Q3", "Petersen"])
def test_automorphism_group_orders(g, order):
    generators = _search_generators(g)
    for gen in generators:
        assert sorted(gen) == list(range(g.n))
        assert relabel(g, list(gen)) == g
    assert len(_generated_group(g.n, generators)) == order


def test_search_order_is_the_canonical_labeling():
    rng = random.Random(23)
    for trial in range(40):
        n = rng.randrange(1, 10)
        g = random_graph(n, rng.random(), rng)
        form, order, _ = canonical_search(g.adj, _refine_colors(g.adj))
        label = [0] * n
        for i, v in enumerate(order):
            label[v] = i
        assert form == canonical_form(g)
        assert relabel(g, label) == decode_canonical_form(form)


def test_refine_colors_matches_sorted_tuple_oracle():
    # n = 8 is the first order with graphs where a weight base too small to
    # hold every count (base 2 instead of n + 1) changes the colors
    for g in connected_graphs_upto(8):
        assert _refine_colors(g.adj) == naive_refine_colors(g.adj), g
    rng = random.Random(29)
    for trial in range(300):
        g = random_graph(rng.randrange(0, 13), rng.random(), rng)
        assert _refine_colors(g.adj) == naive_refine_colors(g.adj), g


def test_canonical_search_matches_naive_search():
    # every connected graph to n = 6 and seeded random graphs to n = 8, on
    # both paths: discrete colors (one leaf) and the pruned search
    rng = random.Random(31)
    graphs = connected_graphs_upto(6) + [
        random_graph(rng.randrange(0, 9), rng.random(), rng) for _ in range(120)]
    paths = Counter()
    for g in graphs:
        colors = _refine_colors(g.adj)
        form, order, generators = canonical_search(g.adj, colors)
        assert (form, order) == naive_canonical_search(g.adj, colors), g
        discrete = len(set(colors)) == g.n
        paths[discrete] += 1
        if discrete:
            assert generators == []
    assert paths[True] and paths[False]
