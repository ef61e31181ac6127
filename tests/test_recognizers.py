import random

import networkx as nx
import pytest

from bruteforce import (
    clique_ordering_end_vertices,
    naive_asteroidal_triple,
    naive_consecutive_orders,
    naive_is_bipartite,
    naive_is_chordal,
    naive_is_forest,
    naive_maximal_cliques,
    naive_semisimplicial_vertices,
    naive_simple_vertices,
    semisimplicial_within,
    simple_within,
    simplicial_within,
    strongly_chordal_by_cycles,
    strongly_chordal_farber,
)
from convexgeom.enumeration import connected_graphs, connected_graphs_upto
from convexgeom.fixtures import GEM_FIXTURE, SEVEN_FIXTURE, delete_vertex
from convexgeom.errors import CapacityError
from convexgeom.graphs import (EXPONENTIAL_GUARD, Graph, bit, diameter,
                               induced_subgraph, is_connected, iter_bits,
                               mask_of)
from convexgeom.patterns import (
    CLAW,
    HOUSE,
    K3,
    P4,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    n_gem_graph,
    path_graph,
    star_graph,
)
from convexgeom.recognizers import (
    CLASS_KINDS,
    _semisimplicial_forbidden,
    _simple_forbidden,
    _simplicial_forbidden,
    diam_at_most,
    end_simplicial_vertices,
    find_asteroidal_triple,
    free_of_family,
    is_bipartite,
    is_chordal,
    is_chordal_cograph,
    is_cograph,
    is_forest,
    is_forest_of_stars,
    is_gem_solved,
    is_interval,
    is_l3_characterization,
    is_planar_desk,
    is_proper_interval,
    is_ptolemaic,
    is_strongly_chordal,
    is_weakly_polarizable,
    n_gems,
    recognize,
    semisimplicial_types,
    semisimplicial_vertices,
    simple_types,
    simple_vertices,
    simplicial_types,
    simplicial_vertices,
)


def naive_simplicial(g):
    out = 0
    for v in range(g.n):
        nbrs = list(iter_bits(g.adj[v]))
        if all(g.has_edge(a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]):
            out |= bit(v)
    return out


def test_vertex_type_examples():
    assert simplicial_vertices(GEM_FIXTURE) == mask_of([0, 3])
    assert simple_vertices(K3) == K3.vertex_set()
    assert semisimplicial_vertices(HOUSE) == bit(4)


def test_vertex_types_against_naive():
    for g in connected_graphs_upto(6):
        assert simplicial_vertices(g) == naive_simplicial(g), g
        assert simple_vertices(g) == naive_simple_vertices(g), g
        assert semisimplicial_vertices(g) == naive_semisimplicial_vertices(g), g


def _types_at(types, s):
    """The vertices whose type bitset has bit s set."""
    return sum(bit(x) for x, t in enumerate(types) if t >> s & 1)


def test_vertex_types_respect_sub_mask():
    g = GEM_FIXTURE
    sub = mask_of([0, 1, 2, 4])  # drop d: the path shortens to a,b,c under apex e
    assert _types_at(simplicial_types(g), sub) == mask_of([0, 2])
    assert _types_at(semisimplicial_types(g), sub) == sub  # no P4 fits in 4 vertices
    full = g.vertex_set()
    assert _types_at(simplicial_types(g), full) == simplicial_vertices(g)
    assert _types_at(simple_types(g), full) == simple_vertices(g)
    assert _types_at(semisimplicial_types(g), full) == semisimplicial_vertices(g)


def test_type_bitsets_match_per_set_oracles():
    # every subset of every connected graph to n = 7
    kinds = ((simplicial_types, simplicial_within),
             (semisimplicial_types, semisimplicial_within),
             (simple_types, simple_within))
    for g in connected_graphs_upto(7):
        for types, within in kinds:
            want = [0] * g.n
            for s in range(1 << g.n):
                for x in iter_bits(within(g, s)):
                    want[x] |= 1 << s
            assert types(g) == want, (g, types.__name__)


def test_forbidden_sets_stay_within():
    # every subset of every connected graph to n = 6: the vertices of sub
    # for which a generator yields nothing inside sub have the type in G[sub]
    kinds = ((_simplicial_forbidden, simplicial_within),
             (_semisimplicial_forbidden, semisimplicial_within),
             (_simple_forbidden, simple_within))
    for g in connected_graphs_upto(6):
        for sub in range(1 << g.n):
            for forbidden, within in kinds:
                typed = sum(bit(x) for x in iter_bits(sub)
                            if not any(forbidden(g.adj, x, sub)))
                assert typed == within(g, sub), (g, sub, forbidden.__name__)


def test_type_bitsets_refuse_above_guard():
    big = path_graph(EXPONENTIAL_GUARD + 1)
    for types in (simplicial_types, semisimplicial_types, simple_types):
        with pytest.raises(CapacityError):
            types(big)


def test_simple_implies_simplicial():
    for g in connected_graphs_upto(6):
        simple = simple_vertices(g)
        assert simple & ~simplicial_vertices(g) == 0
        assert simplicial_vertices(g) & ~semisimplicial_vertices(g) == 0


def test_chordal_examples():
    assert is_chordal(K3) and is_chordal(path_graph(5)) and is_chordal(GEM_FIXTURE)
    assert not is_chordal(cycle_graph(4))
    assert not is_chordal(cycle_graph(5))
    assert is_chordal(Graph(0, ())) and is_chordal(Graph(1, (0,)))


def test_chordal_against_naive():
    for g in connected_graphs_upto(6):
        assert is_chordal(g) == naive_is_chordal(g), g
    rng = random.Random(107)
    for g in rng.sample(connected_graphs(7), 80):
        assert is_chordal(g) == naive_is_chordal(g), g


def test_strongly_chordal_matches_farber():
    members = 0
    for g in connected_graphs_upto(8):
        got = is_strongly_chordal(g)
        assert got == strongly_chordal_farber(g), g
        assert got == strongly_chordal_by_cycles(g), g
        members += got
    assert members == 1841


def random_chordal_graph(n, rng):
    """Each new vertex joins a random clique inside the closed neighbourhood
    of a random earlier vertex, so it is simplicial when it arrives."""
    adj = [0]
    for v in range(1, n):
        w = rng.randrange(v)
        clique = bit(w)
        nbrs = list(iter_bits(adj[w]))
        rng.shuffle(nbrs)
        for u in nbrs:
            if clique & ~adj[u] == 0 and rng.random() < 0.5:
                clique |= bit(u)
        adj.append(clique)
        for u in iter_bits(clique):
            adj[u] |= bit(v)
    return Graph(n, adj)


def test_strongly_chordal_matches_oracles_on_random_chordal_graphs():
    rng = random.Random(2026)
    verdicts = []
    for _ in range(200):
        g = random_chordal_graph(rng.randint(9, 12), rng)
        assert is_chordal(g)
        got = is_strongly_chordal(g)
        assert got == strongly_chordal_farber(g), g
        assert got == strongly_chordal_by_cycles(g), g
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_strongly_chordal_examples():
    # the 3-sun: triangle 0,1,2 with 3 adjacent to 0,1; 4 to 1,2; 5 to 0,2
    sun = Graph.from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1),
                                   (4, 1), (4, 2), (5, 0), (5, 2)])
    assert is_chordal(sun)
    assert not is_strongly_chordal(sun)
    assert is_strongly_chordal(path_graph(5))
    assert is_strongly_chordal(complete_graph(5))


def test_ptolemaic_examples():
    assert is_ptolemaic(path_graph(5)) and is_ptolemaic(complete_graph(4))
    assert not is_ptolemaic(GEM_FIXTURE)       # the gem itself is the obstruction
    assert not is_ptolemaic(cycle_graph(5))
    assert is_ptolemaic(star_graph(3))


def test_weakly_polarizable_examples():
    assert is_weakly_polarizable(path_graph(5))
    assert is_weakly_polarizable(cycle_graph(4))   # C4 is neither hole nor listed
    assert not is_weakly_polarizable(cycle_graph(5))
    assert not is_weakly_polarizable(HOUSE)
    domino = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4),
                                      (4, 5), (3, 5)])
    assert not is_weakly_polarizable(domino)


def test_asteroidal_triple_examples():
    assert find_asteroidal_triple(cycle_graph(6)) is not None
    assert find_asteroidal_triple(P4) is None
    assert find_asteroidal_triple(cycle_graph(5)) is None
    # spider with three legs of length two
    spider = Graph.from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert find_asteroidal_triple(spider) is not None
    assert is_chordal(spider) and not is_interval(spider)


def test_asteroidal_triple_against_naive():
    for g in connected_graphs_upto(6):
        got = find_asteroidal_triple(g)
        want = naive_asteroidal_triple(g)
        assert (got is None) == (want is None), g
        if got is not None:
            a, b, c = got
            assert a < b < c


def test_interval_examples():
    assert is_interval(star_graph(3))
    assert not is_proper_interval(star_graph(3))   # the claw obstruction
    assert is_proper_interval(path_graph(5))
    assert not is_interval(cycle_graph(4))
    assert is_interval(GEM_FIXTURE)
    assert is_proper_interval(complete_graph(4))


def test_interval_against_networkx_cliques():
    # interval = chordal + consecutive clique arrangement; cross-check the
    # clique layer against networkx
    rng = random.Random(113)
    for g in rng.sample(connected_graphs(6), 40):
        ours = naive_maximal_cliques(g)
        nxg = nx.Graph([*g.edges()])
        nxg.add_nodes_from(range(g.n))
        theirs = sorted(mask_of(c) for c in nx.find_cliques(nxg))
        assert ours == theirs, g


def test_cograph_examples():
    assert is_cograph(complete_graph(4)) and is_cograph(complete_bipartite(2, 3))
    assert not is_cograph(P4)
    assert is_chordal_cograph(complete_graph(4))
    assert not is_chordal_cograph(complete_bipartite(2, 2))  # C4 is a cograph
    assert is_chordal_cograph(star_graph(3))


def test_forest_examples():
    assert is_forest(path_graph(5)) and is_forest(star_graph(4))
    assert not is_forest(cycle_graph(3))
    assert is_forest_of_stars(star_graph(4))
    assert not is_forest_of_stars(path_graph(4))  # two adjacent centers
    assert is_forest_of_stars(path_graph(3))
    assert is_forest_of_stars(Graph.from_edge_list(2, [(0, 1)]))


def test_forest_and_bipartite_against_naive():
    for g in connected_graphs_upto(6):
        assert is_forest(g) == naive_is_forest(g), g
        assert is_bipartite(g) == naive_is_bipartite(g), g


def test_bipartite_examples():
    assert is_bipartite(cycle_graph(6)) and not is_bipartite(cycle_graph(5))
    assert is_bipartite(path_graph(4)) and not is_bipartite(K3)


def test_diam_at_most():
    assert diam_at_most(path_graph(4), 3) and not diam_at_most(path_graph(4), 2)
    assert diam_at_most(complete_graph(5), 1)
    assert not diam_at_most(Graph.from_edge_list(3, [(0, 1)]), 5)  # disconnected


def test_planarity_against_networkx():
    for g in connected_graphs_upto(6):
        nxg = nx.Graph([*g.edges()])
        nxg.add_nodes_from(range(g.n))
        planar, _ = nx.check_planarity(nxg)
        assert is_planar_desk(g) == planar, g
    rng = random.Random(127)
    for g in rng.sample(connected_graphs(7), 60):
        nxg = nx.Graph([*g.edges()])
        planar, _ = nx.check_planarity(nxg)
        assert is_planar_desk(g) == planar, g


def test_planarity_known_cases():
    assert not is_planar_desk(complete_graph(5))
    assert not is_planar_desk(complete_bipartite(3, 3))
    assert is_planar_desk(complete_graph(4))
    # K5 with one edge subdivided stays nonplanar
    k5 = complete_graph(5)
    adj = list(k5.adj)
    adj[0] &= ~bit(1)
    adj[1] &= ~bit(0)
    sub = Graph(5, adj).with_new_vertex(bit(0) | bit(1))
    assert not is_planar_desk(sub)


def test_clique_order_examples():
    assert len(naive_maximal_cliques(P4)) == 3
    assert len(naive_consecutive_orders(P4)) == 2       # one order + reversal
    assert naive_maximal_cliques(K3) == [K3.vertex_set()]
    assert len(naive_consecutive_orders(K3)) == 1
    assert len(naive_maximal_cliques(cycle_graph(4))) == 4
    assert naive_consecutive_orders(cycle_graph(4)) == []


def test_clique_guard():
    # P14 is an interval graph with 13 maximal cliques (its edges); the
    # pendant test needs no bound on their number
    g = path_graph(14)
    assert is_interval(g) and len(naive_maximal_cliques(g)) == 13
    assert end_simplicial_vertices(g) == mask_of([0, 13])


def test_end_simplicial_examples():
    assert end_simplicial_vertices(P4) == mask_of([0, 3])
    assert end_simplicial_vertices(K3) == K3.vertex_set()
    assert end_simplicial_vertices(star_graph(3)) == mask_of([1, 2, 3])
    assert end_simplicial_vertices(path_graph(1)) == bit(0)
    # the largest graph the library takes: no new vertex is built
    k32 = complete_graph(32)
    assert end_simplicial_vertices(k32) == k32.vertex_set()


def test_end_simplicial_requires_interval_graph():
    with pytest.raises(ValueError) as err:
        end_simplicial_vertices(cycle_graph(4))
    assert "interval" in str(err.value)


def test_end_simplicial_guards_hold_on_repeated_calls():
    # the per-graph cache keeps answers only: a refused graph is refused on
    # every call
    for _ in range(2):
        with pytest.raises(ValueError):
            end_simplicial_vertices(cycle_graph(4))
    assert end_simplicial_vertices(path_graph(14)) == mask_of([0, 13])


def _interval_graphs_and_subgraphs():
    """Every connected interval graph to n = 8, and every interval induced
    subgraph (disconnected ones too) of those to n = 7, once per labelling."""
    graphs = [g for g in connected_graphs_upto(8) if is_interval(g)]
    subs = {}
    for g in graphs:
        if g.n <= 7:
            for members in range(1, 1 << g.n):
                sub, _ = induced_subgraph(g, members)
                if is_interval(sub):
                    subs[sub] = None
    return graphs + list(subs)


def test_end_simplicial_against_orderings():
    # independent reading: v is end simplicial iff some consecutive ordering
    # opens or closes with a clique containing v; the clique-ordering search
    # is checked on the same graphs, since it is the oracle beyond them
    graphs = _interval_graphs_and_subgraphs()
    assert len(graphs) == 1658 + 1044
    assert any(not is_connected(g) for g in graphs)
    for g in graphs:
        want = 0
        simp = simplicial_vertices(g)
        for order in naive_consecutive_orders(g):
            for v in iter_bits(simp):
                if (order[0] | order[-1]) & bit(v):
                    home = g.adj[v] | bit(v)
                    if home == order[0] or home == order[-1]:
                        want |= bit(v)
        assert end_simplicial_vertices(g) == want, g
        assert clique_ordering_end_vertices(g) == want, g


def random_interval_graph(n, rng):
    """Intersection graph of n random closed intervals."""
    ends = []
    for _ in range(n):
        a = rng.uniform(0, 10)
        ends.append((a, a + rng.uniform(0.2, 3)))
    adj = [0] * n
    for i, (a, b) in enumerate(ends):
        for j, (c, d) in enumerate(ends):
            if i != j and a <= d and c <= b:
                adj[i] |= bit(j)
    return Graph(n, adj)


def test_end_simplicial_on_random_interval_models():
    rng = random.Random(1988)
    for _ in range(300):
        g = random_interval_graph(rng.randint(9, 20), rng)
        assert is_interval(g)
        assert end_simplicial_vertices(g) == clique_ordering_end_vertices(g), g


def test_n_gem_detection():
    four_gem = n_gem_graph(4)
    gems = n_gems(four_gem)
    assert gems == [((0, 1, 2, 3, 4), 5)]
    assert not is_gem_solved(four_gem, (0, 1, 2, 3, 4), 5)
    assert not is_l3_characterization(four_gem)
    assert n_gems(cycle_graph(5)) == []
    assert n_gems(GEM_FIXTURE) == []   # its path has only four vertices


def test_l3_characterization_fixture():
    assert is_l3_characterization(SEVEN_FIXTURE)
    shrunk = delete_vertex(SEVEN_FIXTURE, 1)
    assert diameter(shrunk) == 4
    assert not is_l3_characterization(shrunk)


def test_seven_fixture_gems_are_solved():
    # max degree 4 leaves no room for a five-vertex path in a neighborhood,
    # so the solved-gem condition holds vacuously here
    gems = n_gems(SEVEN_FIXTURE)
    assert gems == []
    assert all(is_gem_solved(SEVEN_FIXTURE, path, apex) for path, apex in gems)
    # a graph where gems exist and are genuinely solved: add a resolver vertex
    four_gem = n_gem_graph(4)
    solved = four_gem.with_new_vertex(bit(0) | bit(3))
    assert n_gems(solved) and all(is_gem_solved(solved, p, a) for p, a in n_gems(solved))


def test_free_of_family():
    assert free_of_family(path_graph(3), (K3, CLAW))
    assert not free_of_family(star_graph(3), (K3, CLAW))
    assert not free_of_family(K3, (K3, CLAW))
    assert free_of_family(Graph(1, (0,)), (K3,))


def test_class_implications():
    for g in connected_graphs_upto(6):
        if is_ptolemaic(g):
            assert is_chordal(g)
        if is_strongly_chordal(g):
            assert is_chordal(g)
        if is_proper_interval(g):
            assert is_interval(g)
        if is_interval(g):
            assert is_chordal(g) and find_asteroidal_triple(g) is None
        if is_chordal_cograph(g):
            assert is_chordal(g) and is_cograph(g)
        if is_forest_of_stars(g):
            assert is_forest(g)
        if is_forest(g):
            assert is_bipartite(g) and is_chordal(g)
        if is_l3_characterization(g):
            assert is_chordal(g) and diam_at_most(g, 3)


def test_recognize_dispatch():
    assert set(CLASS_KINDS) >= {"chordal", "ptolemaic", "stronglyChordal",
                                "weaklyPolarizable", "interval", "properInterval",
                                "cograph", "chordalCograph", "forest",
                                "forestOfStars", "bipartite", "planarDesk",
                                "l3Characterization", "diamAtMost"}
    g = path_graph(4)
    assert recognize(g, "chordal")
    assert recognize(g, "diamAtMost", k=3)
    assert not recognize(g, "diamAtMost", k=2)
    with pytest.raises(ValueError):
        recognize(g, "diamAtMost")
    with pytest.raises(ValueError):
        recognize(g, "noSuchClass")
    for kind in CLASS_KINDS:
        if kind == "diamAtMost":
            continue
        assert recognize(g, kind) in (True, False)
