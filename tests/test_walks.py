import random

import pytest

from bruteforce import (all_walks, bounded_walk_hits, bounded_walk_oracle,
                        default_walk_bound, is_tolled_walk,
                        is_weakly_toll_walk, naive_interval)
from convexgeom.engine import expand_once
from convexgeom.enumeration import connected_graphs, connected_graphs_upto
from convexgeom.errors import UnsupportedOracleError
from convexgeom.fixtures import GEM_FIXTURE
from convexgeom.graphs import Graph, bit, mask_of
from convexgeom.patterns import K3, cycle_graph, path_graph, star_graph
from convexgeom.recognizers import find_asteroidal_triple, is_ptolemaic
from convexgeom.walks import (
    CLOSURE_KINDS,
    INTERVAL_KINDS,
    ConvexitySpec,
    f_free,
    geodetic,
    interval,
    interval_table,
    lk,
    m3,
    monophonic,
    p3,
    p4plus,
    strong,
    toll,
    triangle_path,
    weakly_toll,
)
from test_graphs import random_graph

PATH_SPECS = [
    ("geodetic", geodetic(), {}),
    ("monophonic", monophonic(), {}),
    ("m3", m3(), {}),
    ("lk", lk(1), {"k": 1}),
    ("lk", lk(2), {"k": 2}),
    ("lk", lk(3), {"k": 3}),
    ("lk", lk(4), {"k": 4}),
    ("strong", strong(), {}),
    ("trianglePath", triangle_path(), {}),
    ("p3", p3(), {}),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        ConvexitySpec("nonsense")
    with pytest.raises(ValueError):
        ConvexitySpec("lk")
    with pytest.raises(ValueError):
        ConvexitySpec("lk", k=0)
    with pytest.raises(ValueError):
        ConvexitySpec("geodetic", k=2)
    with pytest.raises(ValueError):
        ConvexitySpec("fFree")
    with pytest.raises(ValueError):
        ConvexitySpec("fFree", family=(Graph(1, (0,)),))
    with pytest.raises(ValueError):
        ConvexitySpec("monophonic", family=(K3,))


def test_spec_names_and_oracle_flags():
    assert geodetic().name == "geodetic"
    assert lk(3).name == "l3"
    assert f_free((K3,)).name == "fFree"
    for kind in INTERVAL_KINDS:
        assert kind != "lk" or ConvexitySpec("lk", k=2).has_interval_oracle()
    assert not p4plus().has_interval_oracle()
    assert not f_free((K3,)).has_interval_oracle()
    # frozen dataclass: usable as a cache key
    assert len({geodetic(), geodetic(), lk(2)}) == 2


def test_no_interval_oracle_for_closure_kinds():
    g = path_graph(3)
    for spec in (f_free((K3,)), p4plus()):
        with pytest.raises(UnsupportedOracleError):
            interval_table(g, spec)
        with pytest.raises(UnsupportedOracleError):
            interval(g, spec, 0, 1)
    assert CLOSURE_KINDS == {"fFree", "p4plus"}


def test_path_intervals_against_naive_exhaustive():
    for g in connected_graphs_upto(5):
        for kind, spec, extra in PATH_SPECS:
            for u in range(g.n):
                for v in range(g.n):
                    want = naive_interval(g, kind, u, v, **extra)
                    assert interval(g, spec, u, v) == want, (g, kind, u, v)


def test_path_intervals_against_naive_sampled():
    rng = random.Random(61)
    graphs = connected_graphs(6)
    for g in rng.sample(graphs, 20):
        for kind, spec, extra in PATH_SPECS:
            u, v = rng.randrange(6), rng.randrange(6)
            assert interval(g, spec, u, v) == naive_interval(g, kind, u, v, **extra)


def test_toll_decisions_against_naive_walks():
    # literal walk enumeration is only tractable on tiny graphs
    for g in connected_graphs_upto(4):
        bound = 8
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                toll_hits = bit(u) | bit(v)
                wt_hits = bit(u) | bit(v)
                for walk in all_walks(g, u, bound):
                    if walk[-1] != v:
                        continue
                    if is_tolled_walk(g, walk):
                        toll_hits |= mask_of(walk)
                    if is_weakly_toll_walk(g, walk):
                        wt_hits |= mask_of(walk)
                assert bounded_walk_hits(g, "toll", u, v, max_len=bound) == toll_hits
                assert bounded_walk_hits(g, "weaklyToll", u, v, max_len=bound) == wt_hits
                assert interval(g, toll(), u, v) == toll_hits
                assert interval(g, weakly_toll(), u, v) == wt_hits


def test_toll_decisions_match_bounded_oracle():
    for g in connected_graphs_upto(5):
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert interval(g, toll(), u, v) == bounded_walk_hits(g, "toll", u, v)
                assert interval(g, weakly_toll(), u, v) == \
                    bounded_walk_hits(g, "weaklyToll", u, v)


def test_toll_decisions_match_bounded_oracle_sampled():
    rng = random.Random(67)
    for g in rng.sample(connected_graphs(6), 25):
        u = rng.randrange(6)
        v = (u + 1 + rng.randrange(5)) % 6
        for x in range(6):
            for kind, spec in (("toll", toll()), ("weaklyToll", weakly_toll())):
                assert bool(interval(g, spec, u, v) >> x & 1) == \
                    bounded_walk_oracle(g, kind, u, v, x)


def test_default_walk_bound():
    assert default_walk_bound(path_graph(4)) == 10
    assert default_walk_bound(Graph(1, (0,))) == 4


def test_gem_geodetic_interval():
    g = GEM_FIXTURE  # path a,b,c,d with universal apex e
    assert interval(g, geodetic(), 0, 3) == mask_of([0, 4, 3])
    assert expand_once(g, geodetic(), mask_of([0, 3])) == mask_of([0, 4, 3])


def test_cycle5_monophonic_interval():
    c5 = cycle_graph(5)
    assert interval(c5, monophonic(), 0, 2) == c5.vertex_set()
    assert expand_once(c5, monophonic(), mask_of([1, 4])) == c5.vertex_set()


def test_cycle4_m3_interval():
    c4 = cycle_graph(4)
    # both a-c paths have length 2, below the induced length >= 3 cutoff
    assert interval(c4, m3(), 0, 2) == mask_of([0, 2])
    assert interval(c4, monophonic(), 0, 2) == c4.vertex_set()


def test_k3_p3_interval():
    assert interval(K3, p3(), 1, 2) == K3.vertex_set()


def test_identity_pairs():
    for g in (K3, cycle_graph(5), GEM_FIXTURE):
        for kind, spec, extra in PATH_SPECS:
            for u in range(g.n):
                assert interval(g, spec, u, u) == bit(u)
        for u in range(g.n):
            assert interval(g, toll(), u, u) == bit(u)
            assert interval(g, weakly_toll(), u, u) == bit(u)


def test_adjacent_lk_interval():
    # between adjacent vertices no induced path of length two exists
    assert interval(K3, lk(2), 0, 1) == mask_of([0, 1])


def test_claw_toll_examples():
    claw = star_graph(3)  # center 0, leaves 1,2,3
    assert not interval(claw, toll(), 1, 2) >> 3 & 1
    assert interval(claw, weakly_toll(), 1, 2) >> 3 & 1
    assert bounded_walk_oracle(claw, "weaklyToll", 1, 2, 3)
    assert not bounded_walk_oracle(claw, "toll", 1, 2, 3)


def test_path_toll_examples():
    p4 = path_graph(4)
    assert interval(p4, toll(), 0, 3) >> 1 & 1
    assert interval(p4, weakly_toll(), 0, 3) >> 2 & 1
    p3_graph = path_graph(3)
    assert bounded_walk_oracle(p3_graph, "toll", 0, 2, 1)


def test_adjacent_endpoints_admit_no_interior():
    p4 = path_graph(4)
    for x in (2, 3):
        assert not interval(p4, toll(), 0, 1) >> x & 1
        assert not interval(p4, weakly_toll(), 0, 1) >> x & 1


def test_smallest_asteroidal_triple_graph_toll_walk():
    smallest = None
    for g in connected_graphs_upto(6):
        triple = find_asteroidal_triple(g)
        if triple is not None:
            smallest = (g, triple)
            break
    assert smallest is not None
    g, (a, b, c) = smallest
    assert g.n == 6
    # the AT construction threads a tolled walk through the middle vertex
    assert interval(g, toll(), a, c) >> b & 1
    assert bounded_walk_oracle(g, "toll", a, c, b)


def test_interval_symmetry_and_endpoints():
    rng = random.Random(71)
    for trial in range(15):
        g = random_graph(6, 0.5, rng)
        for kind, spec, extra in PATH_SPECS:
            t = interval_table(g, spec)
            for u in range(6):
                for v in range(6):
                    m = t[u * 6 + v]
                    assert m == t[v * 6 + u]
                    assert m & bit(u) and m & bit(v)


def test_containment_chains():
    for g in connected_graphs_upto(5):
        n = g.n
        t_geo = interval_table(g, geodetic())
        t_mono = interval_table(g, monophonic())
        t_toll = interval_table(g, toll())
        t_wt = interval_table(g, weakly_toll())
        t_m3 = interval_table(g, m3())
        t_tri = interval_table(g, triangle_path())
        t_p3 = interval_table(g, p3())
        t_l = {k: interval_table(g, lk(k)) for k in (1, 2, 3, 4)}
        for i in range(n * n):
            assert t_geo[i] & ~t_mono[i] == 0
            assert t_mono[i] & ~t_toll[i] == 0
            assert t_toll[i] & ~t_wt[i] == 0
            assert t_m3[i] & ~t_mono[i] == 0
            assert t_mono[i] & ~t_tri[i] == 0
            for k in (1, 2, 3):
                assert t_l[k][i] & ~t_l[k + 1][i] == 0
            assert t_l[4][i] & ~t_mono[i] == 0
            assert t_l[2][i] & ~t_p3[i] == 0


def test_howorka_invariant_on_ptolemaic_graphs():
    hits = 0
    for g in connected_graphs_upto(5):
        if not is_ptolemaic(g):
            continue
        hits += 1
        assert interval_table(g, geodetic()) == interval_table(g, monophonic())
    assert hits > 10


def test_interval_of_set_basics():
    # on interval kinds one expansion step is I(S), the union of the
    # intervals of the pairs in S
    g = GEM_FIXTURE
    spec = geodetic()
    assert expand_once(g, spec, 0) == 0
    assert expand_once(g, spec, bit(2)) == bit(2)
    rng = random.Random(73)
    for trial in range(20):
        s = rng.randrange(1 << g.n)
        t = s | rng.randrange(1 << g.n)
        small = expand_once(g, spec, s)
        assert small & ~expand_once(g, spec, t) == 0 or not s & ~t
        assert s & ~small == 0


@pytest.mark.parametrize("bad", [-1, -8, 1 << 5, (1 << 5) | 1])
def test_interval_of_set_rejects_foreign_masks(bad):
    g = path_graph(5)
    for spec in (geodetic(), strong()):
        with pytest.raises(ValueError):
            expand_once(g, spec, bad)


def test_interval_of_set_monotone_all_kinds():
    rng = random.Random(79)
    g = cycle_graph(6)
    for kind, spec, extra in PATH_SPECS:
        for trial in range(10):
            s = rng.randrange(1 << 6)
            t = s | rng.randrange(1 << 6)
            assert expand_once(g, spec, s) & ~expand_once(g, spec, t) == 0
