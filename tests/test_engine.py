import random

import pytest

from bruteforce import (
    naive_antiexchange,
    naive_convex,
    naive_convex_bits,
    naive_expander,
    naive_ffree_convex,
    naive_hull,
    naive_mkm,
    naive_p4plus_convex,
    naive_whole_set_passes,
)
from convexgeom.engine import (
    GeometryReport,
    all_convex_sets,
    closure_rules,
    convex_bits,
    convex_extreme_bits,
    expand_once,
    extreme_vertices,
    hull,
    is_convex,
    is_convex_geometry,
    is_convex_geometry_mkm,
    satisfies_antiexchange,
    vertex_set_is_hull_of_extremes,
)
from convexgeom.enumeration import connected_graphs, connected_graphs_upto
from convexgeom.errors import CapacityError
from convexgeom.fixtures import GEM_FIXTURE, SEVEN_FIXTURE, delete_vertex
from convexgeom.graphs import (EXPONENTIAL_GUARD, Graph, bit, iter_bits, mask_of,
                               subset_bits)
from convexgeom.harness import _kuratowski_spec, _odd_cycle_spec
from convexgeom.patterns import CLAW, K3, P4, cycle_graph, path_graph, star_graph
from convexgeom.recognizers import semisimplicial_vertices, simplicial_vertices
from convexgeom.walks import (
    f_free,
    geodetic,
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


def all_kinds(n):
    """One spec per convexity kind, families trimmed to fit n-vertex graphs."""
    family = tuple(h for h in (K3, CLAW) if h.n <= n)
    specs = [geodetic(), monophonic(), m3(), lk(2), lk(3), strong(), toll(),
             weakly_toll(), triangle_path(), p3(), p4plus()]
    if family:
        specs.append(f_free(family))
    return specs


def test_expand_once_p4plus_rule():
    assert expand_once(P4, p4plus(), mask_of([0, 1, 3])) == P4.vertex_set()
    assert expand_once(P4, p4plus(), mask_of([0, 2, 3])) == P4.vertex_set()
    assert expand_once(P4, p4plus(), mask_of([0, 1, 2])) == mask_of([0, 1, 2])


def test_expand_once_ffree_rule():
    assert expand_once(K3, f_free((K3,)), mask_of([1, 2])) == K3.vertex_set()
    assert expand_once(K3, f_free((K3,)), bit(1)) == bit(1)


def test_expand_once_full_set_fixed():
    g = GEM_FIXTURE
    for spec in all_kinds(g.n):
        assert expand_once(g, spec, g.vertex_set()) == g.vertex_set()


def test_gem_geodetic_hull_and_extremes():
    g = GEM_FIXTURE  # path a,b,c,d plus universal apex e
    assert hull(g, geodetic(), mask_of([0, 3])) == mask_of([0, 4, 3])
    assert extreme_vertices(g, geodetic(), g.vertex_set()) == mask_of([0, 3])


def test_shrunk_seven_fixture_l3():
    g = delete_vertex(SEVEN_FIXTURE, 1)  # drop vertex "2"
    spec = lk(3)
    ends = bit(0) | bit(g.n - 1)
    assert hull(g, spec, ends) == ends
    assert extreme_vertices(g, spec, g.vertex_set()) == ends
    report = is_convex_geometry_mkm(g, spec)
    assert not report.verdict
    assert report.violating_set == g.vertex_set()
    assert report.extremes == ends
    assert report.hull_of_extremes == ends


def test_seven_fixture_l3_is_geometry():
    report = is_convex_geometry_mkm(SEVEN_FIXTURE, lk(3))
    assert report.verdict and report.mode == "mkm"
    assert report.violating_set is None


def test_hull_trivial_sets():
    g = GEM_FIXTURE
    for spec in all_kinds(g.n):
        assert hull(g, spec, 0) == 0
        assert hull(g, spec, g.vertex_set()) == g.vertex_set()
        for v in range(g.n):
            assert hull(g, spec, bit(v)) == bit(v)
            assert is_convex(g, spec, bit(v))


def test_claw_toll_vs_weakly_toll_convexity():
    claw = star_graph(3)  # center 0, leaves 1,2,3
    s = mask_of([0, 1, 2])
    assert is_convex(claw, toll(), s)
    assert not is_convex(claw, weakly_toll(), s)
    assert extreme_vertices(claw, weakly_toll(), claw.vertex_set()) == 0
    assert extreme_vertices(claw, toll(), claw.vertex_set()) == mask_of([1, 2, 3])


def test_extreme_vertices_requires_convex_set():
    g = GEM_FIXTURE
    with pytest.raises(ValueError):
        extreme_vertices(g, geodetic(), mask_of([0, 1, 2]))


def test_m3_hull_may_be_disconnected():
    c4 = cycle_graph(4)
    ends = mask_of([0, 2])
    assert hull(c4, m3(), ends) == ends


def test_k3_p3_convex_sets():
    assert all_convex_sets(K3, p3()) == [0, 1, 2, 4, 7]


def test_convex_sets_axioms():
    rng = random.Random(83)
    for g in rng.sample(connected_graphs(5), 8):
        for spec in all_kinds(g.n):
            sets = all_convex_sets(g, spec)
            present = set(sets)
            assert 0 in present and g.vertex_set() in present
            for a in sets:
                for b in sets:
                    assert a & b in present, (g, spec.name, a, b)


def test_extreme_bits_match_single_set_queries():
    for g in connected_graphs_upto(5):
        for spec in all_kinds(g.n):
            conv = convex_bits(g, spec)
            ext = convex_extreme_bits(g, conv)
            for s in all_convex_sets(g, spec):
                got = sum(bit(x) for x in range(g.n) if ext[x] >> s & 1)
                assert got == extreme_vertices(g, spec, s), (g, spec.name, s)


def test_hull_extensive_monotone_idempotent():
    rng = random.Random(89)
    pool = connected_graphs_upto(5) + rng.sample(connected_graphs(7), 6)
    for g in pool:
        if g.n > 5 and rng.random() < 0.5:
            continue
        for spec in all_kinds(g.n):
            for trial in range(4):
                s = rng.randrange(1 << g.n)
                t = s | rng.randrange(1 << g.n)
                hs = hull(g, spec, s)
                assert s & ~hs == 0
                assert hs & ~hull(g, spec, t) == 0
                assert hull(g, spec, hs) == hs


def test_hull_against_naive_interval_closure():
    interval_kinds = [("geodetic", geodetic(), {}), ("monophonic", monophonic(), {}),
                      ("m3", m3(), {}), ("lk", lk(2), {"k": 2}),
                      ("strong", strong(), {}), ("trianglePath", triangle_path(), {}),
                      ("p3", p3(), {}), ("toll", toll(), {}),
                      ("weaklyToll", weakly_toll(), {})]
    for g in connected_graphs_upto(4):
        for kind, spec, extra in interval_kinds:
            for s in range(1 << g.n):
                assert hull(g, spec, s) == naive_hull(g, kind, s, **extra), (g, kind, s)
                assert is_convex(g, spec, s) == naive_convex(g, kind, s, **extra)


def test_closure_convexity_against_naive():
    for g in connected_graphs_upto(5):
        family = tuple(h for h in (K3, CLAW) if h.n <= g.n)
        for s in range(1 << g.n):
            assert is_convex(g, p4plus(), s) == naive_p4plus_convex(g, s)
            if family:
                assert is_convex(g, f_free(family), s) == \
                    naive_ffree_convex(g, family, s)


def test_closure_rules_are_shared_triggers():
    rules = dict(closure_rules(P4, p4plus()))
    assert rules == {mask_of([0, 1, 3]): bit(2), mask_of([0, 2, 3]): bit(1)}


def test_k3_p3_antiexchange_witness():
    report = satisfies_antiexchange(K3, p3())
    assert not report.verdict and report.mode == "antiexchange"
    s, x, y = report.antiexchange_witness
    assert s == bit(0) and (x, y) == (1, 2)
    # the symmetric witness with S={c} is equally valid
    assert hull(K3, p3(), mask_of([2, 1])) & bit(0)
    assert hull(K3, p3(), mask_of([2, 0])) & bit(1)


def test_c4_triangle_path_antiexchange_witness():
    report = satisfies_antiexchange(cycle_graph(4), triangle_path())
    assert not report.verdict
    s, x, y = report.antiexchange_witness
    assert s == mask_of([0, 1]) and (x, y) == (2, 3)


def test_p4_p4plus_antiexchange_witness():
    report = satisfies_antiexchange(P4, p4plus())
    assert not report.verdict
    assert report.antiexchange_witness == (mask_of([0, 3]), 1, 2)


def test_antiexchange_witness_invariants():
    rng = random.Random(97)
    for g in rng.sample(connected_graphs(6), 12):
        for spec in all_kinds(g.n):
            report = satisfies_antiexchange(g, spec)
            if report.verdict:
                continue
            s, x, y = report.antiexchange_witness
            assert x != y and not s & bit(x) and not s & bit(y)
            assert is_convex(g, spec, s)
            assert hull(g, spec, s | bit(y)) & bit(x)
            assert hull(g, spec, s | bit(x)) & bit(y)


def test_mkm_report_invariants():
    rng = random.Random(101)
    for g in rng.sample(connected_graphs(6), 12):
        for spec in all_kinds(g.n):
            report = is_convex_geometry_mkm(g, spec)
            if report.verdict:
                assert report.violating_set is None
                continue
            assert is_convex(g, spec, report.violating_set)
            assert report.hull_of_extremes != report.violating_set
            assert report.extremes == extreme_vertices(g, spec, report.violating_set)


def test_single_vertex_graph_is_geometry():
    k1 = Graph(1, (0,))
    for spec in all_kinds(1):
        assert is_convex_geometry_mkm(k1, spec).verdict
        assert satisfies_antiexchange(k1, spec).verdict


def test_mkm_equals_antiexchange_exhaustive_small():
    for g in connected_graphs_upto(5):
        for spec in all_kinds(g.n):
            assert is_convex_geometry_mkm(g, spec).verdict == \
                satisfies_antiexchange(g, spec).verdict, (g, spec.name)


def test_mkm_equals_antiexchange_sampled_larger():
    rng = random.Random(103)
    for g in rng.sample(connected_graphs(6), 15) + rng.sample(connected_graphs(7), 6):
        for spec in all_kinds(g.n):
            assert is_convex_geometry_mkm(g, spec).verdict == \
                satisfies_antiexchange(g, spec).verdict, (g, spec.name)


def test_antiexchange_over_hulled_subsets_cross_check():
    # quantifying over hull(S) for arbitrary S gives the same verdict
    for g in connected_graphs_upto(4):
        for spec in all_kinds(g.n):
            base = satisfies_antiexchange(g, spec).verdict
            violated = False
            for raw in range(1 << g.n):
                s = hull(g, spec, raw)
                outside = [x for x in range(g.n) if not s & bit(x)]
                for i, x in enumerate(outside):
                    for y in outside[i + 1:]:
                        if hull(g, spec, s | bit(y)) & bit(x) and \
                                hull(g, spec, s | bit(x)) & bit(y):
                            violated = True
            assert base == (not violated), (g, spec.name)


def test_extremes_of_v_match_vertex_types():
    for g in connected_graphs_upto(6):
        v = g.vertex_set()
        assert extreme_vertices(g, monophonic(), v) == simplicial_vertices(g)
        assert extreme_vertices(g, m3(), v) == semisimplicial_vertices(g)


def test_capacity_guard():
    big = Graph(13, (0,) * 13)
    with pytest.raises(CapacityError):
        all_convex_sets(big, geodetic())
    with pytest.raises(CapacityError):
        is_convex_geometry_mkm(big, geodetic())
    with pytest.raises(CapacityError):
        satisfies_antiexchange(big, geodetic())


def test_geometry_report_to_dict():
    report = GeometryReport(False, "mkm", violating_set=0b101, extremes=0b001,
                            hull_of_extremes=0b001)
    plain = report.to_dict()
    assert plain["violating_set"] == [0, 2]
    named = report.to_dict(labels=["a", "b", "c"])
    assert named["extremes"] == ["a"] and named["verdict"] is False
    ae = GeometryReport(False, "antiexchange", antiexchange_witness=(0b100, 0, 1))
    named_ae = ae.to_dict(labels=["a", "b", "c"])
    assert named_ae["antiexchange_witness"] == {"set": ["c"], "x": "a", "y": "b"}


def _check_subset_bits(g, spec, mkm, ae):
    """convex_bits against the fixpoints of the scan oracle's step, the
    extreme bitsets against the members x of each fixpoint s with s - x a
    fixpoint too, and the one-point extension verdict against both scans'
    reports."""
    conv = convex_bits(g, spec)
    fixed = naive_convex_bits(g, spec)
    assert conv == fixed, (g, spec.name)
    ext = convex_extreme_bits(g, conv)
    for s in iter_bits(fixed):
        want = sum(bit(x) for x in iter_bits(s) if fixed >> (s ^ bit(x)) & 1)
        assert sum(bit(x) for x in range(g.n) if ext[x] >> s & 1) == want, \
            (g, spec.name, s)
    assert is_convex_geometry(g, spec) == mkm.verdict == ae.verdict, (g, spec.name)


def test_scans_match_scan_oracle_exhaustive():
    # the subset bitsets ride along on the same graphs and specs
    for g in connected_graphs_upto(7):
        for spec in all_kinds(g.n) + [lk(4), lk(5)]:
            mkm = is_convex_geometry_mkm(g, spec)
            ae = satisfies_antiexchange(g, spec)
            assert mkm == naive_mkm(g, spec), (g, spec.name)
            assert ae == naive_antiexchange(g, spec), (g, spec.name)
            _check_subset_bits(g, spec, mkm, ae)


def test_subset_bits_on_family_specs_exhaustive():
    # the registry's family specs: T-FFREE's (K3, claw) family, which
    # all_kinds trims below four vertices, and the two that depend on n,
    # C-BIP's odd cycles and C-PLANAR's Kuratowski subdivisions; all_kinds
    # covers the other specs of the registry and of L-MKM-AE
    checked = 0
    for g in connected_graphs_upto(7):
        for spec in filter(None, (f_free((K3, CLAW)), _odd_cycle_spec(g.n),
                                  _kuratowski_spec(g.n))):
            _check_subset_bits(g, spec, is_convex_geometry_mkm(g, spec),
                               satisfies_antiexchange(g, spec))
            checked += 1
    assert checked > 2 * 853


def test_convex_bits_match_naive_expander():
    for g in connected_graphs_upto(5):
        for spec in all_kinds(g.n):
            assert convex_bits(g, spec) == naive_convex_bits(g, spec), (g, spec.name)
    empty = Graph(0, ())
    assert convex_bits(empty, geodetic()) == 1
    assert is_convex_geometry(empty, geodetic())


def test_hull_is_the_least_convex_superset_exhaustive():
    # convex sets are closed under intersection, so hull(t) lies inside every
    # convex superset of t and is the lowest set bit of convex_bits & up[t]:
    # the MKM and antiexchange scans read every hull that way
    for g in connected_graphs_upto(6):
        up = subset_bits(g.n)
        specs = all_kinds(g.n) + [f_free((K3, CLAW))]
        specs += filter(None, (_odd_cycle_spec(g.n), _kuratowski_spec(g.n)))
        for spec in specs:
            conv = convex_bits(g, spec)
            expand = naive_expander(g, spec)
            for t in range(1 << g.n):
                above = conv & up[t]
                closed = t
                while expand(closed) != closed:
                    closed = expand(closed)
                assert (above & -above).bit_length() - 1 == hull(g, spec, t) == \
                    closed, (g, spec.name, t)


def test_subset_bits_capacity_guard():
    big = Graph(13, (0,) * 13)
    with pytest.raises(CapacityError):
        convex_bits(big, geodetic())
    with pytest.raises(CapacityError):
        is_convex_geometry(big, p4plus())


def padded(g, n):
    """g plus isolated vertices up to n vertices."""
    return Graph(n, g.adj + (0,) * (n - g.n))


def test_per_query_path_above_guard_matches_table():
    # isolated vertices lie on no path or walk between the original vertices
    # and in no occurrence of a connected pattern, so every answer on a subset
    # of the original vertices must carry over unchanged; the single-set
    # queries fire the rules on both graphs, so both must match the table of
    # the scan oracle's step on g
    n = EXPONENTIAL_GUARD + 1
    for g in connected_graphs_upto(5):
        big = padded(g, n)
        for spec in all_kinds(n):
            table = list(map(naive_expander(g, spec), range(1 << g.n)))
            for s in range(1 << g.n):
                closed = s
                while table[closed] != closed:
                    closed = table[closed]
                convex = table[s] == s
                extremes = sum(bit(x) for x in iter_bits(s)
                               if table[s ^ bit(x)] == s ^ bit(x))
                for h in (g, big):
                    assert expand_once(h, spec, s) == table[s], (h, spec.name, s)
                    assert hull(h, spec, s) == closed, (h, spec.name, s)
                    assert is_convex(h, spec, s) == convex, (h, spec.name, s)
                    if convex:
                        assert extreme_vertices(h, spec, s) == extremes, \
                            (h, spec.name, s)


def test_single_set_queries_build_no_table():
    # hull, is_convex, expand_once and extreme_vertices fire the rules, so a
    # 12-vertex graph (at the guard) gets no 2^n subset bitset from them
    g = cycle_graph(EXPONENTIAL_GUARD)
    s = mask_of([0, 6])
    for spec in all_kinds(g.n):
        before = convex_bits.cache_info(), subset_bits.cache_info()
        full = hull(g, spec, s)
        assert is_convex(g, spec, full)
        assert expand_once(g, spec, full) == full
        extreme_vertices(g, spec, full)
        assert (convex_bits.cache_info(), subset_bits.cache_info()) == before, \
            spec.name


@pytest.mark.parametrize("fn", [expand_once, is_convex, hull, extreme_vertices])
@pytest.mark.parametrize("n", [3, EXPONENTIAL_GUARD + 1])
def test_single_set_queries_reject_foreign_masks(fn, n):
    # above the guard the expansion step itself checks nothing, so the one
    # check on entry must catch every foreign mask, for every kind
    g = padded(path_graph(3), n)
    for spec in all_kinds(n):
        for bad in (-1, -8, 1 << n, (1 << n) | 1):
            with pytest.raises(ValueError):
                fn(g, spec, bad)


def test_whole_set_test_matches_scan_oracle():
    for g in connected_graphs_upto(6):
        specs = all_kinds(g.n) + [lk(4), lk(5), f_free((K3, CLAW))]
        if _odd_cycle_spec(g.n) is not None:
            specs.append(_odd_cycle_spec(g.n))
        for spec in specs:
            passes = vertex_set_is_hull_of_extremes(g, spec)
            assert passes == naive_whole_set_passes(g, spec), (g, spec.name)
            if not passes:
                assert not naive_mkm(g, spec).verdict, (g, spec.name)


def test_whole_set_test_above_guard():
    # isolated vertices are extreme and generate nothing, so padding keeps
    # the answer; no 2^n table may be built on the way
    n = EXPONENTIAL_GUARD + 1
    for g in connected_graphs_upto(5):
        big = padded(g, n)
        for spec in all_kinds(n):
            assert vertex_set_is_hull_of_extremes(big, spec) == \
                vertex_set_is_hull_of_extremes(g, spec), (g, spec.name)


def test_whole_set_test_fetches_its_table_once():
    # the hull step is built from the interval table or the closure rules
    # already in hand, so a cold call is one cache miss and no hit
    g = cycle_graph(6)
    for spec, cached in ((geodetic(), interval_table), (p4plus(), closure_rules)):
        cached.cache_clear()
        vertex_set_is_hull_of_extremes(g, spec)
        info = cached.cache_info()
        assert (info.hits, info.misses) == (0, 1), spec.name
