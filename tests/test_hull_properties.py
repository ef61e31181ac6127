"""Hull laws on random labelled graphs of 1-14 vertices, so that the n <= 12
guard of the subset bitsets is crossed: the single-set queries fire the
(trigger, added) rules at every size, and below the guard the hull must be
the least convex superset read off the convex-set bitset, which is how the
geometry scans read every hull, and the fixpoint of the scan oracle's step.
Intervals must not depend on the labelling (geodetic and p3 up to the
32-vertex limit), and the two geometry scans and the one-point extension
verdict must agree on graphs of up to 10 vertices.  The convex-set bitset
must mark the fixpoints of the scan oracle's step up to the guard, and the
interval containment chains of acceptance criterion 7 must hold up to 16
vertices."""

from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import naive_convex_bits, naive_expander
from convexgeom.engine import (convex_bits, extreme_vertices, hull,
                               is_convex_geometry, is_convex_geometry_mkm,
                               satisfies_antiexchange)
from convexgeom.graphs import (EXPONENTIAL_GUARD, MAX_VERTICES, bit, iter_bits,
                               subset_bits)
from convexgeom.patterns import CLAW, K3
from convexgeom.walks import (CLOSURE_KINDS, f_free, geodetic, interval_table,
                              lk, m3, monophonic, p3, p4plus, strong, toll,
                              triangle_path, weakly_toll)
from test_acceptance import assert_interval_chains
from test_graphs import labelled_graphs, relabel

SPECS = (geodetic(), monophonic(), m3(), lk(2), lk(3), strong(), toll(),
         weakly_toll(), triangle_path(), p3(), p4plus(), f_free((K3, CLAW)))
INTERVAL_SPECS = tuple(spec for spec in SPECS if spec.kind not in CLOSURE_KINDS)
MASKS = st.integers(0, (1 << 14) - 1)


def moved(mask, perm):
    return sum(bit(perm[v]) for v in iter_bits(mask))


@settings(max_examples=300, deadline=None)
@given(labelled_graphs(max_n=14), MASKS, MASKS)
def test_hull_laws(case, s, extra):
    g, perm = case
    full = g.vertex_set()
    s &= full
    t = s | extra & full
    image = relabel(g, perm)
    for spec in SPECS:
        hs = hull(g, spec, s)
        assert s & ~hs == 0, spec.name
        assert hull(g, spec, hs) == hs, spec.name
        assert hs & ~hull(g, spec, t) == 0, spec.name
        assert hull(image, spec, moved(s, perm)) == moved(hs, perm), spec.name
        for convex in (hs, full):
            assert extreme_vertices(image, spec, moved(convex, perm)) == \
                moved(extreme_vertices(g, spec, convex), perm), spec.name


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(max_n=EXPONENTIAL_GUARD), MASKS)
def test_hull_is_the_table_fixpoint(case, s):
    # the table is the convex-set bitset, whose least set bit above s is
    # the hull, and the fixpoint of the scan oracle's step must agree
    g, _ = case
    s &= g.vertex_set()
    for spec in SPECS:
        above = convex_bits(g, spec) & subset_bits(g.n)[s]
        expand = naive_expander(g, spec)
        closed = s
        while expand(closed) != closed:
            closed = expand(closed)
        assert hull(g, spec, s) == closed == (above & -above).bit_length() - 1, \
            spec.name


def assert_intervals_relabel(g, perm, specs):
    image = relabel(g, perm)
    n = g.n
    for spec in specs:
        table, moved_table = interval_table(g, spec), interval_table(image, spec)
        for u in range(n):
            for v in range(n):
                assert moved_table[perm[u] * n + perm[v]] == \
                    moved(table[u * n + v], perm), (spec.name, u, v)


@settings(max_examples=150, deadline=None)
@given(labelled_graphs(max_n=14))
def test_intervals_invariant_under_relabelling(case):
    assert_intervals_relabel(*case, INTERVAL_SPECS)


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(max_n=MAX_VERTICES))
def test_geodetic_and_p3_intervals_invariant_up_to_32_vertices(case):
    # the toll and weakly toll tables are too slow at this size for tier-1
    assert_intervals_relabel(*case, (geodetic(), p3()))


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(max_n=10))
def test_mkm_agrees_with_antiexchange(case):
    # and with the one-point extension verdict on the subset bitsets
    g, _ = case
    for spec in SPECS:
        assert is_convex_geometry_mkm(g, spec).verdict == \
            satisfies_antiexchange(g, spec).verdict == is_convex_geometry(g, spec), \
            spec.name


@settings(max_examples=60, deadline=None)
@given(labelled_graphs(max_n=EXPONENTIAL_GUARD))
def test_convex_bits_are_the_table_fixpoints(case):
    # the table is the scan oracle's step over every subset
    g, _ = case
    for spec in SPECS:
        assert convex_bits(g, spec) == naive_convex_bits(g, spec), spec.name


@settings(max_examples=200, deadline=None)
@given(labelled_graphs())
def test_interval_containment_chains(case):
    # criterion 7 of the acceptance suite, beyond its exhaustive n <= 7
    assert_interval_chains(case[0])
