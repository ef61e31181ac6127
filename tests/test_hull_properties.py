"""Hull laws on random labelled graphs of 1-14 vertices, so that the n <= 12
guard of the expansion table is crossed: the single-set queries fire the
(trigger, added) rules at every size, and below the guard they must agree
with the table the subset scans read."""

from hypothesis import given, settings
from hypothesis import strategies as st

from convexgeom.engine import expansion_table, extreme_vertices, hull
from convexgeom.graphs import EXPONENTIAL_GUARD, bit, iter_bits
from convexgeom.patterns import CLAW, K3
from convexgeom.walks import (f_free, geodetic, lk, m3, monophonic, p3,
                              p4plus, strong, toll, triangle_path, weakly_toll)
from test_induced_enumerators import labelled_graphs, relabel

SPECS = (geodetic(), monophonic(), m3(), lk(2), lk(3), strong(), toll(),
         weakly_toll(), triangle_path(), p3(), p4plus(), f_free((K3, CLAW)))
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
    g, _ = case
    s &= g.vertex_set()
    for spec in SPECS:
        table = expansion_table(g, spec)
        closed = s
        while table[closed] != closed:
            closed = table[closed]
        assert hull(g, spec, s) == closed, spec.name
