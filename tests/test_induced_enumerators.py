"""The direct induced-cycle and induced-P4 enumerators and their three
callers, against the embedding search they replaced."""

import random

from hypothesis import given, settings

from bruteforce import embedding_closure_rules, embedding_weakly_polarizable
from convexgeom.engine import closure_rules
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.graphs import bit, induced_subgraph, is_connected, iter_bits
from convexgeom.harness import _odd_cycle_spec
from convexgeom.patterns import (CLAW, HOUSE, K3, P4, all_induced_occurrences,
                                 complete_graph, cycle_graph, induced_cycles,
                                 induced_p4s, iter_induced_embeddings,
                                 path_graph)
from convexgeom.recognizers import is_forest, is_weakly_polarizable
from convexgeom.walks import f_free, p4plus
from test_graphs import labelled_graphs, random_graph, relabel


def _above_guard_graphs():
    rng = random.Random(613)
    return [random_graph(n, p, rng) for n in range(13, 17) for p in (0.1, 0.2, 0.35, 0.6)]


def _check_against_embeddings(g):
    cycles = induced_cycles(g)
    for k in range(3, g.n + 1):
        assert [m for m in cycles if m.bit_count() == k] == \
            all_induced_occurrences(g, cycle_graph(k)), (g, k)
    for spec in filter(None, (f_free((K3, CLAW)), p4plus(), _odd_cycle_spec(g.n))):
        assert closure_rules(g, spec) == embedding_closure_rules(g, spec), (g, spec)
    assert is_weakly_polarizable(g) == embedding_weakly_polarizable(g), g


def test_enumerators_match_embeddings_exhaustive():
    for g in connected_graphs_upto(7):
        _check_against_embeddings(g)


def test_enumerators_match_embeddings_above_guard():
    for g in _above_guard_graphs():
        _check_against_embeddings(g)


def test_induced_p4s_once_each():
    for g in connected_graphs_upto(7) + _above_guard_graphs():
        got = list(induced_p4s(g))
        assert len(set(got)) == len(got)
        assert all(b < c for _, b, c, _ in got)
        want = {e if e[1] < e[2] else e[::-1] for e in iter_induced_embeddings(g, P4)}
        assert set(got) == want, g


def test_induced_cycles_length_bounds():
    c6 = cycle_graph(6)
    assert induced_cycles(c6) == [c6.vertex_set()]
    assert induced_cycles(c6, 3, 5) == [] and induced_cycles(c6, 7) == []
    k4 = complete_graph(4)
    assert induced_cycles(k4) == [0b0111, 0b1011, 0b1101, 0b1110]
    assert induced_cycles(k4, 4) == []
    assert induced_cycles(path_graph(5)) == []
    roofed = induced_cycles(HOUSE)
    assert sorted(m.bit_count() for m in roofed) == [3, 4]


@settings(max_examples=60, deadline=None)
@given(labelled_graphs())
def test_induced_cycles_properties(case):
    g, perm = case
    cycles = induced_cycles(g)
    for m in cycles:
        sub, _ = induced_subgraph(g, m)
        assert sub.n >= 3 and is_connected(sub)
        assert all(sub.degree(v) == 2 for v in range(sub.n))
    moved = sorted(sum(bit(perm[v]) for v in iter_bits(m)) for m in cycles)
    assert induced_cycles(relabel(g, perm)) == moved
    assert bool(cycles) == (not is_forest(g))
