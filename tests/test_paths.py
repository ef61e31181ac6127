import random

import pytest

from bruteforce import (
    all_simple_paths,
    backtracking_path_rows,
    is_even_chorded,
    is_triangle_path,
    path_chords,
)
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.graphs import Graph, mask_of
from convexgeom.paths import MODES, path_interval_rows
from convexgeom.walks import interval_table, m3
from test_graphs import random_graph

# only the induced search takes a length cap (for lk); the oracles keep
# their (min_len, max_len) windows
CAPS = {"induced": (None, 1, 2, 4, 6), "strong": (None,), "triangle": (None,)}


def naive_mode_paths(g, u, v, mode, min_len=0, max_len=None):
    top = g.n - 1 if max_len is None else max_len
    out = []
    for path in all_simple_paths(g, u, v):
        length = len(path) - 1
        if not min_len <= length <= top:
            continue
        chords = path_chords(g, path)
        if mode == "induced":
            keep = not chords
        elif mode == "strong":
            keep = is_even_chorded(g, path)
        elif mode == "triangle":
            keep = is_triangle_path(g, path)
        if keep:
            out.append(path)
    return sorted(out)


def naive_rows(g, u, mode, min_len=0, max_len=None):
    """Row w is the union of the qualifying u-w paths; the trivial path is
    never covered."""
    rows = [0] * g.n
    for w in range(g.n):
        if w != u:
            for path in naive_mode_paths(g, u, w, mode, min_len, max_len):
                rows[w] |= mask_of(path)
    return rows


def test_length_windows_against_naive():
    rng = random.Random(41)
    for trial in range(30):
        g = random_graph(6, rng.random(), rng)
        u = rng.randrange(6)
        hi = rng.randrange(0, 6)
        got = path_interval_rows(g, u, "induced", max_len=hi)
        assert got == naive_rows(g, u, "induced", max_len=hi)
        for mode in MODES:
            assert path_interval_rows(g, u, mode) == naive_rows(g, u, mode)


def test_degenerate_pairs():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    assert path_interval_rows(g, 1, "induced") == [mask_of([0, 1]), 0,
                                                  mask_of([1, 2])]
    assert path_interval_rows(g, 0, "induced")[2] == mask_of([0, 1, 2])
    assert path_interval_rows(g, 0, "induced", max_len=1)[2] == 0
    lonely = Graph.from_edge_list(2, [])
    assert path_interval_rows(lonely, 0, "induced") == [0, 0]


def test_mode_validation():
    g = Graph.from_edge_list(2, [(0, 1)])
    for mode in ("bogus", "all"):
        with pytest.raises(ValueError):
            path_interval_rows(g, 0, mode)
    for mode in ("strong", "triangle"):
        with pytest.raises(ValueError, match="no length cap"):
            path_interval_rows(g, 0, mode, max_len=1)


def test_strong_mode_examples():
    # 4-cycle a,b,c,d plus chord a-c: paths b,a,d and b,c,d have no chords,
    # while b,a,c,d and b,c,a,d carry a chord at the start vertex, so the
    # b-d row is the union of the two short paths only; a,b,c and a,d,c
    # carry a chord at both ends, so the a-c row is the edge
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert path_interval_rows(g, 1, "strong")[3] == mask_of([0, 1, 2, 3])
    assert naive_mode_paths(g, 1, 3, "strong", min_len=3) == []
    assert path_interval_rows(g, 0, "strong")[2] == mask_of([0, 2])


def test_triangle_mode_example():
    # path 0,1,2,3 with chords 0-2 and 1-3 is a triangle path
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])
    assert is_triangle_path(g, [0, 1, 2, 3])
    assert path_interval_rows(g, 0, "triangle")[3] == mask_of([0, 1, 2, 3])
    # a chord skipping two steps disqualifies under triangle mode, so only
    # the edge 0-3 is left
    h = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert path_interval_rows(h, 0, "triangle")[3] == mask_of([0, 3])


def test_path_interval_rows_match_path_unions():
    for g in connected_graphs_upto(5):
        for mode in MODES:
            for hi in CAPS[mode][:3]:
                for u in range(g.n):
                    rows = path_interval_rows(g, u, mode, max_len=hi)
                    assert rows == naive_rows(g, u, mode, max_len=hi), (g, mode, hi, u)


def test_path_state_search_matches_backtracking_exhaustive():
    # every source of every connected graph with n <= 7, every mode, and
    # several caps for the induced search
    for g in connected_graphs_upto(7):
        for mode in MODES:
            for hi in CAPS[mode]:
                for u in range(g.n):
                    got = path_interval_rows(g, u, mode, max_len=hi)
                    want = backtracking_path_rows(g, u, mode, max_len=hi)
                    assert got == want, (g, mode, hi, u)


def test_path_state_search_matches_backtracking_random():
    rng = random.Random(11)
    for trial in range(120):
        n = rng.randrange(8, 15)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        for mode in MODES:
            hi = rng.choice(CAPS[mode])
            for u in range(n):
                got = path_interval_rows(g, u, mode, max_len=hi)
                want = backtracking_path_rows(g, u, mode, max_len=hi)
                assert got == want, (g, mode, hi, u)


def assert_m3_rows_match_backtracking(g):
    # the m3 table runs no search of its own: it is the monophonic table
    # less the common neighbours of each pair, checked here against the
    # induced paths of three or more edges
    n, table = g.n, interval_table(g, m3())
    for u in range(n):
        want = backtracking_path_rows(g, u, "induced", min_len=3)
        assert list(table[u * n:(u + 1) * n]) == [
            w | 1 << u | 1 << v for v, w in enumerate(want)], (g, u)


def test_m3_table_matches_backtracking_exhaustive():
    for g in connected_graphs_upto(7):
        assert_m3_rows_match_backtracking(g)


def test_m3_table_matches_backtracking_random():
    rng = random.Random(23)
    for trial in range(120):
        n = 8 + trial % 7
        assert_m3_rows_match_backtracking(random_graph(n, rng.uniform(0.1, 0.9), rng))
