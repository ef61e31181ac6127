import math
import pickle
import random
from itertools import combinations, islice

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import floyd_warshall, naive_bits
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.errors import (CapacityError, Graph6ParseError, GraphInputError,
                               UsageError)
from convexgeom.fixtures import SEVEN_FIXTURE, delete_vertex
from convexgeom.graphs import (
    EXPONENTIAL_GUARD,
    MAX_VERTICES,
    Graph,
    bfs_layers,
    bit,
    component_of,
    components,
    diameter,
    emit_edge_list,
    emit_graph6,
    induced_subgraph,
    is_connected,
    iter_bits,
    mask_of,
    parse_edge_list,
    parse_graph6,
    subset_bits,
    vertices_of,
)


def labeled_graphs(n):
    """Every labeled graph on n vertices, one per edge subset."""
    pairs = list(combinations(range(n), 2))
    for word in range(1 << len(pairs)):
        yield Graph.from_edge_list(
            n, [pairs[i] for i in range(len(pairs)) if word & bit(i)])


def random_graph(n, p, rng):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def relabel(g, perm):
    """g with its vertices permuted: new vertex perm[u] plays the role of u."""
    adj = [0] * g.n
    for u, v in g.edges():
        adj[perm[u]] |= bit(perm[v])
        adj[perm[v]] |= bit(perm[u])
    return Graph(g.n, adj)


@st.composite
def labelled_graphs(draw, max_n=16):
    """A random graph and a relabelling.  The order leans towards max_n, so
    that few draws have one vertex (the exhaustive tests cover those).  A
    coin picks the edge density: dense, within 0.15..0.85, or sparse, about
    0.5 to 2 edges per vertex, which gives forests and disconnected graphs;
    shrinking heads for sparse graphs on max_n vertices."""
    n = max_n - draw(st.integers(0, max_n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        density = draw(st.floats(0.15, 0.85))
    else:
        density = draw(st.floats(0.5, 2.0)) / n
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = random.Random(seed)
    g = Graph.from_edge_list(n, [e for e in pairs if rng.random() < density])
    perm = list(range(n))
    rng.shuffle(perm)
    return g, perm


def test_iter_bits_matches_bit_loop():
    for mask in range(1 << 12):
        assert list(iter_bits(mask)) == naive_bits(mask)
    rng = random.Random(31)
    for trial in range(2000):
        mask = rng.getrandbits(rng.randrange(1, 33))
        assert list(iter_bits(mask)) == naive_bits(mask)
    it = iter_bits(0b1010)
    assert next(it) == 1 and list(it) == [3]
    # a negative mask stays an endless loop, never a table row
    assert list(islice(iter_bits(-1), 13)) == list(range(13))


def test_mask_helpers():
    assert bit(0) == 1 and bit(5) == 32
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert vertices_of(0b1100) == (2, 3)
    assert mask_of([4, 1, 1]) == 0b10010
    assert mask_of([]) == 0


def test_graph_validation():
    with pytest.raises(GraphInputError):
        Graph(2, (0b10,))               # adjacency length mismatch
    with pytest.raises(GraphInputError):
        Graph(2, (0b01, 0b10))          # self-loops
    with pytest.raises(GraphInputError):
        Graph(2, (0b10, 0b00))          # asymmetric
    with pytest.raises(GraphInputError):
        Graph(1, (0b10,))               # out-of-range neighbor
    with pytest.raises(GraphInputError):
        Graph(33, (0,) * 33)
    with pytest.raises(GraphInputError):
        Graph.from_edge_list(3, [(0, 0)])
    with pytest.raises(GraphInputError):
        Graph.from_edge_list(3, [(0, 3)])


def test_graph_is_immutable_and_hashable():
    g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    with pytest.raises(AttributeError):
        g.n = 5
    h = Graph.from_edge_list(3, [(1, 2), (0, 1)])
    assert g == h and hash(g) == hash(h)
    assert len({g, h}) == 1


def test_graph_pickle_round_trip():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    with pytest.raises(AttributeError):
        back.n = 5


def test_basic_accessors():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
    assert g.vertex_set() == 0b1111
    assert g.has_edge(1, 3) and not g.has_edge(0, 2)
    assert g.degree(1) == 3 and g.degree(0) == 1
    assert g.edge_count() == 4
    assert sorted(g.edges()) == [(0, 1), (1, 2), (1, 3), (2, 3)]


def test_with_new_vertex_and_relabel():
    path = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    cycle = path.with_new_vertex(bit(0) | bit(2))
    assert cycle.n == 4 and sorted(cycle.edges()) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    perm = (3, 1, 0, 2)
    back = relabel(cycle, perm)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert back.has_edge(perm[u], perm[v]) == cycle.has_edge(u, v)
    inv = [0] * 4
    for i, p in enumerate(perm):
        inv[p] = i
    assert relabel(back, inv) == cycle


def test_induced_subgraph_mapping():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    sub, mapping = induced_subgraph(g, mask_of([1, 2, 3]))
    assert mapping == (1, 2, 3)
    assert sorted(sub.edges()) == [(0, 1), (0, 2), (1, 2)]
    empty, empty_map = induced_subgraph(g, 0)
    assert empty.n == 0 and empty_map == ()


def test_vertices_outside_the_graph_rejected():
    p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
    p13 = Graph.from_edge_list(13, [(i, i + 1) for i in range(12)])
    for g in (p3, p13):
        for members in (-1, 1 << g.n, (1 << g.n) | 1):
            with pytest.raises(UsageError, match="not a subset of the"):
                induced_subgraph(g, members)
        for v in (-1, g.n, 1 << g.n):
            with pytest.raises(UsageError, match="not one of the"):
                delete_vertex(g, v)
        assert induced_subgraph(g, g.vertex_set()) == (g, tuple(range(g.n)))
    assert delete_vertex(p3, 2) == Graph.from_edge_list(2, [(0, 1)])


def _passes_validation(g):
    """g equals, and hashes as, the graph the validating constructor builds
    from its rows, which are a tuple of ints."""
    checked = Graph(g.n, g.adj)
    return (type(g.adj) is tuple and all(type(row) is int for row in g.adj)
            and g == checked and hash(g) == hash(checked))


def test_unchecked_graphs_pass_validation():
    # the enumerator's children and induced subgraphs skip the constructor's
    # checks; the rows must be ones the checks would accept
    assert all(_passes_validation(g) for g in connected_graphs_upto(8))
    for g in connected_graphs_upto(6):
        for members in range(1 << g.n):
            assert _passes_validation(induced_subgraph(g, members)[0])


def distances(g):
    """Every distance row of g, read off the BFS layers; math.inf marks
    unreachable vertices."""
    rows = []
    for u in range(g.n):
        row = [math.inf] * g.n
        for d, layer in enumerate(bfs_layers(g, u)):
            for v in iter_bits(layer):
                row[v] = d
        rows.append(row)
    return rows


def test_distances_against_floyd_warshall():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randrange(1, 9)
        g = random_graph(n, rng.random(), rng)
        assert distances(g) == floyd_warshall(g)


def test_distance_triangle_inequality():
    rng = random.Random(11)
    for trial in range(20):
        g = random_graph(8, 0.4, rng)
        d = distances(g)
        for u in range(8):
            for v in range(8):
                for w in range(8):
                    assert d[u][v] <= d[u][w] + d[w][v]


def test_distances_disconnected():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assert bfs_layers(g, 0) == [0b0001, 0b0010]
    assert distances(g)[0] == [0, 1, math.inf, math.inf]
    assert diameter(g) is math.inf
    assert diameter(Graph(0, ())) is math.inf
    assert diameter(Graph(1, (0,))) == 0


def test_seven_vertex_fixture_distances():
    g = SEVEN_FIXTURE
    assert diameter(g) == 3
    shrunk = delete_vertex(g, 1)
    # removing the cut-ish hub vertex stretches the 1..7 distance to 4
    assert distances(shrunk)[0][shrunk.n - 1] == 4
    assert diameter(shrunk) == 4


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(max_n=MAX_VERTICES), st.data())
def test_bfs_layers_properties(case, data):
    g, _ = case
    source = data.draw(st.integers(0, g.n - 1))
    layers = bfs_layers(g, source)
    assert layers[0] == bit(source)
    seen = 0
    for d, layer in enumerate(layers):
        assert layer and not layer & seen
        if d:
            reach = 0
            for v in iter_bits(layers[d - 1]):
                reach |= g.adj[v]
            assert layer == reach & ~seen
        seen |= layer
    assert seen == component_of(g, source)


def test_components():
    g = Graph.from_edge_list(6, [(0, 1), (1, 2), (4, 5)])
    assert components(g) == [0b000111, 0b001000, 0b110000]
    assert component_of(g, 5) == 0b110000
    assert component_of(g, 1, allowed=mask_of([1, 2])) == 0b110
    assert not is_connected(g)
    assert is_connected(Graph.from_edge_list(2, [(0, 1)]))
    assert not is_connected(Graph(0, ()))


def test_graph6_round_trip_exhaustive_small():
    for n in range(7):
        seen = set()
        for g in labeled_graphs(n):
            s = emit_graph6(g)
            assert parse_graph6(s) == g
            seen.add(s)
        # distinct labeled graphs have distinct encodings
        assert len(seen) == 1 << (n * (n - 1) // 2)


def test_graph6_against_networkx():
    rng = random.Random(23)
    for trial in range(200):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.random(), rng)
        ours = emit_graph6(g)
        nxg = nx.from_graph6_bytes(ours.encode())
        assert set(nxg.edges()) == {tuple(e) for e in g.edges()}
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert theirs == ours


def test_graph6_known_strings():
    assert emit_graph6(Graph(0, ())) == "?"
    assert emit_graph6(Graph(1, (0,))) == "@"
    assert emit_graph6(Graph.from_edge_list(2, [(0, 1)])) == "A_"
    assert emit_graph6(Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert parse_graph6("Bw").edge_count() == 3


def test_graph6_header_and_whitespace():
    g = parse_graph6(">>graph6<<A_\n")
    assert g.n == 2 and g.has_edge(0, 1)


def test_graph6_parse_errors():
    with pytest.raises(Graph6ParseError):
        parse_graph6("")
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6("A" + chr(40))
    assert err.value.offset == 1
    with pytest.raises(Graph6ParseError):
        parse_graph6("~??")            # long form rejected
    with pytest.raises(Graph6ParseError):
        parse_graph6("A")              # truncated bit vector
    with pytest.raises(Graph6ParseError):
        parse_graph6("A__")            # trailing bytes
    with pytest.raises(Graph6ParseError):
        parse_graph6("Aa")             # nonzero padding (only bit 0 may be set)
    with pytest.raises(Graph6ParseError):
        parse_graph6(chr(63 + 33))     # n = 33 beyond vertex capacity


def test_vertex_capacity():
    with pytest.raises(GraphInputError):
        Graph(40, (0,) * 40)


def test_edge_list_plain_indices():
    g, labels = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert labels == ["0", "1", "2", "3"]


def test_edge_list_named_vertices():
    text = "# a comment\n3 2\na b\n\nb c\n"
    g, labels = parse_edge_list(text)
    assert labels == ["a", "b", "c"]
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_edge_list_unnamed_isolated_vertices():
    g, labels = parse_edge_list("4 1\nx y\n")
    assert g.n == 4 and labels[:2] == ["x", "y"]
    assert len(set(labels)) == 4


def test_edge_list_out_of_range_token_becomes_label():
    # "5" is not a valid index for n=2, so tokens are treated as names
    g, labels = parse_edge_list("2 1\n0 5\n")
    assert labels == ["0", "5"] and g.has_edge(0, 1)


def test_edge_list_errors():
    for bad in ["", "x\n", "2 1\n", "2 1\n0 1\n0 1\nextra", "1 1\n0 0\n",
                "2 1\n0 1 2\n", "-1 0\n", "2 2\na b\nc d\n"]:
        with pytest.raises(GraphInputError):
            parse_edge_list(bad)


def test_edge_list_round_trip():
    g = SEVEN_FIXTURE
    text = emit_edge_list(g, [str(i + 1) for i in range(7)])
    back, labels = parse_edge_list(text)
    assert back == g and labels == [str(i + 1) for i in range(7)]
    assert emit_edge_list(back, labels) == text


def test_subset_bits_mark_supersets():
    # bit s of up[m] is set exactly when m is a subset of s
    for n in range(6):
        up = subset_bits(n)
        assert len(up) == 1 << n and up[0] == (1 << (1 << n)) - 1
        for m in range(1 << n):
            assert up[m] == sum(1 << s for s in range(1 << n) if m & ~s == 0), (n, m)
    assert subset_bits(4) is subset_bits(4)
    assert len(subset_bits(EXPONENTIAL_GUARD)) == 1 << EXPONENTIAL_GUARD
    with pytest.raises(CapacityError):
        subset_bits(EXPONENTIAL_GUARD + 1)
