"""Named pattern graphs, induced-subgraph search, and direct enumerators of
induced cycles and induced P4s.

Fixed labelings, used throughout recognizers and closure rules:

  gem     a=0, b=1, c=2, d=3 path; e=4 adjacent to all of a,b,c,d
  house   a=0..e=4; edges ab, bc, cd, ad, ae, be (4-cycle abcd plus roof e)
  domino  a=0..f=5; edges ab, bc, cd, ad, ce, ef, df (two squares sharing cd)
  A       domino minus the edge ef
  claw    K_{1,3}: center a=0, leaves b=1, c=2, d=3

The embedding search (iter_induced_embeddings and the functions over it)
finds each copy of a pattern once per automorphism.  For cycles and P4s two
enumerators yield each copy once instead: induced_cycles (a rooted
chordless-path search, after Uno and Satoh, "An efficient algorithm for
enumerating chordless cycles and chordless paths", DS 2014) and induced_p4s.
So that no characterization checks one enumerator against itself, each
theorem sends at most one of its sides through them, and likewise through
graphs.bfs_layers:

  theorem    geometry side                  class side
  C-BIP      induced_cycles (odd lengths)   no edge inside a BFS layer
  T-M3       m3 off the monophonic table    induced_cycles (holes, C4s)
  T-FFREE    induced_cycles (K3 rules)      contains_induced
  C-P4PLUS   induced_p4s                    contains_induced(g, P4)
  T-GEO      geodetic table (BFS layers)    chordal, no gem (no distance)
  T-L3       lk path table                  diameter (BFS layers)
  T-LK-NEC   lk path table                  diameter (BFS layers)
"""

from functools import lru_cache

from .canon import canonical_form
from .graphs import Graph, bit, iter_bits


def path_graph(k):
    return Graph.from_edge_list(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(k):
    return Graph.from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def complete_graph(k):
    return Graph.from_edge_list(k, [(i, j) for i in range(k) for j in range(i)])


def complete_bipartite(a, b):
    return Graph.from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(m):
    """K_{1,m}: center 0, leaves 1..m."""
    return Graph.from_edge_list(m + 1, [(0, i) for i in range(1, m + 1)])


GEM = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
HOUSE = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)])
DOMINO = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)])
A_GRAPH = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (3, 5)])
CLAW = star_graph(3)
P4 = path_graph(4)
K3 = complete_graph(3)


def n_gem_graph(n):
    """Induced path x0..xn (vertices 0..n) plus universal apex n+1; needs n >= 4."""
    edges = [(i, i + 1) for i in range(n)]
    edges += [(i, n + 1) for i in range(n + 1)]
    return Graph.from_edge_list(n + 2, edges)


def odd_cycle_family(max_n):
    return [cycle_graph(k) for k in range(3, max_n + 1, 2)]


@lru_cache(maxsize=None)
def kuratowski_family(max_n):
    """All subdivisions of K5 and K3,3 with at most max_n vertices, up to iso."""
    seeds = [complete_graph(5), complete_bipartite(3, 3)]
    seen = {}
    frontier = []
    for s in seeds:
        if s.n <= max_n:
            seen[canonical_form(s)] = s
            frontier.append(s)
    while frontier:
        nxt = []
        for g in frontier:
            if g.n + 1 > max_n:
                continue
            for u, v in g.edges():
                h = _subdivide(g, u, v)
                key = canonical_form(h)
                if key not in seen:
                    seen[key] = h
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda g: (g.n, canonical_form(g))))


def _subdivide(g, u, v):
    adj = list(g.adj)
    adj[u] &= ~bit(v)
    adj[v] &= ~bit(u)
    w = g.n
    adj[u] |= bit(w)
    adj[v] |= bit(w)
    adj.append(bit(u) | bit(v))
    return Graph(g.n + 1, adj)


def _embedding_order(p):
    # keep each next pattern vertex attached to the placed prefix when possible
    if p.n == 0:
        return []
    start = max(range(p.n), key=lambda v: (p.degree(v), -v))
    order = [start]
    placed = bit(start)
    while len(order) < p.n:
        best = None
        for v in range(p.n):
            if placed & bit(v):
                continue
            score = (p.adj[v] & placed).bit_count()
            if best is None or score > best[0]:
                best = (score, v)
        order.append(best[1])
        placed |= bit(best[1])
    return order


@lru_cache(maxsize=1 << 7)
def _placement(p):
    """The search plan of pattern p, cached since sweeps search for the same
    few patterns in every graph: its vertices in _embedding_order, their
    degrees, and for each position the later positions with whether they
    must touch it."""
    order = tuple(_embedding_order(p))
    later = tuple(tuple((r, bool(p.adj[order[r]] >> q & 1))
                        for r in range(pos + 1, p.n))
                  for pos, q in enumerate(order))
    return order, tuple(p.degree(q) for q in order), later


def contains_induced(g, p):
    """First induced embedding of p into g as a tuple e with e[i] hosting pattern
    vertex i, or None.  Adjacency and non-adjacency both must match exactly."""
    for found in iter_induced_embeddings(g, p):
        return found
    return None


def all_induced_occurrences(g, p):
    """All vertex bitmasks of g inducing a copy of p, in ascending mask order."""
    masks = set()
    for emb in iter_induced_embeddings(g, p):
        m = 0
        for v in emb:
            m |= bit(v)
        masks.add(m)
    return sorted(masks)


def iter_induced_embeddings(g, p):
    """Every induced embedding of p into g as a tuple e with e[i] hosting
    pattern vertex i, so each copy once per automorphism of p.  The pattern
    vertices are placed depth first in _embedding_order, and each position
    keeps its candidates as one mask (Ullmann, "An algorithm for subgraph
    isomorphism", J. ACM 23, 1976): the vertices of degree at least its
    own, adjacent to the images it must touch and to none of the images it
    must miss, less the used vertices.  Placing an image narrows the masks
    of the later positions, and a placement that empties one is dropped at
    once.  Each mask's set bits are tried in ascending order."""
    if p.n > g.n:
        return
    if p.n == 0:
        yield ()
        return
    adj = g.adj
    order, needs, later = _placement(p)
    last = p.n - 1
    degree = [row.bit_count() for row in adj]
    # masks[pos][r]: the candidates of position r >= pos, given the images
    # of the positions before pos; untried[pos]: those position pos has
    # not tried yet
    masks = [None] * p.n
    masks[0] = [sum(1 << w for w in range(g.n) if degree[w] >= d) for d in needs]
    untried = [masks[0][0]] + [0] * last
    image = [0] * p.n
    pos = 0
    while pos >= 0:
        c = untried[pos]
        if not c:
            pos -= 1
            continue
        low = c & -c
        untried[pos] = c ^ low
        w = low.bit_length() - 1
        image[order[pos]] = w
        if pos == last:
            yield tuple(image)
            continue
        row = adj[w]
        off = ~(row | low)
        mine = masks[pos]
        nxt = mine[:]
        for r, touches in later[pos]:
            left = mine[r] & (row if touches else off)
            if not left:
                break
            nxt[r] = left
        else:
            pos += 1
            masks[pos] = nxt
            untried[pos] = nxt[pos]


def induced_cycles(g, min_size=3, max_size=None):
    """Vertex masks of the induced cycles of g with min_size..max_size vertices,
    each once, ascending.  A cycle is grown from its least vertex r as an
    induced path over vertices above r: a vertex is banned once it neighbours
    an interior path vertex, and the path closes on the first vertex that
    neighbours r, counted only when it exceeds the second vertex."""
    max_size = g.n if max_size is None else max_size
    adj = g.adj
    out = []

    def grow(last, path, ban, size):
        step = adj[last] & above & ~path & ~ban
        if min_size <= size + 1 <= max_size:
            for w in iter_bits(step & closers):
                out.append(path | bit(w))
        if size + 2 <= max_size:
            for w in iter_bits(step & ~ring):
                grow(w, path | bit(w), ban | adj[last], size + 1)

    for r in range(g.n):
        above = g.vertex_set() & ~((2 << r) - 1)
        ring = adj[r] & above
        for s in iter_bits(ring):
            closers = ring & ~((2 << s) - 1)
            grow(s, bit(r) | bit(s), 0, 2)
    return sorted(out)


def induced_p4s(g):
    """Every induced P4 (a, b, c, d) of g once, as the path a-b-c-d with
    b < c: a middle edge b-c, then a in N(b) - N[c] and d in N(c) - N[b]
    with a and d nonadjacent."""
    adj = g.adj
    for b in range(g.n):
        for c in iter_bits(adj[b] & ~((2 << b) - 1)):
            ends = adj[c] & ~adj[b] & ~bit(b)
            for a in iter_bits(adj[b] & ~adj[c] & ~bit(c)):
                for d in iter_bits(ends & ~adj[a]):
                    yield a, b, c, d
