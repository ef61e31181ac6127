"""Exhaustive enumeration of connected graphs up to isomorphism.

Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998): every connected graph on n vertices is grown from a
connected graph P on n-1 vertices by a new vertex v with a nonempty neighbor
set S, and each isomorphism class is generated exactly once, so no set of
keys is kept.  Counts match the known sequence 1, 1, 2, 6, 21, 112, 853,
11117, 261080 for n = 1..9.

The canonical deletion vertex w*(G) of a connected graph G is the first
vertex, in the canonical order of canon.canonical_search, among the non-cut
vertices of least refined color.  Refined colors are isomorphism invariants
and refine degree, and two canonical orders differ by an isomorphism, so
every isomorphism G -> G' maps w*(G) into the Aut(G')-orbit of w*(G').  A
candidate (P, S) is tried for one S per Aut(P)-orbit of nonempty neighbor
sets, and the child G is accepted iff v lies in the Aut(G)-orbit of w*(G).
Two cheap filters run before the search, and both only reject candidates the
orbit test would reject: no non-cut vertex may have lower degree than v
(_passes_deletion_rule), nor lower refined color.  Once both pass, v has the
least color among the non-cut vertices, so w*(G) is the first non-cut vertex
of v's color.

At least once: take any connected G and w = w*(G).  G - w is connected, so
it is isomorphic to exactly one parent P, say by psi, and some tried set S
lies in the Aut(P)-orbit of psi(N(w)).  The candidate (P, S) is isomorphic
to G by a map taking w to v, so v lies in the orbit of w*(candidate) and the
candidate is accepted.  At most once: if accepted candidates (P1, S1) and
(P2, S2) give isomorphic children, both v's lie in the orbits of the
children's w*, so some isomorphism maps v to v.  It restricts to an
isomorphism P1 -> P2, so P1 = P2 = P, and to an automorphism of P that maps
S1 to S2.  So S1 and S2 lie in one orbit, and only one of them is tried.
"""

from functools import lru_cache
from operator import itemgetter

from .canon import _refine_colors, canonical_form, canonical_search
from .errors import CapacityError
from .graphs import Graph, iter_bits

ENUMERATION_LIMIT = 9

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
                    8: 11117, 9: 261080}


def _connected_without(adj, u):
    """Whether the graph with adjacency list adj stays connected when vertex
    u (not the last vertex) is deleted: a bitmask search from the last vertex."""
    rest = ((1 << len(adj)) - 1) & ~(1 << u)
    seen = frontier = 1 << (len(adj) - 1)
    while frontier:
        reach = 0
        for w in iter_bits(frontier):
            reach |= adj[w]
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _passes_deletion_rule(adj):
    """True when no vertex of lower degree than the last one is a non-cut
    vertex of the connected graph with adjacency list adj."""
    v = len(adj) - 1
    deg_v = adj[v].bit_count()
    for u in range(v):
        if adj[u].bit_count() < deg_v and _connected_without(adj, u):
            return False
    return True


def _close(x, maps, seen):
    """Mark in seen the orbit of point x under the group the maps generate;
    each map is a sequence from a point to its image."""
    seen[x] = 1
    stack = [x]
    while stack:
        y = stack.pop()
        for m in maps:
            z = m[y]
            if not seen[z]:
                seen[z] = 1
                stack.append(z)


def _orbit_representatives(m, generators):
    """The least member of each orbit of nonempty subsets of range(m) under
    the permutation group the generators generate."""
    size = 1 << m
    tables = []
    for perm in generators:
        im = {1 << x: 1 << y for x, y in enumerate(perm)}
        img = [0] * size
        for s in range(1, size):
            img[s] = img[s & (s - 1)] | im[s & -s]
        tables.append(img)
    seen = bytearray(size)
    reps = []
    for s in range(1, size):
        if not seen[s]:
            reps.append(s)
            _close(s, tables, seen)
    return reps


def _augmentations(parent):
    """(canonical form, graph) for each child of parent that canonical
    augmentation accepts; the graph is the child relabelled by its
    canonical order, which is the graph its form encodes."""
    p_adj = parent.adj
    v = len(p_adj)
    generators = canonical_search(p_adj, _refine_colors(p_adj))[2]
    for nbrs in _orbit_representatives(v, generators):
        adj = [row | (1 << v) if nbrs >> u & 1 else row
               for u, row in enumerate(p_adj)]
        adj.append(nbrs)
        if not _passes_deletion_rule(adj):
            continue
        colors = _refine_colors(adj)
        c = colors[v]
        deg_v = nbrs.bit_count()
        # a lower color means a degree no higher than v's; the deletion rule
        # already found every vertex of lower degree to be a cut vertex
        if any(colors[u] < c and adj[u].bit_count() == deg_v
               and _connected_without(adj, u) for u in range(v)):
            continue
        form, order, auts = canonical_search(adj, colors)
        w = next(w for w in order if colors[w] == c
                 and (w == v or _connected_without(adj, w)))
        seen = bytearray(len(adj))
        _close(w, auts, seen)
        if seen[v]:
            # relabelled rows of the validated parent plus a vertex wired
            # both ways, so the child needs no validation
            label = [0] * len(adj)
            for i, x in enumerate(order):
                label[x] = i
            yield form, Graph._unchecked(
                len(adj), tuple([sum([1 << label[y] for y in iter_bits(adj[x])])
                                 for x in order]))


@lru_cache(maxsize=None)
def _level(n):
    """(canonical keys, the graphs they encode) on n vertices, both sorted
    by key; built once per process."""
    if n == 1:
        g = Graph(1, (0,))
        return (canonical_form(g),), (g,)
    children = sorted((child for parent in _graphs(n - 1)
                       for child in _augmentations(parent)), key=itemgetter(0))
    return tuple(zip(*children))


def _canonical_keys(n):
    return _level(n)[0]


def _graphs(n):
    return _level(n)[1]


def connected_graphs(n):
    """All connected graphs on n vertices, one per isomorphism class, in a
    deterministic order (sorted canonical encodings).  Returns a new list;
    the Graph objects in it are shared between calls."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise CapacityError(
            f"connected graph enumeration supports 1 <= n <= {ENUMERATION_LIMIT}, got {n}")
    return list(_graphs(n))


def connected_graphs_upto(n):
    """Concatenation of connected_graphs(i) for i = 1..n."""
    out = []
    for i in range(1, n + 1):
        out.extend(connected_graphs(i))
    return out
