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

Cut status comes from the parent, with no search in the child.  G - u is
P - u plus v joined to S - u, so a vertex u of P is non-cut in G iff S
meets every component of P - u, found once per parent (_parts_without); v
is non-cut, as G - v = P.  So for |S| >= 2 every non-cut vertex u of P
stays non-cut, of degree deg_P(u) + [u in S], and the deletion rule rejects
S if some such u has deg_P(u) <= |S| - 2, or has deg_P(u) = |S| - 1 and u
is not in S.  With d the least degree of a non-cut vertex of P,
_neighbor_sets lists sets of at most d + 1 vertices (orbits keep size) and
drops, by one mask test, those of d + 1 that miss a non-cut vertex of
degree d; neither drops a set of one vertex, which the rule never rejects.
The rule still runs: a cut vertex of P turns non-cut in G when S meets
every component it leaves.
"""

from functools import lru_cache
from operator import itemgetter

from .canon import _refine_colors, canonical_form, canonical_search
from .errors import CapacityError, UsageError
from .graphs import Graph, components, iter_bits

ENUMERATION_LIMIT = 9

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853,
                    8: 11117, 9: 261080}


def _parts_without(parent):
    """For each vertex u of the connected graph parent, the vertex sets of
    the components of parent - u, as masks."""
    full = parent.vertex_set()
    return [tuple(components(parent, full & ~(1 << u))) for u in range(parent.n)]


def _passes_deletion_rule(adj, parts):
    """True when no vertex of lower degree than the last one is non-cut in
    adj; parts is _parts_without of the graph less its last vertex."""
    nbrs = adj[-1]
    deg_v = nbrs.bit_count()
    return not any(adj[u].bit_count() < deg_v and all([nbrs & part for part in comps])
                   for u, comps in enumerate(parts))


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


def _orbit_representatives(m, generators, cap):
    """The least member of each orbit of the nonempty subsets of range(m)
    of at most cap members, under the group the generators generate."""
    sets = [s for s in range(1, 1 << m) if s.bit_count() <= cap]
    tables = []
    for perm in generators:
        im = {1 << x: 1 << y for x, y in enumerate(perm)}
        img = [0] * (1 << m)
        # s & (s - 1) is s less its lowest member, so it is listed before s
        for s in sets:
            img[s] = img[s & (s - 1)] | im[s & -s]
        tables.append(img)
    seen = bytearray(1 << m)
    reps = []
    for s in sets:
        if not seen[s]:
            reps.append(s)
            _close(s, tables, seen)
    return reps


def _neighbor_sets(parent, parts):
    """One neighbor set per Aut(parent)-orbit, less those the deletion rule
    rejects on the non-cut vertices of parent alone; parts is
    _parts_without(parent)."""
    p_adj = parent.adj
    generators = canonical_search(p_adj, _refine_colors(p_adj))[2]
    noncut = [u for u, comps in enumerate(parts) if len(comps) < 2]
    low = min(p_adj[u].bit_count() for u in noncut)
    lows = sum(1 << u for u in noncut if p_adj[u].bit_count() == low)
    return [s for s in _orbit_representatives(parent.n, generators, low + 1)
            if s.bit_count() <= low or not lows & ~s]


def _augmentations(parent):
    """(canonical form, graph) for each child of parent that canonical
    augmentation accepts; the graph is the child relabelled by its
    canonical order, which is the graph its form encodes."""
    p_adj = parent.adj
    v = len(p_adj)
    parts = _parts_without(parent)
    for nbrs in _neighbor_sets(parent, parts):
        adj = [row | (1 << v) if nbrs >> u & 1 else row
               for u, row in enumerate(p_adj)]
        adj.append(nbrs)
        if not _passes_deletion_rule(adj, parts):
            continue
        colors = _refine_colors(adj)
        c = colors[v]
        deg_v = nbrs.bit_count()
        # a lower color means a degree no higher than v's; the deletion rule
        # already found every vertex of lower degree to be a cut vertex
        if any(colors[u] < c and adj[u].bit_count() == deg_v
               and all([nbrs & part for part in parts[u]]) for u in range(v)):
            continue
        form, order, auts = canonical_search(adj, colors)
        w = next(w for w in order if colors[w] == c
                 and (w == v or all([nbrs & part for part in parts[w]])))
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


def _check_order(n, least):
    if type(n) is not int:  # a bool or a float is no vertex count
        raise UsageError(f"n must be an int, got {n!r}")
    if not least <= n <= ENUMERATION_LIMIT:
        raise CapacityError(f"connected graph enumeration supports "
                            f"{least} <= n <= {ENUMERATION_LIMIT}, got {n}")


def connected_graphs(n):
    """All connected graphs on n vertices, one per isomorphism class, in a
    deterministic order (sorted canonical encodings).  Returns a new list;
    the Graph objects in it are shared between calls."""
    _check_order(n, 1)
    return list(_graphs(n))


def connected_graphs_upto(n):
    """connected_graphs(i) for i = 1..n in one list; n is checked first."""
    _check_order(n, 0)
    return [g for i in range(1, n + 1) for g in _graphs(i)]
