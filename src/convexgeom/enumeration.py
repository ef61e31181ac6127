"""Exhaustive enumeration of connected graphs up to isomorphism.

Vertex-augmentation scheme: every connected graph on n vertices arises from
some connected graph on n-1 vertices by attaching a new vertex v with a
nonempty neighbor set, so growing all parents and deduplicating by canonical
form is exhaustive.  Counts match the known sequence 1, 1, 2, 6, 21, 112, 853,
11117, 261080 for n = 1..9.

Most candidates are duplicates, so a deletion rule in the spirit of McKay's
canonical augmentation (J. Algorithms 1998) rejects them before any canonical
form is computed: a candidate is kept only if no vertex u != v with
deg(u) < deg(v) is a non-cut vertex, i.e. v has the least degree among the
non-cut vertices.  No graph is lost: every connected G has a non-cut vertex;
take w of least degree among them.  G - w is connected, hence isomorphic to
some parent P, and the candidate (P, image of N(w)) is isomorphic to G with
v in the role of w.  Degree and cut status are isomorphism invariants, so
that candidate passes the rule.
"""

from functools import lru_cache

from .canon import canonical_form, decode_canonical_form
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


@lru_cache(maxsize=None)
def _canonical_keys(n):
    if n == 1:
        return (canonical_form(Graph(1, (0,))),)
    v = n - 1
    keys = set()
    for parent in _graphs(n - 1):
        for nbrs in range(1, 1 << v):
            adj = [row | (1 << v) if nbrs >> u & 1 else row
                   for u, row in enumerate(parent.adj)]
            adj.append(nbrs)
            if _passes_deletion_rule(adj):
                keys.add(canonical_form(Graph(n, adj)))
    return tuple(sorted(keys))


@lru_cache(maxsize=None)
def _graphs(n):
    """The decoded graphs of _canonical_keys(n), built once per process."""
    return tuple(decode_canonical_form(key) for key in _canonical_keys(n))


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
