"""Naive reference implementations used as test oracles.

Everything here is a literal transcription of a definition: permutation
isomorphism, explicit path, walk and cycle enumeration, subset scans.  No
shortcuts, no shared code with the library beyond the Graph container, tiny
sizes only.  backtracking_path_rows walks every qualifying path one at a
time, to test the library's search over path states, and
clique_ordering_end_vertices searches clique orderings with a memo, to test
the library's pendant test on interval graphs too large to permute every
ordering.  naive_canonical_search tries every order that respects the
refined colors it is given (those are checked against naive_refine_colors
elsewhere), to test the library's pruned search and its one-leaf path for
discrete colorings.  The exceptions are the canonical-form helpers and the five
oracles at the bottom.  The helpers wrap the library's canonical form for
tests that need a representative or a prefilter key.  The scan oracle starts
from the library's interval tables and closure rules (checked against the
literal definitions above elsewhere) to test the single-set queries, the
convex-set bitset and the hulls read off it, the geometry scans built on
top of them, the lemma checks on type bitsets (against the per-set scan
they replaced), the whole-set test and the cover lemmas' check; its
end_simplicial_within applies the library's end_simplicial_vertices (checked
against clique orderings elsewhere) to each G[S].  The enumeration
oracle deduplicates every one-vertex extension by the library's canonical
form (checked against permutation isomorphism elsewhere) to test the
enumerator's canonical augmentation.  The embedding oracle finds cycles,
P4s, houses, dominoes and As with the library's embedding search (checked
against naive_contains_induced elsewhere) to test the direct cycle and P4
enumerators and their callers.  The bounded walk oracle decides toll and
weakly toll membership by reachability sweeps per walk position, with no
code in common with the library's component-based decisions; it reaches
walk lengths that literal walk enumeration cannot.  The backtracking
embedding search takes the library's placement order and tests every vertex
at every depth, to test that the library's candidate-mask search yields the
same embeddings in the same order.
"""

import math
from functools import lru_cache
from itertools import combinations, permutations, product

import networkx as nx

from convexgeom.canon import canonical_form, decode_canonical_form
from convexgeom.engine import GeometryReport, closure_rules
from convexgeom.graphs import Graph, bit, induced_subgraph, iter_bits, mask_of
from convexgeom.patterns import (A_GRAPH, DOMINO, HOUSE, P4, _embedding_order,
                                 all_induced_occurrences, cycle_graph,
                                 iter_induced_embeddings)
from convexgeom.recognizers import end_simplicial_vertices, free_of_family
from convexgeom.walks import CLOSURE_KINDS, interval_table


def naive_automorphisms(g):
    """Every vertex permutation p (vertex u maps to p[u]) that keeps g."""
    verts = range(g.n)
    return {perm for perm in permutations(verts)
            if all(g.has_edge(u, v) == g.has_edge(perm[u], perm[v])
                   for u in verts for v in verts if u < v)}


def naive_is_isomorphic(g, h):
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    verts = range(g.n)
    for perm in permutations(verts):
        if all(g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
               for u in verts for v in verts if u < v):
            return True
    return g.n == 0


def floyd_warshall(g):
    d = [[0 if i == j else (1 if g.has_edge(i, j) else math.inf)
          for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def all_simple_paths(g, u, v):
    """Every simple path from u to v as a vertex tuple; (u,) when u == v."""
    out = []

    def extend(path, used):
        if path[-1] == v:
            out.append(tuple(path))
            return
        for w in range(g.n):
            if g.has_edge(path[-1], w) and not used & bit(w):
                path.append(w)
                extend(path, used | bit(w))
                path.pop()

    extend([u], bit(u))
    return out


def path_chords(g, path):
    """Edges between path vertices more than one step apart."""
    return [(i, j) for i in range(len(path)) for j in range(i + 2, len(path))
            if g.has_edge(path[i], path[j])]


def is_even_chorded(g, path):
    last = len(path) - 1
    for i, j in path_chords(g, path):
        if (j - i) % 2 == 1 or i == 0 or j == last:
            return False
    return True


def is_triangle_path(g, path):
    return all(j - i == 2 for i, j in path_chords(g, path))


def backtracking_path_rows(g, source, mode, min_len=0, max_len=None):
    """paths.path_interval_rows by backtracking over every qualifying path,
    with the chord rules checked as each vertex joins: a chord is inspected
    when its later endpoint enters the path.  The strong rule's ban on a
    chord at the endpoint is applied when a path is read off, since
    extending the path can turn the endpoint into an interior vertex."""
    n = g.n
    rows = [0] * n
    if max_len is None:
        max_len = n - 1
    adj = g.adj
    path = [source]

    def extension_ok(w, chords):
        i = len(path)                    # w lands at position i
        if mode == "induced":
            return not chords
        if mode == "strong":
            for j, x in enumerate(path):
                if chords & bit(x) and (j == 0 or (i - j) % 2 == 1):
                    return False
            return True
        allowed = bit(path[i - 2]) if i >= 2 else 0
        return chords & ~allowed == 0

    def extend(last, pmask, depth):
        if depth >= max_len:
            return
        for w in iter_bits(adj[last] & ~pmask):
            chords = adj[w] & pmask & ~bit(last)
            if not extension_ok(w, chords):
                continue
            path.append(w)
            if depth + 1 >= min_len and (mode != "strong" or not chords):
                rows[w] |= pmask | bit(w)
            extend(w, pmask | bit(w), depth + 1)
            path.pop()

    extend(source, bit(source), 0)
    return rows


def all_walks(g, u, max_len):
    """Every walk starting at u with at most max_len edges (tuples)."""
    out = []

    def extend(path):
        out.append(tuple(path))
        if len(path) - 1 == max_len:
            return
        for w in iter_bits(g.adj[path[-1]]):
            path.append(w)
            extend(path)
            path.pop()

    extend([u])
    return out


def is_tolled_walk(g, walk):
    k = len(walk) - 1
    u, v = walk[0], walk[k]
    for i, w in enumerate(walk):
        if g.has_edge(u, w) and i != 1:
            return False
        if g.has_edge(w, v) and i != k - 1:
            return False
    return True


def is_weakly_toll_walk(g, walk):
    k = len(walk) - 1
    u, v = walk[0], walk[k]
    for w in walk:
        if g.has_edge(u, w) and w != walk[1]:
            return False
        if g.has_edge(w, v) and w != walk[k - 1]:
            return False
    return True


def naive_interval(g, kind, u, v, k=None, max_len=None):
    """Vertex set over the literal walk family between u and v."""
    if u == v:
        return bit(u)
    hits = bit(u) | bit(v)
    if kind in ("toll", "weaklyToll"):
        accept = is_tolled_walk if kind == "toll" else is_weakly_toll_walk
        bound = 2 * g.n + 2 if max_len is None else max_len
        for walk in all_walks(g, u, bound):
            if walk[-1] == v and accept(g, walk):
                hits |= mask_of(walk)
        return hits
    dist = floyd_warshall(g)[u][v]
    for path in all_simple_paths(g, u, v):
        length = len(path) - 1
        chords = path_chords(g, path)
        if kind == "geodetic":
            ok = length == dist
        elif kind == "monophonic":
            ok = not chords
        elif kind == "m3":
            ok = not chords and length >= 3
        elif kind == "lk":
            ok = not chords and length <= k
        elif kind == "strong":
            ok = is_even_chorded(g, path)
        elif kind == "trianglePath":
            ok = is_triangle_path(g, path)
        elif kind == "p3":
            ok = length == 2
        else:
            raise ValueError(kind)
        if ok:
            hits |= mask_of(path)
    return hits


def naive_convex(g, kind, s, k=None):
    for u in iter_bits(s):
        for v in iter_bits(s):
            if u < v and naive_interval(g, kind, u, v, k=k) & ~s:
                return False
    return True


def naive_hull(g, kind, s, k=None):
    while True:
        grown = s
        for u in iter_bits(s):
            for v in iter_bits(s):
                if u < v:
                    grown |= naive_interval(g, kind, u, v, k=k)
        if grown == s:
            return s
        s = grown


def naive_ffree_convex(g, family, s):
    """A missing vertex completing an induced family member from inside s
    violates closedness."""
    outside = [x for x in range(g.n) if not s & bit(x)]
    for h in family:
        if h.n - 1 > bin(s).count("1"):
            continue
        for inner in combinations(list(iter_bits(s)), h.n - 1):
            for x in outside:
                sub, _ = induced_subgraph(g, mask_of(inner) | bit(x))
                if naive_is_isomorphic(sub, h):
                    return False
    return True


def naive_p4plus_convex(g, s):
    for quad in permutations(range(g.n), 4):
        a, b, c, d = quad
        if (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
                and not g.has_edge(a, c) and not g.has_edge(a, d)
                and not g.has_edge(b, d)):
            if s & bit(a) and s & bit(b) and s & bit(d) and not s & bit(c):
                return False
    return True


def naive_contains_induced(g, p):
    for members in combinations(range(g.n), p.n):
        sub, _ = induced_subgraph(g, mask_of(members))
        if naive_is_isomorphic(sub, p):
            return True
    return False


def naive_maximal_cliques(g):
    cliques = [s for s in range(1 << g.n)
               if all(g.has_edge(u, v)
                      for u in iter_bits(s) for v in iter_bits(s) if u < v)]
    return sorted(c for c in cliques
                  if c and not any(c != d and c & d == c for d in cliques))


def naive_consecutive_orders(g):
    cliques = naive_maximal_cliques(g)
    out = []
    for order in permutations(cliques):
        ok = True
        for v in range(g.n):
            spots = [i for i, c in enumerate(order) if c & bit(v)]
            if spots and spots != list(range(spots[0], spots[-1] + 1)):
                ok = False
                break
        if ok:
            out.append(order)
    return out


def clique_ordering_end_vertices(g):
    """Simplicial vertices v whose clique N[v] opens some consecutive clique
    ordering, by a search over orderings memoised on (placed cliques, last
    clique); an interval graph is assumed.  The library decides the same set
    by its pendant test; this search reaches the interval graphs too large
    for naive_consecutive_orders, with cliques from networkx."""
    nxg = nx.Graph(list(g.edges()))
    nxg.add_nodes_from(range(g.n))
    cliques = sorted(mask_of(c) for c in nx.find_cliques(nxg))
    k = len(cliques)
    dead = set()

    def completes(placed, seen, last):
        if placed == (1 << k) - 1:
            return True
        if (placed, last) in dead:
            return False
        closed = seen & ~last  # vertices whose run of cliques has ended
        for i, c in enumerate(cliques):
            if not placed >> i & 1 and not c & closed:
                if completes(placed | 1 << i, seen | c, c):
                    return True
        dead.add((placed, last))
        return False

    out = 0
    for v in range(g.n):
        home = g.adj[v] | bit(v)
        if home in cliques and completes(1 << cliques.index(home), home, home):
            out |= bit(v)
    return out


def naive_is_chordal(g):
    for members in range(1 << g.n):
        size = bin(members).count("1")
        if size < 4:
            continue
        sub, _ = induced_subgraph(g, members)
        if all(sub.degree(v) == 2 for v in range(sub.n)) and _is_connected(sub):
            return False
    return True


def _is_connected(g):
    if g.n == 0:
        return False
    seen = bit(0)
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in iter_bits(g.adj[v]):
            if not seen & bit(w):
                seen |= bit(w)
                frontier.append(w)
    return seen == g.vertex_set()


def naive_is_bipartite(g):
    for side in range(1 << g.n):
        if all((bool(side & bit(u)) != bool(side & bit(v)))
               for u, v in g.edges()):
            return True
    return g.edge_count() == 0


def naive_is_forest(g):
    for members in range(1 << g.n):
        if bin(members).count("1") < 3:
            continue
        sub, _ = induced_subgraph(g, members)
        if sub.edge_count() >= sub.n and all(sub.degree(v) == 2 for v in range(sub.n)):
            if _is_connected(sub):
                return False
    return g.edge_count() <= max(g.n - 1, 0)


def naive_simple_vertices(g):
    out = 0
    for v in range(g.n):
        rows = [g.adj[u] | bit(u) for u in iter_bits(g.adj[v])]
        if all(a & ~b == 0 or b & ~a == 0
               for i, a in enumerate(rows) for b in rows[i + 1:]):
            out |= bit(v)
    return out


def strongly_chordal_farber(g):
    """Farber's criterion: every nonempty induced subgraph has a simple vertex."""
    return all(any(_is_simple_within(g, sub, v) for v in iter_bits(sub))
               for sub in range(1, 1 << g.n))


def _is_simple_within(g, sub, v):
    # the closed neighbourhoods in G[sub] of v's neighbours are pairwise nested
    rows = [(g.adj[u] | bit(u)) & sub for u in iter_bits(g.adj[v] & sub)]
    return all(a & ~b == 0 or b & ~a == 0
               for i, a in enumerate(rows) for b in rows[i + 1:])


def iter_cycles(g, min_len):
    """All simple cycles with >= min_len vertices as tuples, each exactly once
    (rooted at the minimum vertex, direction fixed by second < last)."""
    adj = g.adj
    for root in range(g.n):
        higher = g.vertex_set() & ~((1 << (root + 1)) - 1)
        path = [root]

        def extend(last, used):
            for w in iter_bits(adj[last] & higher & ~used):
                path.append(w)
                if len(path) >= 3 and adj[w] & bit(root) and path[1] < w:
                    if len(path) >= min_len:
                        yield tuple(path)
                yield from extend(w, used | bit(w))
                path.pop()

        yield from extend(root, bit(root))


def cycle_chord_spans(g, cycle):
    """Distance along the cycle, j - i, of every chord cycle[i]-cycle[j]."""
    length = len(cycle)
    return [j - i for i in range(length) for j in range(i + 2, length)
            if j - i != length - 1 and g.has_edge(cycle[i], cycle[j])]


def strongly_chordal_by_cycles(g):
    """The definition: every cycle on >= 4 vertices has a chord, and every
    even cycle on >= 6 vertices has an odd chord (one whose ends lie an odd
    distance apart along the cycle)."""
    for cycle in iter_cycles(g, 4):
        spans = cycle_chord_spans(g, cycle)
        if not spans:
            return False
        if (len(cycle) >= 6 and len(cycle) % 2 == 0
                and not any(d % 2 for d in spans)):
            return False
    return True


def naive_semisimplicial_vertices(g):
    internal = 0
    for u in range(g.n):
        for v in range(g.n):
            if u >= v:
                continue
            for path in all_simple_paths(g, u, v):
                if len(path) == 4 and not path_chords(g, path):
                    internal |= bit(path[1]) | bit(path[2])
    return g.vertex_set() & ~internal


def naive_asteroidal_triple(g):
    for a, b, c in combinations(range(g.n), 3):
        def linked(x, y, z):
            ban = g.adj[z] | bit(z)
            if ban & (bit(x) | bit(y)):
                return False
            return any(not mask_of(p) & ban for p in all_simple_paths(g, x, y))
        if linked(a, b, c) and linked(a, c, b) and linked(b, c, a):
            return (a, b, c)
    return None


# --- scan oracle ------------------------------------------------------------
#
# The expansion step and the two geometry scans with no shared structure:
# pairwise interval unions and rule firing recomputed for every subset, hulls
# by repeated expansion.


def naive_expander(g, spec):
    """One-step interval/closure operator as a mask -> mask function."""
    if spec.kind in CLOSURE_KINDS:
        rules = closure_rules(g, spec)

        def expand(s):
            out = s
            for trigger, added in rules:
                if trigger & ~s == 0:
                    out |= added
            return out
    else:
        t = interval_table(g, spec)
        n = g.n

        def expand(s):
            out = s
            vs = list(iter_bits(s))
            for i, u in enumerate(vs):
                row = u * n
                for v in vs[i + 1:]:
                    out |= t[row + v]
            return out
    return expand


def naive_mkm(g, spec):
    expand = naive_expander(g, spec)
    for s in range(1 << g.n):
        if expand(s) != s:
            continue
        ext = 0
        for x in iter_bits(s):
            t = s & ~bit(x)
            if expand(t) == t:
                ext |= bit(x)
        h = ext
        while True:
            t = expand(h)
            if t == h:
                break
            h = t
        if h != s:
            return GeometryReport(False, "mkm", violating_set=s,
                                  extremes=ext, hull_of_extremes=h)
    return GeometryReport(True, "mkm")


def naive_antiexchange(g, spec):
    expand = naive_expander(g, spec)
    hulls = {}

    def hull_of(s):
        h = hulls.get(s)
        if h is None:
            h = s
            while True:
                t = expand(h)
                if t == h:
                    break
                h = t
            hulls[s] = h
        return h

    full = g.vertex_set()
    for s in range(1 << g.n):
        if expand(s) != s:
            continue
        outside = list(iter_bits(full & ~s))
        for i, x in enumerate(outside):
            bx = bit(x)
            for y in outside[i + 1:]:
                by = bit(y)
                if hull_of(s | by) & bx and hull_of(s | bx) & by:
                    return GeometryReport(False, "antiexchange",
                                          antiexchange_witness=(s, x, y))
    return GeometryReport(True, "antiexchange")


def naive_cover(g, spec, anchors_fn):
    """harness._check_cover as a loop over every non-anchor vertex and
    every anchor pair of the interval table."""
    table = interval_table(g, spec)
    anchors = anchors_fn(g)
    pool = list(iter_bits(anchors))
    for v in iter_bits(g.vertex_set() & ~anchors):
        if not any(table[s1 * g.n + s2] & bit(v)
                   for i, s1 in enumerate(pool) for s2 in pool[i + 1:]):
            return False, {"vertex": v, "anchors": list(iter_bits(anchors))}
    return True, None


def naive_whole_set_passes(g, spec):
    """hull(ext(V)) = V, with ext(V) and the hull from the scan oracle's step."""
    expand = naive_expander(g, spec)
    full = g.vertex_set()
    ext = 0
    for x in range(g.n):
        t = full & ~bit(x)
        if expand(t) == t:
            ext |= bit(x)
    h = ext
    while expand(h) != h:
        h = expand(h)
    return h == full


def naive_convex_bits(g, spec):
    """engine.convex_bits as one expansion per subset: bit s set iff s is
    a fixpoint of the scan oracle's step."""
    expand = naive_expander(g, spec)
    return sum(1 << s for s in range(1 << g.n) if expand(s) == s)


def naive_extremes_match(g, spec, within, exact=True):
    """harness._extremes_match as the per-set scan it replaced: for every
    convex set S by ascending mask, the extremes of S against the vertex set
    within(g, S) computed on G[S]."""
    expand = naive_expander(g, spec)
    for s in range(1 << g.n):
        if expand(s) != s:
            continue
        ext = 0
        for x in iter_bits(s):
            t = s & ~bit(x)
            if expand(t) == t:
                ext |= bit(x)
        want = within(g, s)
        if (ext != want) if exact else (ext & ~want):
            return False, {"set": list(iter_bits(s)), "extremes": list(iter_bits(ext)),
                           "target": list(iter_bits(want))}
    return True, None


# --- vertex types on an induced subgraph ---------------------------------------
#
# The three local vertex types of G[sub], straight from their definitions,
# to test the type bitsets of recognizers on every subset at once.


def simplicial_within(g, sub):
    """Vertices of sub whose neighbours in sub are pairwise adjacent."""
    out = 0
    for v in iter_bits(sub):
        nbrs = list(iter_bits(g.adj[v] & sub))
        if all(g.has_edge(a, b) for a, b in combinations(nbrs, 2)):
            out |= bit(v)
    return out


def semisimplicial_within(g, sub):
    """Vertices v of sub that are inside no induced P4 a-v-b-c of G[sub]:
    a and b nonadjacent neighbours of v, c a neighbour of b adjacent to
    neither v nor a."""
    out = 0
    for v in iter_bits(sub):
        nbrs = g.adj[v] & sub
        if not any(g.adj[b] & sub & ~g.adj[v] & ~g.adj[a] & ~bit(v) & ~bit(a)
                   for a in iter_bits(nbrs)
                   for b in iter_bits(nbrs & ~g.adj[a] & ~bit(a))):
            out |= bit(v)
    return out


def simple_within(g, sub):
    """Vertices of sub whose neighbours' closed neighbourhoods in G[sub] are
    pairwise nested."""
    return sum(bit(v) for v in iter_bits(sub) if _is_simple_within(g, sub, v))


def end_simplicial_within(g, sub):
    """End simplicial vertices of G[sub], in g's labels."""
    h, mapping = induced_subgraph(g, sub)
    return sum(bit(mapping[i]) for i in iter_bits(end_simplicial_vertices(h)))


# --- bit and color helpers ----------------------------------------------------


def naive_bits(mask):
    """Set bit positions of a nonnegative mask, ascending, one test per bit."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def naive_refine_colors(adj):
    """Color refinement as it stood before the weighted-sum key: each round
    numbers the vertices by (color, sorted tuple of neighbor colors)."""
    nbrs = [naive_bits(row) for row in adj]
    colors = [len(ns) for ns in nbrs]
    count = len(set(colors))
    while True:
        keys = [(colors[v], tuple(sorted(colors[w] for w in ns)))
                for v, ns in enumerate(nbrs)]
        distinct = sorted(set(keys))
        order = {k: i for i, k in enumerate(distinct)}
        new = [order[k] for k in keys]
        if len(distinct) in (count, len(adj)):
            return new
        colors = new
        count = len(distinct)


def naive_canonical_search(adj, colors):
    """(form, order) by definition: over every vertex order that lists the
    color classes in color order, each class in any order, the least code
    (row by row, the bits toward the earlier vertices, earliest first), and
    the first order in itertools.product order that reaches it.  The form is
    n, then the code's bits in bytes, big-endian, zero-padded."""
    n = len(adj)
    cells = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
    best = None
    for parts in product(*[permutations(cell) for cell in cells]):
        order = [v for part in parts for v in part]
        bits = [adj[x] >> w & 1 for pos, x in enumerate(order) for w in order[:pos]]
        if best is None or bits < best[0]:
            best = bits, order
    bits, order = best
    bits += [0] * (-len(bits) % 8)
    form = bytes([n]) + bytes(int("".join(map(str, bits[i:i + 8])), 2)
                              for i in range(0, len(bits), 8))
    return form, tuple(order)


def naive_passes_deletion_rule(g):
    """The enumerator's deletion rule by definition: no vertex of lower
    degree than the last one leaves g connected when it is deleted."""
    v = g.n - 1
    return not any(g.degree(u) < g.degree(v)
                   and _is_connected(induced_subgraph(g, g.vertex_set() & ~bit(u))[0])
                   for u in range(v))


# --- canonical-form helpers -------------------------------------------------
#
# Built on the library's canonical form; no library code uses them.


def iso_invariant(g):
    """Cheap isomorphism-invariant prefilter key: (n, edges, degree multiset)."""
    return (g.n, g.edge_count(), tuple(sorted(g.degree(v) for v in range(g.n))))


def canonical_graph(g):
    """A concrete representative carrying the canonical labeling's adjacency."""
    return decode_canonical_form(canonical_form(g))


# --- enumeration oracle -----------------------------------------------------
#
# The enumerator as it stood before its deletion rule and canonical
# augmentation: every nonempty neighbor set of a new vertex on every parent,
# deduplicated by canonical form.


@lru_cache(maxsize=None)
def naive_canonical_keys(n):
    if n == 1:
        return (canonical_form(Graph(1, (0,))),)
    keys = set()
    for parent_key in naive_canonical_keys(n - 1):
        parent = decode_canonical_form(parent_key)
        for nbrs in range(1, 1 << (n - 1)):
            keys.add(canonical_form(parent.with_new_vertex(nbrs)))
    return tuple(sorted(keys))


# --- embedding oracle -------------------------------------------------------
#
# Closure rules and weak polarizability as they stood before the direct
# enumerators: every pattern copy found by the embedding search, once per
# automorphism, and deduplicated afterwards.


def embedding_closure_rules(g, spec):
    rules = {}

    def add_rule(trigger, x):
        rules[trigger] = rules.get(trigger, 0) | bit(x)

    if spec.kind == "p4plus":
        for a, b, c, d in iter_induced_embeddings(g, P4):
            add_rule(bit(a) | bit(b) | bit(d), c)
            add_rule(bit(a) | bit(c) | bit(d), b)
    else:
        for h in spec.family:
            for occ in all_induced_occurrences(g, h):
                for x in iter_bits(occ):
                    add_rule(occ & ~bit(x), x)
    return tuple(sorted(rules.items()))


def embedding_weakly_polarizable(g):
    holes = [cycle_graph(k) for k in range(5, g.n + 1)]
    return free_of_family(g, holes + [HOUSE, DOMINO, A_GRAPH])


# --- bounded walk oracle ----------------------------------------------------
#
# Tolled-walk constraints are positional (only index 1 may see N(u), only
# index k-1 may see N(v)), so for each length k a per-position reachability
# sweep is exact.  Weakly toll constraints are identity based
# (every N(u) occurrence equals the one vertex u1), so fixing the pair
# (u1, u_{k-1}) = (a, b) turns the interior into plain reachability inside a
# fixed allowed set, with no dependence on position or length.


def default_walk_bound(g):
    return 2 * g.n + 2


def bounded_walk_hits(g, kind, u, v, max_len=None):
    """Mask of all vertices on some qualifying walk of length <= max_len."""
    if kind == "toll":
        return _toll_walk_hits(g, u, v, max_len or default_walk_bound(g))
    if kind == "weaklyToll":
        return _weakly_toll_walk_hits(g, u, v, max_len or default_walk_bound(g))
    raise ValueError(f"bounded walk oracle supports toll/weaklyToll, not {kind!r}")


def bounded_walk_oracle(g, kind, u, v, x, max_len=None):
    return bool(bounded_walk_hits(g, kind, u, v, max_len) & bit(x))


def _neighbors_of(g, mask):
    out = 0
    for w in iter_bits(mask):
        out |= g.adj[w]
    return out


def _toll_walk_hits(g, u, v, max_len):
    if u == v:
        return bit(u)
    if g.adj[u] & bit(v):
        # u_0 u_k is an edge, so k-1 = 0: the single edge is the only walk
        return bit(u) | bit(v)
    au, av = g.adj[u], g.adj[v]
    not_uv = ~(bit(u) | bit(v))
    hits = 0
    for k in range(2, max_len + 1):
        def allowed(i):
            m = (au if i == 1 else ~au) & (av if i == k - 1 else ~av)
            return m & not_uv & g.vertex_set()
        fwd = [0] * k
        fwd[0] = bit(u)
        alive = True
        for i in range(1, k):
            fwd[i] = _neighbors_of(g, fwd[i - 1]) & allowed(i)
            if not fwd[i]:
                alive = False
                break
        if not alive:
            continue
        bwd = [0] * (k + 1)
        bwd[k] = bit(v)
        for i in range(k - 1, 0, -1):
            bwd[i] = _neighbors_of(g, bwd[i + 1]) & allowed(i)
            if not bwd[i]:
                break
        got = 0
        for i in range(1, k):
            got |= fwd[i] & bwd[i]
        if got:
            hits |= got | bit(u) | bit(v)
    return hits


def _weakly_toll_walk_hits(g, u, v, max_len):
    if u == v:
        return bit(u)
    if g.adj[u] & bit(v):
        # every interior occurrence collapses onto u1 = v and u_{k-1} = u,
        # so walks alternate u,v and contribute nothing new
        return bit(u) | bit(v)
    au, av = g.adj[u], g.adj[v]
    full = g.vertex_set()
    hits = 0
    for a in iter_bits(au):
        ba = bit(a)
        for b in iter_bits(av):
            bb = bit(b)
            if (av & ba and a != b) or (au & bb and a != b):
                continue  # a or b would be a second distinct N-endpoint witness
            allowed = (~au | ba) & (~av | bb) & full
            fwd = [0, ba]
            while len(fwd) <= max_len - 1:
                nxt = _neighbors_of(g, fwd[-1]) & allowed
                if not nxt:
                    break
                fwd.append(nxt)
            bwd = [0, bb]
            while len(bwd) <= max_len - 1:
                nxt = _neighbors_of(g, bwd[-1]) & allowed
                if not nxt:
                    break
                bwd.append(nxt)
            cum_b = [0] * (max_len + 1)
            for d in range(1, max_len + 1):
                cum_b[d] = cum_b[d - 1] | (bwd[d] if d < len(bwd) else 0)
            got = 0
            for i in range(1, len(fwd)):
                if i + 1 > max_len:
                    break
                got |= fwd[i] & cum_b[max_len - i]
            if got:
                hits |= got | bit(u) | bit(v)
    return hits


def backtracking_induced_embeddings(g, p):
    """Induced embeddings of p into g as tuples, in the order of the
    library's search: pattern vertices in the library's placement order,
    every vertex of g tested at every depth."""
    if p.n > g.n:
        return
    if p.n == 0:
        yield ()
        return
    order = _embedding_order(p)
    degs = [p.degree(v) for v in range(p.n)]
    image = [None] * p.n

    def extend(pos, used):
        if pos == p.n:
            yield tuple(image)
            return
        q = order[pos]
        want = p.adj[q]
        req_adj = 0
        req_non = 0
        for j in range(pos):
            m = image[order[j]]
            if want & bit(order[j]):
                req_adj |= bit(m)
            else:
                req_non |= bit(m)
        for w in range(g.n):
            bw = bit(w)
            if used & bw:
                continue
            aw = g.adj[w]
            if aw & req_adj != req_adj or aw & req_non:
                continue
            if aw.bit_count() < degs[q]:
                continue
            image[q] = w
            yield from extend(pos + 1, used | bw)
            image[q] = None

    yield from extend(0, 0)
