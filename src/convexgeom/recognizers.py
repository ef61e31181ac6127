"""Graph-class recognition, independent of the convexity engine.

Each class check works from first principles (elimination orderings, pattern
search, reachability), so the verification harness can use these verdicts as
the opposite side of each characterization without circularity.  Weak
polarizability reads its holes and its house, domino and A patterns off
patterns.induced_cycles, which no geometry side of T-M3 uses; cographs stay
on the embedding search, because C-P4PLUS's geometry side uses induced_p4s.
"""

from functools import lru_cache
from itertools import combinations

from .errors import UsageError
from .graphs import (bfs_layers, bit, components, diameter, iter_bits,
                     mask_of, subset_bits)
from .patterns import CLAW, GEM, P4, contains_induced, induced_cycles

# --- local vertex types -------------------------------------------------------
#
# Each type is one generator of forbidden sets: x has the type in G[within]
# iff _*_forbidden(adj, x, within) yields nothing.  The elimination loops and
# the *_vertices queries read it for one set; the *_types bitsets (see
# graphs.subset_bits), in which bit s of T[x] is set iff x lies in s and has
# the type in G[s], clear the supersets of every set it yields for V.


def _simplicial_forbidden(adj, x, within):
    """Two nonadjacent neighbours a, b of x."""
    nbrs = adj[x] & within
    for a in iter_bits(nbrs):
        for b in iter_bits(nbrs & ~adj[a] & ~((2 << a) - 1)):
            yield bit(a) | bit(b)


def _semisimplicial_forbidden(adj, x, within):
    """An induced P4 a-x-b-c: a and b nonadjacent neighbours of x, c a
    neighbour of b adjacent to neither x nor a."""
    nbrs = adj[x] & within
    for a in iter_bits(nbrs):
        for b in iter_bits(nbrs & ~adj[a] & ~bit(a)):
            for c in iter_bits(adj[b] & within & ~adj[x] & ~adj[a] & ~bit(x)):
                yield bit(a) | bit(b) | bit(c)


def _simple_forbidden(adj, x, within):
    """Neighbours u, w of x whose closed neighbourhoods are not nested:
    p in N[u] - N[w] and q in N[w] - N[u].  Without them the closed
    neighbourhoods of x's neighbours form a chain."""
    nbrs = adj[x] & within
    for u in iter_bits(nbrs):
        cu = (adj[u] | bit(u)) & within
        for w in iter_bits(nbrs & ~((2 << u) - 1)):
            cw = (adj[w] | bit(w)) & within
            for p in iter_bits(cu & ~cw):
                for q in iter_bits(cw & ~cu):
                    yield bit(u) | bit(w) | bit(p) | bit(q)


def simplicial_vertices(g):
    full = g.vertex_set()
    return mask_of(x for x in range(g.n)
                   if not any(_simplicial_forbidden(g.adj, x, full)))


def simple_vertices(g):
    full = g.vertex_set()
    return mask_of(x for x in range(g.n)
                   if not any(_simple_forbidden(g.adj, x, full)))


def semisimplicial_vertices(g):
    full = g.vertex_set()
    return mask_of(x for x in range(g.n)
                   if not any(_semisimplicial_forbidden(g.adj, x, full)))


def _types(g, forbidden):
    """T[x] = up[{x}] minus up[m + x] for every m that forbidden yields in V."""
    up = subset_bits(g.n)
    full = g.vertex_set()
    out = []
    for x in range(g.n):
        bx = bit(x)
        broken = 0
        for m in forbidden(g.adj, x, full):
            broken |= up[m | bx]
        out.append(up[bx] & ~broken)
    return out


def simplicial_types(g):
    return _types(g, _simplicial_forbidden)


def semisimplicial_types(g):
    return _types(g, _semisimplicial_forbidden)


def simple_types(g):
    return _types(g, _simple_forbidden)


# --- chordality family --------------------------------------------------------


def _eliminates(g, forbidden):
    """Greedy elimination: remove any vertex of the type forbidden defines
    in G[sub] until none is left.  Sound for a hereditary class whose members
    are the graphs with such an elimination ordering, since removing a
    vertex of the type keeps the rest inside the class."""
    adj = g.adj
    sub = g.vertex_set()
    while sub:
        for v in iter_bits(sub):
            if not any(forbidden(adj, v, sub)):
                sub &= ~bit(v)
                break
        else:
            return False
    return True


# The recognizers that several registry entries, or a class side and a
# lemma domain, ask about the same graph are cached per graph, as
# end_simplicial_vertices is.  They call each other (proper interval ->
# interval -> chordal), so a hit also skips the inner calls.


@lru_cache(maxsize=1 << 12)
def is_chordal(g):
    """A simplicial elimination ordering exists."""
    return _eliminates(g, _simplicial_forbidden)


@lru_cache(maxsize=1 << 12)
def is_ptolemaic(g):
    return is_chordal(g) and contains_induced(g, GEM) is None


@lru_cache(maxsize=1 << 12)
def is_strongly_chordal(g):
    """A simple elimination ordering exists (Farber, 1983).  A simple vertex
    is simplicial, so the ordering also certifies chordality."""
    return _eliminates(g, _simple_forbidden)


def is_weakly_polarizable(g):
    """No hole (induced cycle >= 5), house, domino, or A.  One induced-cycle
    pass finds the holes and the induced C4s m; the other three all contain
    an induced C4 and show in the traces adj[x] & m of outside vertices x: a
    trace that is an edge of m is a house roof, and traces {c} and {d} on an
    edge c-d of m complete a domino or an A."""
    c4s = []
    for m in induced_cycles(g, 4):
        if m.bit_count() > 4:
            return False
        c4s.append(m)
    for m in c4s:
        singles = 0
        for x in iter_bits(g.vertex_set() & ~m):
            t = g.adj[x] & m
            if t.bit_count() == 1:
                singles |= t
            elif t.bit_count() == 2 and g.adj[(t & -t).bit_length() - 1] & t:
                return False
        if any(g.adj[c] & singles for c in iter_bits(singles)):
            return False
    return True


def _reach_avoiding(g):
    """reach[c][x]: the component of x in G - N[c], for every x outside N[c]."""
    full = g.vertex_set()
    return [{w: comp for comp in components(g, full & ~(g.adj[c] | bit(c)))
             for w in iter_bits(comp)} for c in range(g.n)]


def find_asteroidal_triple(g):
    """Triple (a,b,c) with each pair connected outside the closed neighborhood
    of the third, or None."""
    n = g.n
    reach = _reach_avoiding(g)

    def linked(x, y, z):
        comp = reach[z].get(x)
        return comp is not None and comp & bit(y)

    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if linked(a, b, c) and linked(a, c, b) and linked(b, c, a):
                    return (a, b, c)
    return None


@lru_cache(maxsize=1 << 12)
def is_interval(g):
    return is_chordal(g) and find_asteroidal_triple(g) is None


@lru_cache(maxsize=1 << 12)
def is_proper_interval(g):
    return is_interval(g) and contains_induced(g, CLAW) is None


@lru_cache(maxsize=1 << 12)
def is_cograph(g):
    return contains_induced(g, P4) is None


def is_chordal_cograph(g):
    return is_chordal(g) and is_cograph(g)


# --- sparse classes -----------------------------------------------------------


def is_forest(g):
    return g.edge_count() == g.n - len(components(g))


def is_forest_of_stars(g):
    """Every component is K_{1,m} for some m >= 0."""
    if not is_forest(g):
        return False
    for comp in components(g):
        centers = sum(1 for v in iter_bits(comp) if g.degree(v) >= 2)
        if centers > 1:
            return False
    return True


def is_bipartite(g):
    """No edge inside a BFS layer: edges join equal or consecutive layers,
    so the layers' parity 2-colours the graph iff none is inside one."""
    todo = g.vertex_set()
    while todo:
        for layer in bfs_layers(g, (todo & -todo).bit_length() - 1):
            for v in iter_bits(layer):
                if g.adj[v] & layer:
                    return False
            todo &= ~layer
    return True


def diam_at_most(g, k):
    return diameter(g) <= k


# --- planarity at desk scale --------------------------------------------------


def _has_topological_subgraph(g, branch_sets, pattern_edges):
    """Is some subdivision of the pattern a subgraph of g?  branch_sets lists
    candidate images per pattern vertex; pattern_edges connect pattern slots."""
    n = g.n

    def place(edges, used, images):
        if not edges:
            return True
        (pu, pv), rest = edges[0], edges[1:]
        x, y = images[pu], images[pv]

        # paths from x to y whose interior avoids used vertices
        def paths(last, interior_used):
            if g.adj[last] & bit(y):
                yield interior_used
            free = g.adj[last] & ~used & ~interior_used & ~bit(y)
            for w in iter_bits(free):
                yield from paths(w, interior_used | bit(w))

        for interior in paths(x, 0):
            if place(rest, used | interior, images):
                return True
        return False

    def assign(slot, used, images):
        if slot == len(branch_sets):
            return place(pattern_edges, used, images)
        for v in branch_sets[slot]:
            bv = bit(v)
            if used & bv:
                continue
            images.append(v)
            if assign(slot + 1, used | bv, images):
                return True
            images.pop()
        return False

    return assign(0, 0, [])


def _k5_subdivision_present(g):
    cands = [v for v in range(g.n) if g.degree(v) >= 4]
    if len(cands) < 5:
        return False
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    for chosen in combinations(cands, 5):
        if _has_topological_subgraph(g, [[v] for v in chosen], edges):
            return True
    return False


def _k33_subdivision_present(g):
    cands = [v for v in range(g.n) if g.degree(v) >= 3]
    if len(cands) < 6:
        return False
    edges = [(i, 3 + j) for i in range(3) for j in range(3)]
    for chosen in combinations(cands, 6):
        rest = list(chosen[1:])
        # the first chosen vertex anchors side one; sides are interchangeable
        for side_rest in combinations(rest, 2):
            side1 = [chosen[0], *side_rest]
            side2 = [v for v in rest if v not in side_rest]
            slots = [[v] for v in side1] + [[v] for v in side2]
            if _has_topological_subgraph(g, slots, edges):
                return True
    return False


def is_planar_desk(g):
    """No subgraph is a subdivision of K5 or K3,3."""
    return not (_k5_subdivision_present(g) or _k33_subdivision_present(g))


# --- end vertices of interval graphs -------------------------------------------


@lru_cache(maxsize=1 << 12)
def end_simplicial_vertices(g):
    """Simplicial vertices v whose clique N[v] can open a consecutive clique
    ordering: the end vertices of an interval graph (Gimbel, 1988).

    Pendant test.  N[v] can open the ordering iff v's interval has a private
    point in some model, where a pendant p at v can go; so iff G + p is an
    interval graph.  An ordering opened by N[v] stays consecutive with {v, p}
    put in front.  Conversely, only v and p lie in the clique {v, p}, so no
    other vertex's run of cliques crosses it: cutting an ordering of G + p
    there leaves two vertex-disjoint runs, one starting at N[v] (v's only
    other clique), and that run followed by the other is an ordering of G
    opened by N[v].  G + p is chordal, and any asteroidal triple of G + p
    contains p, because G has none and p lies inside no path between two
    other vertices.  So v fails iff two non-neighbours b, c of v have b in
    v's component of G - N[c] and c in v's component of G - N[b].  The
    third condition, b and c joined in G - v, follows: the two paths leave
    v through N(v), which is a clique.

    Cached per graph, since the toll lemmas ask again for the same induced
    subgraphs; a refused graph raises again on every call."""
    if not is_interval(g):
        raise ValueError("end_simplicial_vertices requires an interval graph")
    reach = _reach_avoiding(g)
    full = g.vertex_set()
    out = 0
    for v in iter_bits(simplicial_vertices(g)):
        far = full & ~g.adj[v] & ~bit(v)
        if not any(reach[b][v] & bit(c) for c in iter_bits(far)
                   for b in iter_bits(far & reach[c][v])):
            out |= bit(v)
    return out


# --- n-gems and the l3 characterization ----------------------------------------


def n_gems(g):
    """All induced n-gems (n >= 4): induced paths on >= 5 vertices lying inside
    one vertex's neighborhood, as (path, apex) with path[0] < path[-1]."""
    found = []
    for apex in range(g.n):
        pool = g.adj[apex]
        path = []

        def extend(last, used):
            for w in iter_bits(g.adj[last] & pool & ~used):
                if g.adj[w] & used & ~bit(last):
                    continue  # chord against the path so far
                path.append(w)
                if len(path) >= 5 and path[0] < w:
                    found.append((tuple(path), apex))
                extend(w, used | bit(w))
                path.pop()

        for start in iter_bits(pool):
            path = [start]
            extend(start, bit(start))
    return found


def is_gem_solved(g, path, apex):
    """An induced P4 must join the path's ends while avoiding the apex."""
    x0, xn = path[0], path[-1]
    block = bit(apex)
    for y in iter_bits(g.adj[x0] & ~g.adj[xn] & ~block & ~bit(xn)):
        if g.adj[y] & g.adj[xn] & ~g.adj[x0] & ~block & ~bit(x0):
            return True
    return False


def is_l3_characterization(g):
    if not is_chordal(g) or diameter(g) > 3:
        return False
    return all(is_gem_solved(g, path, apex) for path, apex in n_gems(g))


# --- family-freeness and dispatch ----------------------------------------------


def free_of_family(g, family):
    """True when no family member occurs as an induced subgraph."""
    return all(p.n > g.n or contains_induced(g, p) is None for p in family)


_RECOGNIZERS = {"chordal": is_chordal,
                "ptolemaic": is_ptolemaic,
                "stronglyChordal": is_strongly_chordal,
                "weaklyPolarizable": is_weakly_polarizable,
                "interval": is_interval,
                "properInterval": is_proper_interval,
                "cograph": is_cograph,
                "chordalCograph": is_chordal_cograph,
                "forest": is_forest,
                "forestOfStars": is_forest_of_stars,
                "bipartite": is_bipartite,
                "planarDesk": is_planar_desk,
                "l3Characterization": is_l3_characterization}
CLASS_KINDS = (*_RECOGNIZERS, "diamAtMost")


def recognize(g, kind, k=None):
    if kind == "diamAtMost":
        if k is None:
            raise UsageError("diamAtMost needs k")
        return diam_at_most(g, k)
    if kind not in _RECOGNIZERS:
        raise UsageError(f"unknown class kind {kind!r}")
    return _RECOGNIZERS[kind](g)
