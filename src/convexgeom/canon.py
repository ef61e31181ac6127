"""Canonical forms for small graphs.

Two-stage scheme: iterative color refinement (degree, then multiset of
neighbor colors) splits vertices into order-invariant cells, then a pruned
search over cell-respecting permutations picks the lexicographically least
adjacency encoding.  Equal byte strings <=> isomorphic graphs.  The same
search also yields the canonical vertex order and generators of the
automorphism group, which the enumerator's canonical augmentation uses.
Discrete colorings take one loop; refinement reads graphs._BITS (n <= 12).
"""

from .errors import CapacityError
from .graphs import _BITS, EXPONENTIAL_GUARD, Graph, bit


def _refine_colors(adj):
    """Refined vertex colors of the graph with adjacency list adj.  Each
    color is an isomorphism invariant, and a lower degree means a lower
    color.

    Each round numbers the vertices by (color, sorted neighbor colors).  The
    sorted tuple is replaced by minus the sum of (n+1)^(n - color) over the
    neighbors: colors lie in 0..n-1 and counts stay below n+1, so the sum
    holds each color's count in its own base-(n+1) digit, lower colors in
    higher digits.  Equal colors mean equal degree, and between two sorted
    tuples of one length the lesser is the one with more of the first color
    where the counts differ, so both keys sort alike.  The sum is below
    (n+1)^(n+1), so the int color * (n+1)^(n+1) - sum sorts as (color, -sum)."""
    n = len(adj)
    nbrs = [_BITS[row] for row in adj]
    colors = [len(ns) for ns in nbrs]
    count = len(set(colors))
    powers = [(n + 1) ** (n - c) for c in range(n)]
    shift = (n + 1) ** (n + 1)
    while True:
        weight = [powers[c] for c in colors]
        keys = [c * shift - sum(map(weight.__getitem__, ns))
                for c, ns in zip(colors, nbrs)]
        distinct = sorted(set(keys))
        order = {k: i for i, k in enumerate(distinct)}
        new = [order[k] for k in keys]
        # stable, or discrete: a further round would renumber nothing
        if len(distinct) in (count, n):
            return new
        colors = new
        count = len(distinct)


def _cells(colors):
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def canonical_search(adj, colors):
    """(form, order, generators) for the graph with adjacency list adj and
    refined colors colors (from _refine_colors(adj)).

    form is the canonical byte string.  Vertex order[i] gets label i in the
    canonical labeling.  generators are permutation tuples (vertex x maps to
    p[x]) that generate the automorphism group Aut(G).

    Why they generate Aut(G).  The leaves of the search tree are the
    cell-respecting vertex orders.  Colors are invariant, so automorphisms
    map leaves to leaves with the same row codes.  Two leaves with equal
    codes differ by exactly one automorphism, the one that maps the i-th
    vertex of the one to the i-th vertex of the other.  Let L* be the leaves
    whose codes equal the final best.  Then every automorphism is
    sigma_l: order[i] -> l[i] for exactly one l in L*.  The search records
    sigma_l for every l in L* it reaches, and every twin transposition (u v)
    it skips.  Prefix pruning cuts only subtrees that code above the best, so
    it loses no leaf of L*.  A skipped branch v is the (u v) image of the
    explored branch u at the same node, since (u v) is an automorphism that
    fixes every placed vertex.  So a leaf l in L* below a skipped branch is
    (u v)(l') for a leaf l' in L* whose first skipped branch lies deeper, if
    any.  By induction on that depth, l = h(l'') for a reached l'' and a
    product h of skipped transpositions, and then sigma_l = h sigma_l''.

    If every cell is one vertex, the color order is the only leaf, and no
    twin is skipped, so the search returns that leaf and no generator (Aut(G)
    is trivial); one loop builds them instead.
    """
    n = len(adj)
    if n == 0:
        return bytes([0]), (), []
    cells = _cells(colors)
    best = None  # per-position row codes of the least labeling found so far
    best_order = None
    leaf_auts = []  # sigma_l for the explored leaves coding equal to best
    twins = set()
    current = [0] * n
    placed = []

    # prefix_equal means current[0:pos] matches best's prefix, which licenses
    # pruning; best may improve mid-iteration, so completions re-compare in
    # full rather than trusting the flag
    def search(pos, cell_idx, cell_remaining, prefix_equal):
        nonlocal best, best_order, leaf_auts
        if pos == n:
            if best is None or current < best:
                best = current[:]
                best_order = placed[:]
                leaf_auts = []
            elif current == best:
                sigma = [0] * n
                for a, b in zip(best_order, placed):
                    sigma[a] = b
                leaf_auts.append(tuple(sigma))
            return
        if not cell_remaining:
            cell_idx += 1
            cell_remaining = cells[cell_idx]
        tried = []
        for v in cell_remaining:
            av = adj[v]
            skip = False
            for u in tried:
                uv = (1 << u) | (1 << v)
                if adj[u] & ~uv == av & ~uv:
                    twins.add((u, v))  # (u v) transposition is an automorphism
                    skip = True
                    break
            if skip:
                continue
            tried.append(v)
            row = 0
            for w in placed:
                row = (row << 1) | (av >> w & 1)
            child_equal = prefix_equal
            if best is not None and prefix_equal:
                if row > best[pos]:
                    continue
                if row < best[pos]:
                    child_equal = False
            current[pos] = row
            placed.append(v)
            search(pos + 1, cell_idx,
                   [w for w in cell_remaining if w != v], child_equal)
            placed.pop()

    code = 0
    if len(cells) == n:
        best_order, generators = [x for x, in cells], []
        for pos, x in enumerate(best_order):
            for w in best_order[:pos]:
                code = (code << 1) | (adj[x] >> w & 1)
    else:
        search(0, 0, cells[0], True)
        generators = leaf_auts
        for u, v in sorted(twins):
            perm = list(range(n))
            perm[u], perm[v] = v, u
            generators.append(tuple(perm))
        for pos in range(n):
            code = (code << pos) | best[pos]
    # the rows' bits in order, each row's first-placed vertex first, packed
    # big-endian and zero-padded to whole bytes
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    form = bytes([n]) + (code << pad).to_bytes((nbits + pad) // 8, "big")
    return form, tuple(best_order), generators


def canonical_form(g):
    """Canonical byte string; equal strings iff isomorphic.  Guarded at n <= 12."""
    if g.n > EXPONENTIAL_GUARD:
        raise CapacityError(f"canonical_form guarded at n <= {EXPONENTIAL_GUARD}")
    return canonical_search(g.adj, _refine_colors(g.adj))[0]


def is_isomorphic(g, h):
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def decode_canonical_form(form):
    """Rebuild the concrete graph a canonical byte string encodes."""
    n = form[0]
    code = int.from_bytes(form[1:], "big")
    top = 8 * len(form) - 8  # bits left to read, the first one highest
    adj = [0] * n
    for pos in range(n):
        for j in range(pos):
            top -= 1
            if code >> top & 1:
                adj[pos] |= bit(j)
                adj[j] |= bit(pos)
    return Graph(n, adj)
