"""Canonical forms for small graphs.

Two-stage scheme: iterative color refinement (degree, then multiset of
neighbor colors) splits vertices into order-invariant cells, then a pruned
search over cell-respecting permutations picks the lexicographically least
adjacency encoding.  Equal byte strings <=> isomorphic graphs.
"""

from .errors import CapacityError
from .graphs import EXPONENTIAL_GUARD, Graph, bit, iter_bits


def _refine_colors(g):
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        keys = []
        for v in range(g.n):
            nbr = sorted(colors[w] for w in iter_bits(g.adj[v]))
            keys.append((colors[v], tuple(nbr)))
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _cells(colors):
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def canonical_form(g):
    """Canonical byte string; equal strings iff isomorphic.  Guarded at n <= 12."""
    if g.n > EXPONENTIAL_GUARD:
        raise CapacityError(f"canonical_form guarded at n <= {EXPONENTIAL_GUARD}")
    n = g.n
    if n == 0:
        return bytes([0])
    cells = _cells(_refine_colors(g))
    adj = g.adj
    best = None  # per-position row codes of the least labeling found so far
    current = [0] * n

    # prefix_equal means current[0:pos] matches best's prefix, which licenses
    # pruning; best may improve mid-iteration, so completions re-compare in
    # full rather than trusting the flag
    def search(pos, cell_idx, cell_remaining, placed, prefix_equal):
        nonlocal best
        if pos == n:
            if best is None or current < best:
                best = current[:]
            return
        if not cell_remaining:
            cell_idx += 1
            cell_remaining = cells[cell_idx]
        tried = []
        for v in cell_remaining:
            bv = bit(v)
            skip = False
            for u in tried:
                bu = bit(u)
                if adj[u] & ~(bu | bv) == adj[v] & ~(bu | bv):
                    skip = True  # (u v) transposition is an automorphism
                    break
            if skip:
                continue
            tried.append(v)
            row = 0
            av = adj[v]
            for w in placed:
                row = (row << 1) | (1 if av & bit(w) else 0)
            child_equal = prefix_equal
            if best is not None and prefix_equal:
                if row > best[pos]:
                    continue
                if row < best[pos]:
                    child_equal = False
            current[pos] = row
            placed.append(v)
            search(pos + 1, cell_idx,
                   [w for w in cell_remaining if w != v],
                   placed, child_equal)
            placed.pop()

    search(0, 0, cells[0], [], True)
    out = bytearray([n])
    acc = 0
    nbits = 0
    for pos in range(n):
        for k in range(pos - 1, -1, -1):
            acc = (acc << 1) | ((best[pos] >> k) & 1)
            nbits += 1
            if nbits == 8:
                out.append(acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(acc << (8 - nbits))
    return bytes(out)


def is_isomorphic(g, h):
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def iso_invariant(g):
    """Cheap isomorphism-invariant prefilter key: (n, edges, degree multiset)."""
    return (g.n, g.edge_count(), tuple(sorted(g.degree(v) for v in range(g.n))))


def canonical_graph(g):
    """A concrete representative carrying the canonical labeling's adjacency."""
    return decode_canonical_form(canonical_form(g))


def decode_canonical_form(form):
    """Rebuild the concrete graph a canonical byte string encodes."""
    n = form[0]
    bits = []
    for b in form[1:]:
        for k in range(7, -1, -1):
            bits.append((b >> k) & 1)
    adj = [0] * n
    idx = 0
    for pos in range(n):
        for j in range(pos):
            if bits[idx]:
                adj[pos] |= bit(j)
                adj[j] |= bit(pos)
            idx += 1
    return Graph(n, adj)
