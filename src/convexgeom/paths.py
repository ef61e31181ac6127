"""Path intervals under chord rules, by a depth-first search over path states.

A row only needs the union of the vertex sets of the qualifying paths per
endpoint, so the search never lists paths.  Whether a path may grow by one
vertex w, and whether the longer path qualifies, depends only on a small
state.  Each search keeps a ban mask: the path plus the neighbours of every
path vertex a chord to the next vertex may not reach.  The candidates for w
are then the neighbours of the last vertex outside it.  Every qualifying
path is recorded; only the induced search takes a length cap (for lk).

Modes:
  induced   no chords at all.  State: (vertex mask, last vertex).  An
            induced path from the source is fixed by its vertex set and its
            endpoint, so no two paths share a state and no seen-set is kept.
            The length is popcount(mask) - 1, so the cap needs no state.
  strong    no odd chord (odd positional distance > 1), no chord at either
            end.  State: (the vertices whose positions have the parity of
            the last vertex's, the other vertices, last vertex).  A chord
            from w to the source, or to a vertex of the last vertex's parity
            (an odd chord), is never legalized later; a path is recorded
            only when w has no chord at all, since extending it can turn the
            endpoint into an interior vertex and re-legalize an even chord
            there.
  triangle  chords only between vertices at positional distance exactly 2.
            State: (vertex mask, second-last vertex, last vertex), since a
            chord from w may go only to the second-last vertex.
The strong and triangle searches merge the paths that reach one state
through a seen-set of states.  Only states on five or more vertices enter
it: with the source and the last two vertices fixed, a smaller state is
reached by one path only (for strong, the parity sets place the one
remaining interior vertex).
"""

from .graphs import iter_bits

MODES = ("induced", "strong", "triangle")


def _induced_rows(adj, source, max_len, rows):
    # ban = mask plus the neighbours of every path vertex but the last
    stack = [(1 << source, source, 1 << source)] if max_len > 0 else []
    while stack:
        mask, last, ban = stack.pop()
        grow = mask.bit_count() < max_len    # edges of each extension
        child_ban = ban | adj[last]
        for w in iter_bits(adj[last] & ~ban):
            m = mask | 1 << w
            rows[w] |= m
            if grow:
                stack.append((m, w, child_ban))


def _triangle_rows(adj, source, rows):
    # ban = mask plus the neighbours of every path vertex but the last two
    n = len(adj)
    seen = set()
    stack = [(1 << source, source, source, 1 << source)]
    while stack:
        mask, second, last, ban = stack.pop()
        merge = mask.bit_count() >= 4
        child_ban = ban if second == last else ban | adj[second]
        for w in iter_bits(adj[last] & ~ban):
            m = mask | 1 << w
            rows[w] |= m
            if merge:
                key = (m * n + last) * n + w
                if key in seen:
                    continue
                seen.add(key)
            stack.append((m, last, w, child_ban | 1 << w))


def _strong_rows(adj, source, rows):
    # same / other: the path vertices with the last vertex's parity and the
    # rest; near: the neighbours of same minus the last vertex; near_other:
    # the neighbours of other
    n = len(adj)
    seen = set()
    banned_by_source = adj[source]
    stack = [(1 << source, 0, source, 0, 0)]
    while stack:
        same, other, last, near, near_other = stack.pop()
        mask = same | other
        merge = mask.bit_count() >= 4
        ban = mask | near
        if last != source:
            ban |= banned_by_source
        lastbit = 1 << last
        child_near_other = near | adj[last]
        for w in iter_bits(adj[last] & ~ban):
            bw = 1 << w
            if adj[w] & mask == lastbit:
                rows[w] |= mask | bw
            child_same = other | bw
            if merge:
                key = ((child_same << n) | same) * n + w
                if key in seen:
                    continue
                seen.add(key)
            stack.append((child_same, same, w, near_other, child_near_other))


_SEARCH = {"strong": _strong_rows, "triangle": _triangle_rows}


def path_interval_rows(g, source, mode, max_len=None):
    """For one source, OR together the vertex masks of qualifying paths per
    endpoint: rows[w] covers every qualifying source-w path, in induced mode
    only those of at most max_len edges.  The paths are never materialized."""
    if mode not in MODES:
        raise ValueError(f"unknown path mode {mode!r}")
    rows = [0] * g.n
    if mode == "induced":
        _induced_rows(g.adj, source, g.n - 1 if max_len is None else max_len, rows)
    elif max_len is None:
        _SEARCH[mode](g.adj, source, rows)
    else:
        raise ValueError(f"{mode} paths take no length cap")
    return rows
