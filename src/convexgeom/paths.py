"""Path intervals under chord rules, by backtracking over simple paths.

Chord rules are evaluated incrementally: a chord is inspected the moment its
later endpoint enters the path, so branches that can never qualify are cut
immediately.  Endpoint-dependent conditions (the even-chorded rule bans
chords at both ends) are applied when a path is read off at its current
endpoint, since extending the path can turn an endpoint into an interior
vertex and re-legalize it.

Modes:
  induced   no chords at all
  strong    no odd chord (odd positional distance > 1), no chord at either end
  triangle  chords only between vertices at positional distance exactly 2
"""

from .graphs import bit, iter_bits

MODES = ("induced", "strong", "triangle")


def _strong_extension_ok(path, w, chords):
    # path holds positions 0..i-1; w lands at position i
    if not chords:
        return True
    i = len(path)
    pos = {x: j for j, x in enumerate(path)}
    for x in iter_bits(chords):
        j = pos[x]
        if j == 0:
            return False          # chord at the start vertex never legalizes
        if (i - j) % 2 == 1:
            return False          # odd chord
    return True


def _triangle_extension_ok(path, chords):
    if not chords:
        return True
    i = len(path)
    allowed = bit(path[i - 2]) if i >= 2 else 0
    return chords & ~allowed == 0


def path_interval_rows(g, source, mode, min_len=0, max_len=None):
    """For one source, OR together the vertex masks of qualifying paths per
    endpoint; rows[w] covers all qualifying source-w paths.  The paths are
    never materialized."""
    if mode not in MODES:
        raise ValueError(f"unknown path mode {mode!r}")
    n = g.n
    rows = [0] * n
    if max_len is None:
        max_len = n - 1
    adj = g.adj
    path = [source]

    def extend(last, pmask, rest_allowed, depth):
        if depth >= max_len:
            return
        for w in iter_bits(adj[last] & rest_allowed):
            bw = bit(w)
            chords = adj[w] & pmask & ~bit(last)
            if mode == "induced":
                if chords:
                    continue
                qualifies = depth + 1 >= min_len
            elif mode == "strong":
                if not _strong_extension_ok(path, w, chords):
                    continue
                qualifies = chords == 0 and depth + 1 >= min_len
            else:
                if not _triangle_extension_ok(path, chords):
                    continue
                qualifies = depth + 1 >= min_len
            path.append(w)
            if qualifies:
                rows[w] |= pmask | bw
            extend(w, pmask | bw, rest_allowed & ~bw, depth + 1)
            path.pop()

    extend(source, bit(source), g.vertex_set() & ~bit(source), 0)
    return rows
