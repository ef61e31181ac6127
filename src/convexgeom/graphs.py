"""Immutable small-graph representation over bitmask adjacency.

Vertices are 0..n-1 and every vertex set is an int bitmask, so set algebra
is single machine-word operations for the supported sizes (n <= 32).
"""

import math
from functools import lru_cache

from .errors import (CapacityError, Graph6ParseError, GraphInputError,
                     UsageError)

MAX_VERTICES = 32
EXPONENTIAL_GUARD = 12


def bit(i):
    return 1 << i


def _bit_tuples(width):
    """The set bit positions of every mask below 2^width, by doubling: the
    masks from 2^i up to 2^(i+1) are those below 2^i plus bit i."""
    table = [()]
    for i in range(width):
        table += [t + (i,) for t in table]
    return tuple(table)


# every vertex set of a graph within the subset-scan guard
_BITS = _bit_tuples(EXPONENTIAL_GUARD)


def iter_bits(mask):
    """Iterator over the set bit positions of mask in ascending order."""
    if 0 <= mask < len(_BITS):
        return iter(_BITS[mask])
    return _iter_bits_loop(mask)


def _iter_bits_loop(mask):
    """iter_bits above the table: split off the lowest set bit each time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def subset_bits(n):
    """Bitsets over the 2^n vertex subsets of an n-vertex graph, in which
    bit s stands for the subset s: up[m] has bit s set iff m lies inside s,
    for every mask m.  So up[0] has all 2^n bits set, and up[1 << y], the
    subsets holding y, repeats 2^y clear bits then 2^y set bits: up[0]
    divided by 2^(2^y) + 1 repeats them the other way round.  The table
    takes 2^(2n) bits, 2 MB at the guard n = 12, and is refused above it."""
    if n > EXPONENTIAL_GUARD:
        raise CapacityError(
            f"subset scan over {n} vertices exceeds the n <= {EXPONENTIAL_GUARD} guard")
    full = (1 << (1 << n)) - 1
    up = [full]
    for y in range(n):
        member = full // ((1 << (1 << y)) + 1) << (1 << y)
        up += [s & member for s in up]
    return tuple(up)


def vertices_of(mask):
    return tuple(iter_bits(mask))


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """Simple undirected graph; adjacency is a tuple of neighbor bitmasks.

    Values are immutable after construction and hashable, so graphs can be
    dictionary keys (the interval-table cache and the enumerator rely on it).
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n, adj):
        if not 0 <= n <= MAX_VERTICES:
            raise GraphInputError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        adj = tuple(adj)
        if len(adj) != n:
            raise GraphInputError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise GraphInputError(f"vertex {u} has out-of-range neighbors")
            if row & bit(u):
                raise GraphInputError(f"self-loop at vertex {u}")
        for u in range(n):
            for v in iter_bits(adj[u]):
                if not adj[v] & bit(u):
                    raise GraphInputError(f"adjacency not symmetric at {u},{v}")
        _fill(self, n, adj)

    @classmethod
    def _unchecked(cls, n, adj):
        """A graph on rows taken from a graph that was already validated: a
        tuple of n symmetric, loop-free masks within range(n).  Skips the
        checks of __init__, which dominate building small graphs."""
        g = object.__new__(cls)
        _fill(g, n, adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # rebuild through __init__, which the immutable __setattr__ allows
        return Graph, (self.n, self.adj)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges())})"

    @classmethod
    def from_edge_list(cls, n, edges):
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphInputError(f"self-loop {u}-{v} rejected")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge {u}-{v} out of range for n={n}")
            adj[u] |= bit(v)
            adj[v] |= bit(u)
        return cls(n, adj)

    def vertex_set(self):
        return (1 << self.n) - 1

    def has_edge(self, u, v):
        return bool(self.adj[u] & bit(v))

    def degree(self, u):
        return self.adj[u].bit_count()

    def edge_count(self):
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        for u in range(self.n):
            for v in iter_bits(self.adj[u]):
                if v > u:
                    yield (u, v)

    def with_new_vertex(self, neighbors_mask):
        """Graph on n+1 vertices; the new vertex n is wired to neighbors_mask."""
        adj = list(self.adj)
        for v in iter_bits(neighbors_mask):
            adj[v] |= bit(self.n)
        adj.append(neighbors_mask)
        return Graph(self.n + 1, adj)


def _fill(g, n, adj):
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    object.__setattr__(g, "_hash", hash((n, adj)))


def induced_subgraph(g, members):
    """Subgraph induced by the bitmask members, plus the old-vertex tuple.

    Result vertex i corresponds to mapping[i] in g; adjacency is inherited.
    """
    if members >> g.n:
        raise UsageError(f"vertex set {members:#x} is not a subset of the {g.n} vertices")
    mapping = vertices_of(members)
    index = {v: i for i, v in enumerate(mapping)}
    adj = [0] * len(mapping)
    for i, v in enumerate(mapping):
        for w in iter_bits(g.adj[v] & members):
            adj[i] |= bit(index[w])
    return Graph._unchecked(len(mapping), tuple(adj)), mapping


def bfs_layers(g, source):
    """The distance layers of a BFS from source, as masks: layer d holds the
    vertices at distance d, and together they cover source's component."""
    layers = []
    frontier = seen = bit(source)
    while frontier:
        layers.append(frontier)
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return layers


@lru_cache(maxsize=1 << 12)
def diameter(g):
    """Largest pairwise distance; math.inf when g is disconnected or empty.
    Cached per graph, since several class sides ask about the same graph."""
    if not is_connected(g):
        return math.inf
    return max(len(bfs_layers(g, u)) for u in range(g.n)) - 1


def component_of(g, v, allowed=None):
    """Bitmask of the component of v inside the induced subgraph on allowed."""
    if allowed is None:
        allowed = g.vertex_set()
    comp = bit(v) & allowed
    frontier = comp
    while frontier:
        nxt = 0
        for w in iter_bits(frontier):
            nxt |= g.adj[w]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


def components(g, allowed=None):
    """List of the component bitmasks of the induced subgraph on allowed
    (default: all of g), in ascending order of least vertex."""
    out = []
    remaining = g.vertex_set() if allowed is None else allowed
    while remaining:
        v = (remaining & -remaining).bit_length() - 1
        comp = component_of(g, v, remaining)
        out.append(comp)
        remaining &= ~comp
    return out


def is_connected(g):
    if g.n == 0:
        return False
    return component_of(g, 0) == g.vertex_set()


# --- graph6 codec -----------------------------------------------------------
#
# Layout per the standard definition: one size byte 63+n for n <= 62, then the
# upper triangle in column-major order ((0,1),(0,2),(1,2),(0,3),...) packed
# MSB-first into 6-bit groups, each group emitted as its value + 63.

_G6_HEADER = ">>graph6<<"


def emit_graph6(g):
    if g.n > 62:
        raise CapacityError("graph6 emitter supports n <= 62")
    out = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | (1 if g.adj[u] & bit(v) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return "".join(out)


def parse_graph6(text):
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 string")
    data = s.encode("ascii", errors="replace")
    for i, b in enumerate(data):
        if not 63 <= b <= 126:
            raise Graph6ParseError(f"byte {b!r} outside graph6 range 63..126", offset=i)
    if data[0] == 126:
        # long-form size prefix ('~' or '~~'); sizes there start at n=63,
        # beyond this library's 32-vertex universe
        raise Graph6ParseError("long-form graph6 size exceeds supported range", offset=0)
    n = data[0] - 63
    if n > MAX_VERTICES:
        raise Graph6ParseError(f"graph size {n} exceeds supported {MAX_VERTICES}", offset=0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - 1 < need:
        raise Graph6ParseError(
            f"truncated bit vector: need {need} bytes, got {len(data) - 1}",
            offset=len(data))
    if len(data) - 1 > need:
        raise Graph6ParseError("trailing bytes after bit vector", offset=1 + need)
    bits = 0
    for b in data[1:]:
        bits = (bits << 6) | (b - 63)
    pad = need * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", offset=len(data) - 1)
    bits >>= pad
    adj = [0] * n
    pos = nbits
    for v in range(1, n):
        for u in range(v):
            pos -= 1
            if bits & (1 << pos):
                adj[u] |= bit(v)
                adj[v] |= bit(u)
    return Graph(n, adj)


# --- edge-list text ---------------------------------------------------------
#
# First line "n m", then m lines "u v".  Endpoint tokens may be arbitrary
# labels; when every token is an integer in 0..n-1 the identity labeling is
# used, otherwise labels map to indices in order of first appearance.


def parse_edge_list(text):
    """Parse edge-list text; returns (Graph, labels) with labels[i] = vertex i's name."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphInputError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphInputError(f"header must be 'n m', got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphInputError("negative counts in header")
    body = lines[1:]
    if len(body) != m:
        raise GraphInputError(f"expected {m} edge lines, got {len(body)}")
    pairs = []
    for ln in body:
        toks = ln.split()
        if len(toks) != 2:
            raise GraphInputError(f"edge line must have two tokens, got {ln!r}")
        pairs.append((toks[0], toks[1]))

    def as_plain_index(tok):
        try:
            value = int(tok)
        except ValueError:
            return None
        return value if 0 <= value < n and tok == str(value) else None

    flat = [t for uv in pairs for t in uv]
    if all(as_plain_index(t) is not None for t in flat):
        labels = [str(i) for i in range(n)]
        index = {str(i): i for i in range(n)}
    else:
        labels = []
        index = {}
        for t in flat:
            if t not in index:
                if len(labels) == n:
                    raise GraphInputError(
                        f"more than {n} distinct labels (unexpected {t!r})")
                index[t] = len(labels)
                labels.append(t)
        # vertices never named in an edge still exist; give them fresh names
        k = 0
        while len(labels) < n:
            name = f"v{k}"
            k += 1
            if name not in index:
                index[name] = len(labels)
                labels.append(name)
    edges = [(index[u], index[v]) for u, v in pairs]
    for u, v in edges:
        if u == v:
            raise GraphInputError("self-loop rejected")
    return Graph.from_edge_list(n, edges), labels


def emit_edge_list(g, labels=None):
    if labels is None:
        labels = [str(i) for i in range(g.n)]
    lines = [f"{g.n} {g.edge_count()}"]
    for u, v in g.edges():
        lines.append(f"{labels[u]} {labels[v]}")
    return "\n".join(lines) + "\n"
