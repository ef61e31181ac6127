"""Per-convexity interval oracles.

Every path convexity gets I(u,v) = endpoints plus the union of qualifying
p-walk vertex sets.  The m3 intervals are read off the monophonic ones, the
toll and weakly toll ones off the components of G - N[u] and G - N[v] (see
_sides) without walk search.  The bounded walk oracle that validates them
lives in tests/bruteforce.py and shares no code with them.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import UnsupportedOracleError, UsageError
from .graphs import Graph, bfs_layers, components, iter_bits
from .paths import path_interval_rows

INTERVAL_KINDS = frozenset(
    {"geodetic", "monophonic", "m3", "lk", "strong", "toll",
     "weaklyToll", "trianglePath", "p3"})
CLOSURE_KINDS = frozenset({"fFree", "p4plus"})
ALL_KINDS = INTERVAL_KINDS | CLOSURE_KINDS


@dataclass(frozen=True)
class ConvexitySpec:
    kind: str
    k: int | None = None
    family: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise UsageError(f"unknown convexity kind {self.kind!r}")
        if self.kind == "lk":
            if type(self.k) is not int or self.k < 1:
                raise UsageError(f"lk convexity requires an int k >= 1, got {self.k!r}")
        elif self.k is not None:
            raise UsageError(f"{self.kind} takes no k parameter")
        if self.kind == "fFree":
            if not self.family:
                raise UsageError("fFree requires a nonempty pattern family")
            for h in self.family:
                if not isinstance(h, Graph) or h.n < 2:
                    raise UsageError("fFree family members must be graphs on >= 2 vertices")
        elif self.family:
            raise UsageError(f"{self.kind} takes no pattern family")

    @property
    def name(self):
        if self.kind == "lk":
            return f"l{self.k}"
        return self.kind

    def has_interval_oracle(self):
        return self.kind in INTERVAL_KINDS


def geodetic():
    return ConvexitySpec("geodetic")


def monophonic():
    return ConvexitySpec("monophonic")


def m3():
    return ConvexitySpec("m3")


def lk(k):
    return ConvexitySpec("lk", k=k)


def strong():
    return ConvexitySpec("strong")


def toll():
    return ConvexitySpec("toll")


def weakly_toll():
    return ConvexitySpec("weaklyToll")


def triangle_path():
    return ConvexitySpec("trianglePath")


def p3():
    return ConvexitySpec("p3")


def f_free(family):
    return ConvexitySpec("fFree", family=tuple(family))


def p4plus():
    return ConvexitySpec("p4plus")


_PATH_MODE = {"monophonic": "induced", "lk": "induced", "strong": "strong",
              "trianglePath": "triangle"}


@lru_cache(maxsize=1 << 14)
def interval_table(g, spec):
    """Flat n*n tuple of interval masks for every ordered vertex pair."""
    if not spec.has_interval_oracle():
        raise UnsupportedOracleError(
            f"{spec.kind} is a closure-rule convexity with no interval oracle")
    n = g.n
    adj = g.adj
    kind = spec.kind
    if kind == "m3":
        # an inner vertex of an induced u-v path lies in N(u) & N(v) iff the
        # path has 2 edges (more give a chord): I_m3 = I_mono - N(u) & N(v)
        mono = interval_table(g, monophonic())
        return tuple(mono[i] & ~(adj[i // n] & adj[i % n]) for i in range(n * n))
    # every interval holds its endpoints; a p3 interval is exactly the
    # endpoints plus their common neighbors, so it is final after this pass
    t = [0] * (n * n)
    for u in range(n):
        bu = 1 << u
        common = adj[u] if kind == "p3" else 0
        t[u * n + u] = bu
        for v in range(u + 1, n):
            t[u * n + v] = t[v * n + u] = bu | 1 << v | (common & adj[v])
    if kind == "geodetic":
        # x lies on a u-v geodesic iff d(u,x) + d(x,v) = d(u,v)
        layers = [bfs_layers(g, u) for u in range(n)]
        for u in range(n):
            lu = layers[u]
            for d in range(1, len(lu)):
                for v in iter_bits(lu[d] & ~((2 << u) - 1)):
                    lv = layers[v]
                    m = 0
                    for k in range(d + 1):
                        m |= lu[k] & lv[d - k]
                    t[u * n + v] = t[v * n + u] = m
    elif kind in _PATH_MODE:
        # only rows v > u are read, so the last source has nothing to add
        for u in range(n - 1):
            rows = path_interval_rows(g, u, _PATH_MODE[kind], max_len=spec.k)
            for v in range(u + 1, n):
                if rows[v]:
                    t[u * n + v] |= rows[v]
                    t[v * n + u] = t[u * n + v]
    elif kind in ("toll", "weaklyToll"):
        # an adjacent pair has side 0 and keeps {u, v}
        side = [_sides(g, u, kind == "weaklyToll") for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                t[u * n + v] |= side[u][v] & side[v][u]
                t[v * n + u] = t[u * n + v]
    return tuple(t)


def interval(g, spec, u, v):
    """I(u,v) as a bitmask; always contains the endpoints, I(u,u) = {u}."""
    if not 0 <= u < g.n or not 0 <= v < g.n:
        raise UsageError(f"vertex pair ({u},{v}) out of range")
    return interval_table(g, spec)[u * g.n + v]


def _sides(g, u, weak):
    """side[v] for every v outside N[u], 0 on N[u]: N[K] for the component K
    of v in G - N[u], whose rim N(K) lies in N(u); with weak, also each other
    component K' of G - N[u] with N(K') & N(K) nonempty.  For nonadjacent
    u, v, side_u[v] & side_v[u] is I(u,v) - {u, v}.

    Toll (Alcón et al., "Toll convexity", European J. Combin. 46, 2015): x
    not in {u, v} is on a tolled u-v walk iff N[u] - x does not separate x
    from v, nor N[v] - x x from u; x != u reaches v in G - (N[u] - x) iff x
    is in N[K].  Weakly toll (Dourado, Gutierrez, Protti and Tondato, "Weakly
    toll convexity and proper interval graphs", 2022): x is on a weakly toll
    walk iff x reaches v in G - (N[u] - a) for some a in N(u), and likewise
    with u and v swapped.  =>: the walk's only vertex adjacent to u is its
    second vertex a; drop each a-u-a detour from the part after x.  <=: cut
    the x-v path at its first vertex b1 in N(v), the x-u path at its first
    a1 in N(u).  If a is on the cut x-v path, walk u, a, back along it to x,
    forward to b1, then v; likewise with u and v swapped.  Otherwise both
    cut paths avoid N[u] and N[v] but at their ends, and u, a1, (x-u path
    reversed), (x-v path), v is the walk.  Union over a: the weak side."""
    comps = components(g, g.vertex_set() & ~(g.adj[u] | 1 << u))
    closed = []
    for k in comps:
        nk = k
        for w in iter_bits(k):
            nk |= g.adj[w]
        closed.append(nk)
    side = [0] * g.n
    for k, nk in zip(comps, closed):
        if weak:
            # the sum of disjoint components; distinct N[K]s meet only in rims
            nk |= sum(k2 for k2, nk2 in zip(comps, closed) if nk2 & nk)
        for v in iter_bits(k):
            side[v] = nk
    return side
