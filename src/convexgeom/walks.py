"""Per-convexity interval oracles.

Every path convexity gets I(u,v) = endpoints plus the union of qualifying
p-walk vertex sets.  The m3 intervals are read off the monophonic ones, and
the toll and weakly toll intervals are computed by polynomial
component-reachability decisions rather than walk search; the bounded walk
oracle that validates them lives with the test oracles in
tests/bruteforce.py and shares no code with them.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import UnsupportedOracleError, UsageError
from .graphs import Graph, bfs_layers, bit, component_of, iter_bits
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
            if self.k is None or self.k < 1:
                raise UsageError("lk convexity requires k >= 1")
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
    elif kind in _WALK_PAIR:
        pair = _WALK_PAIR[kind]
        for u in range(n):
            for v in range(u + 1, n):
                t[u * n + v] = t[v * n + u] = pair(g, u, v)
    return tuple(t)


def interval(g, spec, u, v):
    """I(u,v) as a bitmask; always contains the endpoints, I(u,u) = {u}."""
    if not 0 <= u < g.n or not 0 <= v < g.n:
        raise UsageError(f"vertex pair ({u},{v}) out of range")
    return interval_table(g, spec)[u * g.n + v]


# --- toll / weakly toll decisions --------------------------------------------
#
# With u,v nonadjacent put A = N(u)\N[v], B = N(v)\N[u], R = everything
# outside N[u] u N[v].  The positional constraints force a tolled walk to be
# u, a, (simple excursion in R), b, v with a in A u (N(u) n N(v) shortcut for
# length 2) appearing exactly once, so membership collapses to component
# reachability questions inside R.  Weakly toll walks may revisit their
# second and second-to-last vertices, which turns the same analysis into
# whole-component absorption.


def _toll_pair(g, u, v):
    if g.adj[u] & bit(v):
        return bit(u) | bit(v)
    au, av = g.adj[u], g.adj[v]
    common = au & av
    a_side = au & ~av & ~bit(v)
    b_side = av & ~au & ~bit(u)
    r = g.vertex_set() & ~(au | av | bit(u) | bit(v))
    res = bit(u) | bit(v) | common
    comps_a = {a: component_of(g, a, r | bit(a)) for a in iter_bits(a_side)}
    comps_b = {b: component_of(g, b, r | bit(b)) for b in iter_bits(b_side)}
    union_a = 0
    for a, ca in comps_a.items():
        union_a |= ca
        for b in iter_bits(b_side):
            if g.adj[b] & ca:
                res |= bit(a)
                break
    union_b = 0
    for b, cb in comps_b.items():
        union_b |= cb
        for a in iter_bits(a_side):
            if g.adj[a] & cb:
                res |= bit(b)
                break
    res |= r & union_a & union_b
    return res


def _weakly_toll_pair(g, u, v):
    if g.adj[u] & bit(v):
        return bit(u) | bit(v)
    au, av = g.adj[u], g.adj[v]
    common = au & av
    a_side = au & ~av & ~bit(v)
    b_side = av & ~au & ~bit(u)
    r = g.vertex_set() & ~(au | av | bit(u) | bit(v))
    res = bit(u) | bit(v)
    for c in iter_bits(common):
        res |= component_of(g, c, r | bit(c))
    for a in iter_bits(a_side):
        for b in iter_bits(b_side):
            comp = component_of(g, a, r | bit(a) | bit(b))
            if comp & bit(b):
                res |= comp
    return res


_WALK_PAIR = {"toll": _toll_pair, "weaklyToll": _weakly_toll_pair}
