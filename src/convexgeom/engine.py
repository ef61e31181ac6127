"""Hull computation, convex-set enumeration, and the convex-geometry tests.

Everything here follows one expansion step E: S plus the intervals of its
pairs, or for the closure-rule convexities (fFree, p4plus), which have no
interval oracle, S plus whatever precomputed trigger rules S fires.  A hull
is the fixpoint reached by repeating E, and S is convex iff E(S) = S.

Every kind writes E as (trigger, added) rules: a closure rule, or a pair
{a, b} whose interval adds a vertex.  The single-set queries (hull,
is_convex, expand_once, extreme_vertices) and the whole-set test
vertex_set_is_hull_of_extremes fire those rules at any graph size.

Below n <= EXPONENTIAL_GUARD (12) one structure covers all 2^n subsets at
once: the subset bitsets (graphs.subset_bits), with one bit per subset.
convex_bits marks the convex sets with one AND-NOT per rule (all_convex_sets
lists them).  Convex sets are closed under intersection, so the hull of t
lies inside every convex superset of t and is the numerically least of
them: the lowest set bit of convex_bits & up[t].  The MKM and antiexchange
scans walk the convex sets in ascending bitmask order, so their witnesses
are deterministic for a fixed graph labeling; x is extreme in convex s iff
bit s - x is set too, and every hull they need is one AND and one
lowest-bit read.
Shifting the bitset by 2^x pairs every set with the set plus or minus x,
which gives the extreme vertices of every convex set (convex_extreme_bits)
and the verdict of is_convex_geometry without a loop over sets.  A graph
that fails the whole-set test is no convex geometry, which lets a sweep
that needs only the verdict skip the bitsets.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import UsageError
from .graphs import bit, is_connected, iter_bits, subset_bits, vertices_of
from .patterns import all_induced_occurrences, induced_cycles, induced_p4s
from .walks import CLOSURE_KINDS, interval_table


@lru_cache(maxsize=1 << 12)
def closure_rules(g, spec):
    """Merged (trigger_mask, added_mask) pairs; x joins S once some trigger
    lies inside S.  P4 rules come from induced_p4s; family members that are
    cycles share one induced_cycles pass, other members use the embedding
    search."""
    rules = {}

    def add_rule(trigger, x):
        rules[trigger] = rules.get(trigger, 0) | bit(x)

    if spec.kind == "p4plus":
        for a, b, c, d in induced_p4s(g):
            add_rule(bit(a) | bit(b) | bit(d), c)
            add_rule(bit(a) | bit(c) | bit(d), b)
    else:
        lengths = set()
        occurrences = []
        for h in spec.family:
            if _is_cycle(h):
                lengths.add(h.n)
            else:
                occurrences += all_induced_occurrences(g, h)
        if lengths:
            occurrences += [occ for occ in induced_cycles(g, min(lengths), max(lengths))
                            if occ.bit_count() in lengths]
        for occ in occurrences:
            for x in iter_bits(occ):
                add_rule(occ & ~bit(x), x)
    return tuple(sorted(rules.items()))


def _is_cycle(h):
    """Connected and 2-regular: the family members induced_cycles serves."""
    return (h.n >= 3 and all(h.degree(v) == 2 for v in range(h.n))
            and is_connected(h))


@lru_cache(maxsize=None)
def _pairs(n):
    """(mask of {a, b}, index of I(a, b) in an n-vertex interval table) for
    every pair a < b."""
    return tuple((1 << a | 1 << b, a * n + b)
                 for a in range(n) for b in range(a + 1, n))


def _rules(g, spec):
    """The expansion step as (trigger, added) pairs: the closure rules, or
    ({a, b}, I(a, b)) for every pair whose interval adds a vertex."""
    if spec.kind in CLOSURE_KINDS:
        return closure_rules(g, spec)
    t = interval_table(g, spec)
    return [(pair, t[i]) for pair, i in _pairs(g.n) if t[i] != pair]


@lru_cache(maxsize=4)
def convex_bits(g, spec):
    """The subset bitset of the convex sets: bit s is set iff E(s) = s.  A
    rule breaks every s that holds its trigger but not all it adds.  Cached,
    so the scans and the verdict on one (graph, spec) share one build.
    Refuses n above the guard, as subset_bits does."""
    up = subset_bits(g.n)
    broken = 0
    for trigger, added in _rules(g, spec):
        broken |= up[trigger] & ~up[trigger | added]
    return up[0] & ~broken


def convex_extreme_bits(g, conv):
    """ext[x] for every vertex x, given the convex-set bitset conv: bit s of
    ext[x] is set iff s is convex, x lies in s and s - x is convex."""
    up = subset_bits(g.n)
    return [conv & up[1 << x] & (conv << (1 << x)) for x in range(g.n)]


def is_convex_geometry(g, spec):
    """Whether g is a convex geometry under spec, by the one-point extension
    test: every convex set other than V grows by one vertex into a convex
    set (Edelman and Jamison, "The theory of convex geometries", Geom.
    Dedicata 19, 1985, Thm 2.1).  It agrees with is_convex_geometry_mkm and
    satisfies_antiexchange, which give witnesses.  Refuses n above the
    guard."""
    conv = convex_bits(g, spec)
    up = subset_bits(g.n)
    grows = 0
    for x in range(g.n):
        grows |= conv & ~up[1 << x] & (conv >> (1 << x))
    return conv & ~grows == 1 << ((1 << g.n) - 1)


def _least_convex_superset(conv, up, t):
    """hull(t) read off the convex-set bitset conv: the lowest set bit of
    conv & up[t], since the hull lies inside every convex superset of t."""
    above = conv & up[t]
    return (above & -above).bit_length() - 1


def _rule_step(rules):
    """S plus whatever the (trigger, added) rules inside S add."""
    def fire(s):
        out = s
        for trigger, added in rules:
            if trigger & ~s == 0:
                out |= added
        return out
    return fire


def _step(g, spec, s):
    """The expansion step as a mask -> mask function, after checking that s
    is a vertex set of g; the step itself checks nothing, so a fixpoint
    validates once."""
    if s < 0 or s & ~g.vertex_set():
        raise UsageError(f"vertex set {s:#x} is not a subset of the {g.n} vertices")
    return _rule_step(_rules(g, spec))


def _fixpoint(step, s):
    """Follow the expansion step from s until it stops growing."""
    while True:
        t = step(s)
        if t == s:
            return s
        s = t


def expand_once(g, spec, s):
    return _step(g, spec, s)(s)


def is_convex(g, spec, s):
    return _step(g, spec, s)(s) == s


def hull(g, spec, s):
    """Least fixpoint of the expansion step above s."""
    return _fixpoint(_step(g, spec, s), s)


def extreme_vertices(g, spec, s):
    """Vertices x of convex s with s minus x still convex; s must be convex."""
    step = _step(g, spec, s)
    if step(s) != s:
        raise UsageError("extreme_vertices requires a convex set")
    out = 0
    for x in iter_bits(s):
        if step(s ^ 1 << x) == s ^ 1 << x:
            out |= 1 << x
    return out


def all_convex_sets(g, spec):
    """All fixpoints of the expansion step, ascending by bitmask, read off
    convex_bits."""
    return list(iter_bits(convex_bits(g, spec)))


@dataclass(frozen=True)
class GeometryReport:
    """Outcome of a convex-geometry test with witness data on failure."""

    verdict: bool
    mode: str
    violating_set: int | None = None
    extremes: int | None = None
    hull_of_extremes: int | None = None
    antiexchange_witness: tuple | None = None

    def to_dict(self, labels=None):
        def names(mask):
            if mask is None:
                return None
            if labels is None:
                return list(vertices_of(mask))
            return [labels[v] for v in iter_bits(mask)]

        witness = None
        if self.antiexchange_witness is not None:
            s, x, y = self.antiexchange_witness
            witness = {"set": names(s),
                       "x": labels[x] if labels else x,
                       "y": labels[y] if labels else y}
        return {"verdict": self.verdict,
                "mode": self.mode,
                "violating_set": names(self.violating_set),
                "extremes": names(self.extremes),
                "hull_of_extremes": names(self.hull_of_extremes),
                "antiexchange_witness": witness}


def vertex_set_is_hull_of_extremes(g, spec):
    """Whether the whole vertex set V is the hull of its extreme vertices,
    without the subset bitsets, so at any graph size.  V is always convex,
    so False means g is no convex geometry (is_convex_geometry_mkm reports
    False on it, possibly for a smaller set first).  x is extreme in V iff
    V - x is convex, that is iff no rule whose trigger avoids x adds x."""
    rules = _rules(g, spec)
    inner = 0
    for trigger, added in rules:
        inner |= added & ~trigger
    full = g.vertex_set()
    return _fixpoint(_rule_step(rules), full & ~inner) == full


def is_convex_geometry_mkm(g, spec):
    """Every convex set must equal the hull of its extreme vertices; reports
    the first (ascending mask order) violating convex set otherwise."""
    conv = convex_bits(g, spec)
    up = subset_bits(g.n)
    for s in iter_bits(conv):
        ext = 0
        for x in iter_bits(s):
            if conv >> (s ^ 1 << x) & 1:
                ext |= 1 << x
        h = _least_convex_superset(conv, up, ext)
        if h != s:
            return GeometryReport(False, "mkm", violating_set=s,
                                  extremes=ext, hull_of_extremes=h)
    return GeometryReport(True, "mkm")


def satisfies_antiexchange(g, spec):
    """For convex S and distinct x,y outside S, x in H(S+y) and y in H(S+x)
    must not both hold; reports the first witness otherwise."""
    conv = convex_bits(g, spec)
    up = subset_bits(g.n)
    full = g.vertex_set()
    for s in iter_bits(conv):
        grown = [(x, bit(x), _least_convex_superset(conv, up, s | bit(x)))
                 for x in iter_bits(full & ~s)]
        for i, (x, bx, hx) in enumerate(grown):
            for y, by, hy in grown[i + 1:]:
                if hy & bx and hx & by:
                    return GeometryReport(False, "antiexchange",
                                          antiexchange_witness=(s, x, y))
    return GeometryReport(True, "antiexchange")
