"""Exhaustive machine verification of convexity/class characterizations.

Every registry entry binds a convexity to an independently computed fact: a
graph-class recognizer for theorem entries, or a structural per-graph claim
for lemma entries.  Verification walks all connected graphs up to a size
bound, evaluates both sides, and emits a certificate for each violation.
Certificate files are deterministic (JSONL, sorted by graph6 string) and can
be re-verified from scratch.
"""

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .engine import (GeometryReport, convex_bits, convex_extreme_bits,
                     expand_once, extreme_vertices, hull, is_convex_geometry,
                     is_convex_geometry_mkm, satisfies_antiexchange,
                     vertex_set_is_hull_of_extremes)
from .enumeration import connected_graphs_upto
from .errors import Graph6ParseError, UsageError
from .fixtures import SEVEN_FIXTURE, delete_vertex
from .graphs import (EXPONENTIAL_GUARD, bit, emit_graph6, induced_subgraph,
                     iter_bits, parse_graph6, vertices_of)
from .patterns import CLAW, K3, kuratowski_family, odd_cycle_family
from .recognizers import (diam_at_most, end_simplicial_vertices,
                          free_of_family, is_bipartite, is_chordal,
                          is_chordal_cograph, is_cograph, is_forest,
                          is_forest_of_stars, is_interval,
                          is_l3_characterization, is_planar_desk,
                          is_proper_interval, is_ptolemaic,
                          is_strongly_chordal, is_weakly_polarizable,
                          semisimplicial_types, simple_types,
                          simple_vertices, simplicial_types)
from .walks import (f_free, geodetic, interval_table, lk, m3, monophonic, p3,
                    p4plus, strong, toll, triangle_path, weakly_toll)

INVERTED_PREFIX = "X-INV-"


@dataclass(frozen=True)
class TheoremEntry:
    ident: str
    direction: str            # "iff" or "onlyIf"
    default_n_max: int
    spec_for: object          # n -> ConvexitySpec or None (None: no closure rules)
    class_check: object       # Graph -> bool
    description: str

    def evaluate(self, g):
        """(geometry verdict, class verdict, witness or None when the
        statement holds on g).

        A False geometry verdict violates nothing when g is outside the
        class or the direction is onlyIf, so then a graph whose vertex set
        is not the hull of its extremes is settled by that whole-set test;
        V is convex, so the MKM scan would report False too.  The verdict
        alone would give the same answer, but without this prefilter T-P3
        at n <= 8 took 0.133 s instead of 0.087 s (graphs enumerated
        beforehand, best of 5, 2-vCPU VM).  Otherwise the
        verdict is the one-point extension test of engine.is_convex_geometry
        (Edelman and Jamison, 1985), on the subset bitsets.  The MKM scan
        runs only to give the witness of a violated statement whose verdict
        is False; a True verdict's witness is the empty MKM report.  Above
        the guard the verdict refuses, as the scan always has."""
        spec = self.spec_for(g.n)
        cls = bool(self.class_check(g))
        if spec is None:
            geo = True
        elif ((not cls or self.direction == "onlyIf") and g.n <= EXPONENTIAL_GUARD
              and not vertex_set_is_hull_of_extremes(g, spec)):
            return False, cls, None
        else:
            geo = is_convex_geometry(g, spec)
        violated = (geo != cls) if self.direction == "iff" else (geo and not cls)
        if not violated:
            return geo, cls, None
        report = GeometryReport(True, "mkm") if geo else is_convex_geometry_mkm(g, spec)
        return geo, cls, report.to_dict()


@dataclass(frozen=True)
class LemmaEntry:
    ident: str
    default_n_max: int
    domain: object            # Graph -> bool
    check: object             # Graph -> (bool, witness dict or None)
    description: str

    def evaluate(self, g):
        """(in domain and holds, in domain, witness or None when it holds)."""
        if not self.domain(g):
            return False, False, None
        holds, witness = self.check(g)
        return holds, True, None if holds else witness or {}


@dataclass
class VerifyResult:
    ident: str
    n_max: int
    graphs: int
    geometries: int
    class_members: int
    certificates: list = field(default_factory=list)

    def summary(self):
        return {"theorem": self.ident, "nMax": self.n_max,
                "graphs": self.graphs, "geometries": self.geometries,
                "classMembers": self.class_members,
                "certificates": len(self.certificates)}


# --- theorem registry -----------------------------------------------------------


def _const(spec):
    return lambda n: spec


@lru_cache(maxsize=None)
def _odd_cycle_spec(n):
    family = tuple(odd_cycle_family(n))
    return f_free(family) if family else None


def _kuratowski_spec(n):
    family = kuratowski_family(n)
    return f_free(family) if family else None


def _lk_necessary(k, g):
    return is_chordal(g) and diam_at_most(g, k)


def _build_theorems():
    entries = [
        TheoremEntry("T-MONO", "iff", 8, _const(monophonic()), is_chordal,
                     "induced-path convex geometries are the chordal graphs"),
        TheoremEntry("T-GEO", "iff", 8, _const(geodetic()), is_ptolemaic,
                     "shortest-path convex geometries are the ptolemaic graphs"),
        TheoremEntry("T-STRONG", "iff", 8, _const(strong()), is_strongly_chordal,
                     "even-chorded-path convex geometries are the strongly chordal graphs"),
        TheoremEntry("T-M3", "iff", 8, _const(m3()), is_weakly_polarizable,
                     "long-induced-path convex geometries are the weakly polarizable graphs"),
        TheoremEntry("T-TOLL", "iff", 7, _const(toll()), is_interval,
                     "tolled-walk convex geometries are the interval graphs"),
        TheoremEntry("T-WTOLL", "iff", 7, _const(weakly_toll()), is_proper_interval,
                     "weakly-toll-walk convex geometries are the proper interval graphs"),
        TheoremEntry("T-L2", "iff", 8, _const(lk(2)), is_chordal_cograph,
                     "l2 convex geometries are the chordal cographs"),
        TheoremEntry("T-L3", "iff", 8, _const(lk(3)), is_l3_characterization,
                     "l3 convex geometries are chordal, diameter <= 3, with every "
                     "apex-path configuration solved"),
        TheoremEntry("T-P3", "iff", 8, _const(p3()), is_forest_of_stars,
                     "common-neighbor convex geometries are the star forests"),
        TheoremEntry("T-TRI", "iff", 8, _const(triangle_path()), is_forest,
                     "triangle-path convex geometries are the forests"),
        TheoremEntry("T-FFREE", "iff", 6, _const(f_free((K3, CLAW))),
                     partial(free_of_family, family=(K3, CLAW)),
                     "family-closure convex geometries are the graphs with no "
                     "family member induced (triangle/claw sample family)"),
        TheoremEntry("C-BIP", "iff", 8, _odd_cycle_spec, is_bipartite,
                     "odd-cycle-family convex geometries are the bipartite graphs"),
        TheoremEntry("C-PLANAR", "iff", 6, _kuratowski_spec, is_planar_desk,
                     "subdivision-family convex geometries versus planarity"),
        TheoremEntry("C-P4PLUS", "iff", 8, _const(p4plus()), is_cograph,
                     "four-vertex-path closure geometries are the cographs"),
    ]
    entries += [
        TheoremEntry(f"T-LK-NEC-{k}", "onlyIf", 7, _const(lk(k)),
                     partial(_lk_necessary, k),
                     f"l{k} convex geometries are chordal with diameter <= {k}")
        for k in (2, 3, 4, 5)
    ]
    return {e.ident: e for e in entries}


THEOREMS = _build_theorems()


def resolve_theorem(ident):
    """Look up a theorem entry; the X-INV- prefix negates the class side
    (harness self-test: violations must then appear and re-verify)."""
    if ident.startswith(INVERTED_PREFIX):
        base = resolve_theorem(ident[len(INVERTED_PREFIX):])
        return TheoremEntry(ident, base.direction, base.default_n_max,
                            base.spec_for,
                            lambda g: not base.class_check(g),
                            f"inverted self-test of {base.ident}")
    try:
        return THEOREMS[ident]
    except KeyError:
        raise UsageError(f"unknown theorem id {ident!r}") from None


# --- lemma registry ---------------------------------------------------------------


def _names(mask):
    return list(vertices_of(mask))


def _extremes_match(g, spec, types, exact=True):
    """Across every convex set S: extreme vertices equal (or lie within,
    when exact=False) the vertices of a type on G[S].  types(g, conv) gives
    the type as subset bitsets want[x] (bit s set iff x has the type in
    G[s]), right at least on the convex sets conv.  The witness is the first
    convex set, by ascending mask, where the two differ."""
    conv = convex_bits(g, spec)
    want = types(g, conv)
    ext = convex_extreme_bits(g, conv)
    bad = 0
    for e, t in zip(ext, want):
        bad |= e ^ t if exact else e & ~t
    bad &= conv
    if not bad:
        return True, None
    s = (bad & -bad).bit_length() - 1

    def at(bitsets):
        return [x for x, b in enumerate(bitsets) if b >> s & 1]
    return False, {"set": _names(s), "extremes": at(ext), "target": at(want)}


def _local(types):
    """A local vertex type for _extremes_match: its bitsets hold on every
    subset, so the convex sets are not needed."""
    return lambda g, _conv: types(g)


def _end_simplicial_types(g, conv):
    """End simplicial vertices as subset bitsets, filled on the convex sets
    conv only, from end_simplicial_vertices on G[S]: unlike the local
    types, they have no small forbidden sets."""
    out = [0] * g.n
    for s in iter_bits(conv):
        sub, mapping = induced_subgraph(g, s)
        for i in iter_bits(end_simplicial_vertices(sub)):
            out[mapping[i]] |= 1 << s
    return out


def _check_cover(g, spec, anchors_fn):
    """Every non-anchor vertex must lie in the interval of some anchor pair;
    the witness is the lowest vertex outside I(anchors)."""
    anchors = anchors_fn(g)
    missing = g.vertex_set() & ~expand_once(g, spec, anchors)
    if missing:
        return False, {"vertex": (missing & -missing).bit_length() - 1,
                       "anchors": _names(anchors)}
    return True, None


def _check_howorka(g):
    geo = interval_table(g, geodetic())
    mono = interval_table(g, monophonic())
    if geo != mono:
        for u in range(g.n):
            for v in range(g.n):
                if geo[u * g.n + v] != mono[u * g.n + v]:
                    return False, {"pair": [u, v],
                                   "geodetic": _names(geo[u * g.n + v]),
                                   "monophonic": _names(mono[u * g.n + v])}
    return True, None


def _mkm_ae_kinds(n):
    kinds = [geodetic(), monophonic(), m3(), lk(2), lk(3), strong(), toll(),
             weakly_toll(), triangle_path(), p3(), p4plus()]
    family = tuple(p for p in (K3, CLAW) if p.n <= n)
    if family:
        kinds.append(f_free(family))
    return kinds


def _check_mkm_ae(g):
    for spec in _mkm_ae_kinds(g.n):
        mkm = is_convex_geometry_mkm(g, spec)
        ae = satisfies_antiexchange(g, spec)
        if mkm.verdict != ae.verdict:
            return False, {"convexity": spec.name, "mkm": mkm.verdict,
                           "antiexchange": ae.verdict}
    return True, None


def _always(_g):
    return True


def _build_lemmas():
    entries = [
        LemmaEntry("L-EXT-MONO", 7, _always,
                   lambda g: _extremes_match(g, monophonic(), _local(simplicial_types)),
                   "extreme vertices of induced-path convex sets are the "
                   "simplicial vertices of the induced subgraph"),
        LemmaEntry("L-EXT-M3", 7, _always,
                   lambda g: _extremes_match(g, m3(), _local(semisimplicial_types)),
                   "extreme vertices of long-induced-path convex sets are the "
                   "semisimplicial vertices of the induced subgraph"),
        LemmaEntry("L-SC-EXT", 7, is_chordal,
                   lambda g: _extremes_match(g, strong(), _local(simple_types)),
                   "on chordal graphs, extreme vertices of even-chorded-path "
                   "convex sets are the simple vertices of the induced subgraph"),
        LemmaEntry("L-SC-COVER", 7, is_strongly_chordal,
                   lambda g: _check_cover(g, strong(), simple_vertices),
                   "on strongly chordal graphs, every nonsimple vertex lies on "
                   "an even-chorded path between two simple vertices"),
        LemmaEntry("L-TOLL-EXT-NEC", 7, _always,
                   lambda g: _extremes_match(g, toll(), _local(simplicial_types),
                                             exact=False),
                   "extreme vertices of tolled-walk convex sets are simplicial "
                   "in the induced subgraph"),
        LemmaEntry("L-TOLL-EXT-IFF", 7, is_interval,
                   lambda g: _extremes_match(g, toll(), _end_simplicial_types),
                   "on interval graphs, extreme vertices of tolled-walk convex "
                   "sets are the end simplicial vertices of the induced subgraph"),
        LemmaEntry("L-TOLL-COVER", 7, is_interval,
                   lambda g: _check_cover(g, toll(), end_simplicial_vertices),
                   "on interval graphs, every vertex that is not end simplicial "
                   "lies on a tolled walk between two end simplicial vertices"),
        LemmaEntry("L-WT-EXT-NEC", 7, _always,
                   lambda g: _extremes_match(g, weakly_toll(), _local(simplicial_types),
                                             exact=False),
                   "extreme vertices of weakly-toll-walk convex sets are "
                   "simplicial in the induced subgraph"),
        LemmaEntry("L-WT-EXT-IFF", 7, is_proper_interval,
                   lambda g: _extremes_match(g, weakly_toll(), _end_simplicial_types),
                   "on proper interval graphs, extreme vertices of weakly-toll "
                   "convex sets are the end simplicial vertices of the induced "
                   "subgraph"),
        LemmaEntry("L-WT-COVER", 7, is_proper_interval,
                   lambda g: _check_cover(g, weakly_toll(), end_simplicial_vertices),
                   "on proper interval graphs, every vertex that is not end "
                   "simplicial lies on a weakly toll walk between two end "
                   "simplicial vertices"),
        LemmaEntry("L-HOWORKA", 7, is_ptolemaic, _check_howorka,
                   "on ptolemaic graphs, shortest-path and induced-path "
                   "intervals coincide"),
        LemmaEntry("L-MKM-AE", 6, _always, _check_mkm_ae,
                   "the hull-of-extremes property and the antiexchange property "
                   "agree for every supported convexity"),
    ]
    return {e.ident: e for e in entries}


LEMMAS = _build_lemmas()


def resolve_lemma(ident):
    try:
        return LEMMAS[ident]
    except KeyError:
        raise UsageError(f"unknown lemma id {ident!r}") from None


# --- the sweep -------------------------------------------------------------------


def _resolve(ident):
    """A lemma entry by id, else a theorem entry (X-INV- prefix allowed)."""
    return LEMMAS[ident] if ident in LEMMAS else resolve_theorem(ident)


def _chunk(ident, graphs):
    """Evaluate one entry on a graph list: (geometries, class members,
    certificates).  Resolved by id so a process pool can ship it."""
    entry = _resolve(ident)
    geo_count = cls_count = 0
    certs = []
    for g in graphs:
        geo, cls, witness = entry.evaluate(g)
        geo_count += geo
        cls_count += cls
        if witness is not None:
            certs.append({"g6": emit_graph6(g), "theorem": ident,
                          "geometry": geo, "class": cls, "witness": witness})
    return geo_count, cls_count, certs


def _sweep(entry, n_max, jobs, graphs):
    """Sweep one entry; jobs > 1 splits the graphs over a process pool of at
    most os.cpu_count() workers.  The pool module, and multiprocessing with
    it, is imported only then, so a serial run does not pay for it."""
    if type(jobs) is not int:
        raise UsageError(f"jobs must be an int, got {jobs!r}")
    if jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    if n_max is not None and type(n_max) is not int:
        raise UsageError(f"n_max must be an int, got {n_max!r}")
    if n_max is not None and n_max < 1:
        raise UsageError(f"n_max must be at least 1, got {n_max}")
    if graphs is None:
        if n_max is None:
            n_max = entry.default_n_max
        graphs = connected_graphs_upto(n_max)
    else:
        graphs = list(graphs)
        if not graphs:
            raise UsageError("no graphs to sweep")
        if n_max is None:
            n_max = max(g.n for g in graphs)
        for g in graphs:
            if g.n > n_max:
                raise UsageError(f"graph {emit_graph6(g)} has {g.n} vertices, "
                                 f"more than n_max = {n_max}")
    result = VerifyResult(entry.ident, n_max, len(graphs), 0, 0)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and len(graphs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [graphs[i::workers] for i in range(workers) if graphs[i::workers]]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(partial(_chunk, entry.ident), chunks))
    else:
        parts = [_chunk(entry.ident, graphs)]
    for geo_count, cls_count, certs in parts:
        result.geometries += geo_count
        result.class_members += cls_count
        result.certificates.extend(certs)
    result.certificates.sort(key=lambda c: (c["g6"], c["theorem"]))
    return result


def verify_theorem(ident, n_max=None, jobs=1, graphs=None):
    """Check one theorem entry over all connected graphs up to n_max vertices
    (or an explicit graph list) and collect violation certificates."""
    return _sweep(resolve_theorem(ident), n_max, jobs, graphs)


def verify_lemma(ident, n_max=None, jobs=1, graphs=None):
    """Check one lemma entry over its domain; certificates mark violations."""
    return _sweep(resolve_lemma(ident), n_max, jobs, graphs)


# --- certificates on disk -----------------------------------------------------------


def certificate_lines(certs):
    ordered = sorted(certs, key=lambda c: (c["g6"], c["theorem"]))
    return [json.dumps(c, sort_keys=True, separators=(",", ":")) for c in ordered]


def write_certificates(path, certs):
    with open(path, "w", encoding="ascii") as fh:
        for line in certificate_lines(certs):
            fh.write(line + "\n")


def read_certificates(path):
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def reverify_certificate(cert):
    """Recompute both verdicts from the stored graph6 string."""
    g = parse_graph6(cert["g6"])
    geo, cls, _ = _resolve(cert["theorem"]).evaluate(g)
    return cert["geometry"] == geo and cert["class"] == cls


def read_graph6_lines(path):
    """External generator ingestion: one graph6 string per nonblank line.  A
    malformed line raises Graph6ParseError naming the path and the 1-based
    line number, and keeping the byte offset within the line."""
    graphs = []
    with open(path, encoding="ascii") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                graphs.append(parse_graph6(line))
            except Graph6ParseError as exc:
                located = Graph6ParseError(f"{path}:{number}: {exc}")
                located.offset = exc.offset
                raise located from exc
    return graphs


# --- fixture-sensitivity check ------------------------------------------------------


def nonhereditary_fixture_check(g=None):
    """The seven-vertex fixture is an l3 geometry while deleting either hub
    vertex (index 1 or 4) breaks the property; deleting index 1 leaves
    extremes {old 0, old 6} whose hull adds nothing.  True iff all facts hold
    for the supplied graph (default: the bundled fixture)."""
    g = SEVEN_FIXTURE if g is None else g
    spec = lk(3)
    facts = [is_convex_geometry_mkm(g, spec).verdict]
    for drop in (1, 4):
        rest = delete_vertex(g, drop)
        facts.append(not is_convex_geometry_mkm(rest, spec).verdict)
    rest = delete_vertex(g, 1)
    ends = bit(0) | bit(rest.n - 1)
    facts.append(extreme_vertices(rest, spec, rest.vertex_set()) == ends)
    facts.append(hull(rest, spec, ends) == ends)
    return all(facts)
