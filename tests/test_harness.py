import concurrent.futures
import hashlib
import json
import os
import re

import pytest

from bruteforce import (end_simplicial_within, naive_cover,
                        naive_extremes_match, semisimplicial_within,
                        simple_within, simplicial_within)
from convexgeom import harness
from convexgeom.engine import (GeometryReport, is_convex_geometry,
                               is_convex_geometry_mkm,
                               vertex_set_is_hull_of_extremes)
from convexgeom.enumeration import connected_graphs_upto
from convexgeom.errors import CapacityError, Graph6ParseError, UsageError
from convexgeom.fixtures import SEVEN_FIXTURE
from convexgeom.graphs import EXPONENTIAL_GUARD, Graph, emit_graph6, parse_graph6
from convexgeom.patterns import path_graph
from convexgeom.recognizers import (end_simplicial_vertices, is_chordal,
                                    is_interval, is_proper_interval,
                                    is_strongly_chordal, semisimplicial_types,
                                    simple_types, simple_vertices,
                                    simplicial_types)
from convexgeom.walks import m3, monophonic, strong, toll, weakly_toll
from convexgeom.harness import (
    INVERTED_PREFIX,
    LEMMAS,
    THEOREMS,
    LemmaEntry,
    _check_cover,
    _end_simplicial_types,
    _extremes_match,
    _local,
    _odd_cycle_spec,
    certificate_lines,
    nonhereditary_fixture_check,
    read_certificates,
    read_graph6_lines,
    resolve_lemma,
    resolve_theorem,
    reverify_certificate,
    verify_lemma,
    verify_theorem,
    write_certificates,
)

IFF_IDS = ("T-MONO", "T-GEO", "T-STRONG", "T-M3", "T-TOLL", "T-WTOLL", "T-L2",
           "T-L3", "T-P3", "T-TRI", "T-FFREE", "C-BIP", "C-PLANAR", "C-P4PLUS")
ONLYIF_IDS = ("T-LK-NEC-2", "T-LK-NEC-3", "T-LK-NEC-4", "T-LK-NEC-5")

LEMMA_IDS = ("L-EXT-MONO", "L-EXT-M3", "L-SC-EXT", "L-SC-COVER",
             "L-TOLL-EXT-NEC", "L-TOLL-EXT-IFF", "L-TOLL-COVER",
             "L-WT-EXT-NEC", "L-WT-EXT-IFF", "L-WT-COVER",
             "L-HOWORKA", "L-MKM-AE")


def test_theorem_registry():
    assert set(THEOREMS) == set(IFF_IDS) | set(ONLYIF_IDS)
    for ident in IFF_IDS:
        assert THEOREMS[ident].direction == "iff"
    for ident in ONLYIF_IDS:
        assert THEOREMS[ident].direction == "onlyIf"
    expected_n = {"T-TOLL": 7, "T-WTOLL": 7, "T-FFREE": 6, "C-PLANAR": 6,
                  "T-LK-NEC-2": 7, "T-LK-NEC-3": 7, "T-LK-NEC-4": 7,
                  "T-LK-NEC-5": 7}
    for ident, entry in THEOREMS.items():
        assert entry.default_n_max == expected_n.get(ident, 8)
        assert entry.description


def test_lemma_registry():
    assert set(LEMMAS) == set(LEMMA_IDS)
    for ident, entry in LEMMAS.items():
        assert entry.default_n_max == (6 if ident == "L-MKM-AE" else 7)
        assert entry.description


def test_resolve_unknown_ids():
    with pytest.raises(ValueError):
        resolve_theorem("T-NOPE")
    with pytest.raises(ValueError):
        resolve_lemma("L-NOPE")


def test_small_theorem_counts():
    # geometry counts at n <= 5 pin down both sides of each equivalence; the
    # class sequences (chordal 24, ptolemaic 23, trees 8, stars 5, ...) match
    # the published counts for these families
    expected = {"T-MONO": 24, "T-GEO": 23, "T-STRONG": 24, "T-M3": 29,
                "T-TOLL": 24, "T-WTOLL": 18, "T-L2": 17, "T-L3": 23,
                "T-P3": 5, "T-TRI": 8, "T-FFREE": 7, "C-BIP": 11,
                "C-P4PLUS": 21}
    for ident, count in expected.items():
        result = verify_theorem(ident, n_max=5)
        assert result.graphs == 31
        assert result.certificates == []
        assert result.geometries == count
        assert result.class_members == count


def test_only_if_counts():
    expected = {"T-LK-NEC-2": (17, 18), "T-LK-NEC-3": (23, 23),
                "T-LK-NEC-4": (24, 24), "T-LK-NEC-5": (24, 24)}
    for ident, (geo, cls) in expected.items():
        result = verify_theorem(ident, n_max=5)
        assert result.certificates == []
        assert (result.geometries, result.class_members) == (geo, cls)
        # onlyIf tolerates class members that are not geometries
        assert result.geometries <= result.class_members


def test_summary_shape():
    result = verify_theorem("T-TRI", n_max=4)
    assert result.summary() == {"theorem": "T-TRI", "nMax": 4, "graphs": 10,
                                "geometries": 5, "classMembers": 5,
                                "certificates": 0}


def test_planarity_divergence_certificates():
    # the closure reading (no induced family member completes from inside the
    # set) and the subdivision reading of planarity agree through n = 5 and
    # split on exactly six 6-vertex graphs
    assert verify_theorem("C-PLANAR", n_max=5).certificates == []
    result = verify_theorem("C-PLANAR", n_max=6)
    certs = result.certificates
    assert len(certs) == 6
    assert {c["g6"] for c in certs} == {"EFzw", "EF~w", "E]~w", "Ejmw",
                                        "Er^w", "Es\\w"}
    for cert in certs:
        assert cert["geometry"] is True and cert["class"] is False
        assert reverify_certificate(cert)


def test_inverted_entry_self_test():
    result = verify_theorem(INVERTED_PREFIX + "T-MONO", n_max=4)
    assert result.graphs == 10
    assert len(result.certificates) == 10
    for cert in result.certificates:
        assert cert["theorem"] == "X-INV-T-MONO"
        assert reverify_certificate(cert)
    lines = certificate_lines(result.certificates)
    keys = [json.loads(line)["g6"] for line in lines]
    assert keys == sorted(keys)


def test_inverted_entry_counts_flip():
    base = verify_theorem("T-TRI", n_max=5)
    inv = verify_theorem(INVERTED_PREFIX + "T-TRI", n_max=5)
    assert inv.class_members == base.graphs - base.class_members
    assert inv.geometries == base.geometries


def test_parallel_matches_serial():
    for ident in ("T-MONO", INVERTED_PREFIX + "T-P3"):
        serial = verify_theorem(ident, n_max=5, jobs=1)
        for jobs in (2, 3):
            parallel = verify_theorem(ident, n_max=5, jobs=jobs)
            assert parallel.summary() == serial.summary()
            assert certificate_lines(parallel.certificates) == \
                certificate_lines(serial.certificates)


def test_odd_cycle_spec_built_once_per_order():
    assert _odd_cycle_spec(2) is None
    spec = _odd_cycle_spec(8)
    assert spec is _odd_cycle_spec(8)
    assert [h.n for h in spec.family] == [3, 5, 7]


def test_explicit_graph_list():
    graphs = connected_graphs_upto(3)
    result = verify_theorem("T-MONO", graphs=graphs)
    assert result.graphs == 4 and result.n_max == 3
    assert result.geometries == 4 and result.certificates == []


def test_empty_graph_list_rejected():
    # a sweep over no graph must not read as a verified statement
    for graphs in ([], iter(())):
        with pytest.raises(ValueError, match="no graphs"):
            verify_theorem("T-P3", graphs=graphs)
        with pytest.raises(ValueError, match="no graphs"):
            verify_lemma("L-HOWORKA", graphs=graphs)


def test_non_int_n_max_rejected():
    # a float bound used to reach range() inside the enumerator
    for n_max in (3.5, "3", True):
        with pytest.raises(UsageError, match="n_max must be an int"):
            verify_theorem("T-P3", n_max=n_max)
        with pytest.raises(UsageError, match="n_max must be an int"):
            verify_lemma("L-HOWORKA", n_max=n_max, graphs=connected_graphs_upto(3))


def test_non_int_jobs_rejected():
    # a float jobs used to reach the chunk slicing as a bare TypeError
    for jobs in (1.5, "2", True):
        with pytest.raises(UsageError, match="jobs must be an int"):
            verify_theorem("T-P3", n_max=3, jobs=jobs)
        with pytest.raises(UsageError, match="jobs must be an int"):
            verify_lemma("L-HOWORKA", n_max=3, jobs=jobs)


def test_graph_above_n_max_rejected():
    # the summary reports n_max, so it must bound every swept graph
    graphs = connected_graphs_upto(4) + [path_graph(8), path_graph(6)]
    big = emit_graph6(path_graph(8))
    with pytest.raises(ValueError, match=f"graph {re.escape(big)} has 8 vertices"):
        verify_theorem("T-MONO", n_max=4, graphs=graphs)
    with pytest.raises(ValueError, match="more than n_max = 7"):
        verify_lemma("L-HOWORKA", n_max=7, graphs=graphs)
    assert verify_theorem("T-MONO", n_max=8, graphs=graphs).graphs == 12
    assert verify_theorem("T-MONO", graphs=graphs).n_max == 8


def test_certificate_lines_deterministic():
    a = verify_theorem(INVERTED_PREFIX + "T-TRI", n_max=4)
    b = verify_theorem(INVERTED_PREFIX + "T-TRI", n_max=4)
    assert certificate_lines(a.certificates) == certificate_lines(b.certificates)
    for line in certificate_lines(a.certificates):
        cert = json.loads(line)
        assert set(cert) == {"g6", "theorem", "geometry", "class", "witness"}


def test_certificate_round_trip(tmp_path):
    result = verify_theorem(INVERTED_PREFIX + "T-MONO", n_max=4)
    path = tmp_path / "certs.jsonl"
    write_certificates(path, result.certificates)
    back = read_certificates(path)
    assert back == sorted(result.certificates, key=lambda c: (c["g6"], c["theorem"]))
    assert path.read_text().splitlines() == certificate_lines(result.certificates)
    for cert in back:
        assert reverify_certificate(cert)


def test_reverify_rejects_tampering():
    result = verify_theorem(INVERTED_PREFIX + "T-MONO", n_max=4)
    cert = dict(result.certificates[0])
    cert["geometry"] = not cert["geometry"]
    assert not reverify_certificate(cert)


def test_read_graph6_lines(tmp_path):
    graphs = connected_graphs_upto(4)
    path = tmp_path / "graphs.g6"
    path.write_text("\n".join(emit_graph6(g) for g in graphs) + "\n\n")
    back = read_graph6_lines(path)
    assert back == graphs
    # a malformed line is named by path and line, with its byte offset kept
    path.write_text("Bw\n\nBw?!\n")
    with pytest.raises(Graph6ParseError) as err:
        read_graph6_lines(path)
    assert str(err.value).startswith(f"{path}:3: byte 33 ")
    assert err.value.offset == 3


def test_lemmas_hold_at_small_sizes():
    domain_at_4 = {"L-EXT-MONO": 10, "L-EXT-M3": 10, "L-SC-EXT": 9,
                   "L-SC-COVER": 9, "L-TOLL-EXT-NEC": 10, "L-TOLL-EXT-IFF": 9,
                   "L-TOLL-COVER": 9, "L-WT-EXT-NEC": 10, "L-WT-EXT-IFF": 8,
                   "L-WT-COVER": 8, "L-HOWORKA": 9, "L-MKM-AE": 10}
    for ident in LEMMA_IDS:
        result = verify_lemma(ident, n_max=4)
        assert result.certificates == []
        assert result.class_members == domain_at_4[ident]
        assert result.geometries == result.class_members


def test_lemma_reverify_branch():
    result = verify_lemma("L-HOWORKA", n_max=5)
    assert result.class_members == 23 and result.certificates == []
    # hand-built lemma certificates exercise the reverify dispatch: the stored
    # verdicts must match a fresh evaluation of domain membership and outcome
    g6 = emit_graph6(Graph.from_edge_list(3, [(0, 1), (1, 2)]))
    good = {"g6": g6, "theorem": "L-HOWORKA", "geometry": True, "class": True,
            "witness": {}}
    assert reverify_certificate(good)
    bad = dict(good, geometry=False)
    assert not reverify_certificate(bad)


def test_reverify_rejects_inverted_lemma_ids():
    # X-INV- negates a theorem's class side; lemmas have no inverted form, so
    # a certificate naming one must not be judged against the plain lemma
    with pytest.raises(ValueError):
        verify_lemma(INVERTED_PREFIX + "L-HOWORKA", n_max=3)
    g6 = emit_graph6(Graph.from_edge_list(3, [(0, 1), (1, 2)]))
    cert = {"g6": g6, "theorem": INVERTED_PREFIX + "L-HOWORKA",
            "geometry": True, "class": True, "witness": {}}
    with pytest.raises(ValueError):
        reverify_certificate(cert)


def test_failing_lemma_certificates(monkeypatch):
    # a lemma that fails on every chordal graph with four vertices: of the 10
    # connected graphs up to n = 4, 9 are chordal (all but C4), 4 of them are
    # smaller than four vertices
    entry = LemmaEntry("L-FAILS", 4, is_chordal,
                       lambda g: (g.n < 4, {"order": g.n}),
                       "fails on four-vertex chordal graphs")
    monkeypatch.setitem(LEMMAS, entry.ident, entry)
    result = verify_lemma("L-FAILS")
    assert result.summary() == {"theorem": "L-FAILS", "nMax": 4, "graphs": 10,
                                "geometries": 4, "classMembers": 9,
                                "certificates": 5}
    for cert in result.certificates:
        assert parse_graph6(cert["g6"]).n == 4
        assert cert["theorem"] == "L-FAILS"
        assert cert["geometry"] is False and cert["class"] is True
        assert cert["witness"] == {"order": 4}
        assert reverify_certificate(cert)
        assert not reverify_certificate(dict(cert, geometry=True))
    with pytest.raises(ValueError):
        verify_theorem("L-FAILS", n_max=4)


def test_cover_check_matches_pairwise_loop():
    # the three cover lemmas in their domains, and the strong one on every
    # graph: outside the strongly chordal graphs it reaches the failure
    # branch and its witness
    covers = ((strong(), simple_vertices, is_strongly_chordal),
              (toll(), end_simplicial_vertices, is_interval),
              (weakly_toll(), end_simplicial_vertices, is_proper_interval))
    failures = in_domain = 0
    for g in connected_graphs_upto(7):
        for spec, anchors_fn, domain in covers:
            if spec != strong() and not domain(g):
                continue
            got = _check_cover(g, spec, anchors_fn)
            assert got == naive_cover(g, spec, anchors_fn), (emit_graph6(g), spec)
            failures += not got[0]
            in_domain += domain(g)
            assert got[0] or not domain(g)
    assert (failures, in_domain) == (630, 794)


def test_extremes_match_matches_per_set_scan():
    # every (convexity, local type) pairing, the lemmas' own and the
    # mismatched ones, so that failing checks compare their witnesses too;
    # end simplicial types only on interval graphs, where they are defined
    local = ((simplicial_types, simplicial_within),
             (semisimplicial_types, semisimplicial_within),
             (simple_types, simple_within))
    failures = 0
    for g in connected_graphs_upto(6):
        for spec in (monophonic(), m3(), strong(), toll(), weakly_toll()):
            for types, within in local:
                for exact in (True, False):
                    got = _extremes_match(g, spec, _local(types), exact)
                    assert got == naive_extremes_match(g, spec, within, exact), \
                        (emit_graph6(g), spec.name, types.__name__, exact)
                    failures += not got[0]
            if spec in (toll(), weakly_toll()) and is_interval(g):
                got = _extremes_match(g, spec, _end_simplicial_types)
                assert got == naive_extremes_match(g, spec, end_simplicial_within), \
                    (emit_graph6(g), spec.name)
                failures += not got[0]
    assert failures > 0


def test_fixture_sensitivity():
    assert nonhereditary_fixture_check()
    assert nonhereditary_fixture_check(SEVEN_FIXTURE)
    edges = list(SEVEN_FIXTURE.edges()) + [(0, 3)]
    assert not nonhereditary_fixture_check(Graph.from_edge_list(7, edges))


def test_theorem_certificate_graphs_parse():
    result = verify_theorem(INVERTED_PREFIX + "T-GEO", n_max=4)
    for cert in result.certificates:
        g = parse_graph6(cert["g6"])
        assert 1 <= g.n <= 4
        assert set(cert["witness"]) == {"verdict", "mode", "violating_set",
                                        "extremes", "hull_of_extremes",
                                        "antiexchange_witness"}


def _full_scan_evaluate(entry, g):
    """TheoremEntry.evaluate without the whole-set test: the full MKM scan
    on every graph."""
    spec = entry.spec_for(g.n)
    report = GeometryReport(True, "mkm") if spec is None else is_convex_geometry_mkm(g, spec)
    geo = report.verdict
    cls = bool(entry.class_check(g))
    violated = (geo != cls) if entry.direction == "iff" else (geo and not cls)
    return geo, cls, report.to_dict() if violated else None


def test_evaluate_matches_full_scan():
    graphs = connected_graphs_upto(6)
    for ident in THEOREMS:
        for entry in (resolve_theorem(ident), resolve_theorem(INVERTED_PREFIX + ident)):
            for g in graphs:
                assert entry.evaluate(g) == _full_scan_evaluate(entry, g), \
                    (entry.ident, emit_graph6(g))


def test_evaluate_scans_only_where_a_certificate_can_follow(monkeypatch):
    # the bitset verdict runs only where the whole-set test cannot settle the
    # graph: an iff class member, or a graph whose vertex set is the hull of
    # its extremes; the MKM scan runs only for the witness of a violated
    # statement whose verdict is False: an iff class member that is no
    # convex geometry
    decided = []
    scanned = []

    def verdict_spy(g, spec):
        decided.append(g)
        return is_convex_geometry(g, spec)

    def scan_spy(g, spec):
        scanned.append(g)
        return is_convex_geometry_mkm(g, spec)
    monkeypatch.setattr(harness, "is_convex_geometry", verdict_spy)
    monkeypatch.setattr(harness, "is_convex_geometry_mkm", scan_spy)
    prefiltered = skipped = scans = 0
    for ident in ("T-P3", INVERTED_PREFIX + "T-P3", "T-LK-NEC-3", "C-BIP"):
        entry = resolve_theorem(ident)
        for g in connected_graphs_upto(6):
            decided.clear()
            scanned.clear()
            _, cls, _ = entry.evaluate(g)
            spec = entry.spec_for(g.n)
            verdict = spec is not None and (
                (cls and entry.direction == "iff")
                or vertex_set_is_hull_of_extremes(g, spec))
            needed = (spec is not None and cls and entry.direction == "iff"
                      and not is_convex_geometry_mkm(g, spec).verdict)
            assert len(decided) == verdict, (ident, emit_graph6(g))
            assert len(scanned) == needed, (ident, emit_graph6(g))
            prefiltered += spec is not None and not verdict
            skipped += spec is not None and not needed
            scans += needed
    assert prefiltered > 0 and skipped > 0 and scans > 0


def test_evaluate_above_guard_still_refuses():
    # P13 fails the whole-set test and is no star forest, but the verdict
    # comes from the full scan, which refuses 13 vertices as it always has
    g = path_graph(EXPONENTIAL_GUARD + 1)
    entry = resolve_theorem("T-P3")
    assert not vertex_set_is_hull_of_extremes(g, entry.spec_for(g.n))
    with pytest.raises(CapacityError):
        entry.evaluate(g)


@pytest.mark.parametrize("ident", ["L-EXT-MONO", "L-EXT-M3", "L-SC-EXT",
                                   "L-TOLL-EXT-NEC", "L-TOLL-EXT-IFF",
                                   "L-WT-EXT-NEC", "L-WT-EXT-IFF"])
def test_extremes_lemmas_refuse_above_guard(ident):
    # P13 lies in every lemma's domain; the subset bitsets over 2^13 subsets
    # are refused before any type bitset is built
    with pytest.raises(CapacityError):
        harness.verify_lemma(ident, graphs=[path_graph(EXPONENTIAL_GUARD + 1)])


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool by an in-process stand-in; the list collects
    the max_workers of every pool the sweep asks for."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return sizes


def test_jobs_capped_at_cpu_count(monkeypatch, pool_sizes):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    theorem = verify_theorem(INVERTED_PREFIX + "T-MONO", n_max=5)
    lemma = verify_lemma("L-HOWORKA", n_max=5)
    for jobs in (2, 3, 1000):
        parallel = verify_theorem(INVERTED_PREFIX + "T-MONO", n_max=5, jobs=jobs)
        assert parallel.summary() == theorem.summary()
        assert certificate_lines(parallel.certificates) == \
            certificate_lines(theorem.certificates)
        assert verify_lemma("L-HOWORKA", n_max=5, jobs=jobs).summary() == lemma.summary()
    assert pool_sizes == [2] * 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    verify_theorem("T-MONO", n_max=5, jobs=4)
    assert pool_sizes == [2] * 6


def test_jobs_below_one_rejected(pool_sizes):
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            verify_theorem("T-MONO", n_max=3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            verify_lemma("L-HOWORKA", n_max=3, jobs=jobs)
    assert pool_sizes == []


# sha256 of every summary and certificate line of the 30 entries at
# min(bound, 7) and of the 18 X-INV- twins at n <= 5 (see
# test_registry_outputs_pinned); a perf change must leave it as it is
REGISTRY_DIGEST = "82c6ea1c524c2d6d012f0c4776c2dd4356b2fb513a0f7942b681e5e55f3069f0"


def test_registry_outputs_pinned():
    # one digest over every verdict count and witness the registry emits at
    # small bounds, so a change to any of them fails mechanically
    runs = [(verify_theorem, i, min(e.default_n_max, 7))
            for i, e in sorted(THEOREMS.items())]
    runs += [(verify_lemma, i, min(e.default_n_max, 7))
             for i, e in sorted(LEMMAS.items())]
    runs += [(verify_theorem, INVERTED_PREFIX + i, 5) for i in sorted(THEOREMS)]
    digest = hashlib.sha256()
    for verify, ident, n_max in runs:
        result = verify(ident, n_max=n_max)
        digest.update(json.dumps(result.summary(), sort_keys=True).encode() + b"\n")
        for line in certificate_lines(result.certificates):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == REGISTRY_DIGEST
