"""Acceptance suite.

One test per shipped acceptance criterion; criterion 1 is parametrized per
registered iff theorem so the verbose run reads as a checklist.  Everything
here re-derives its verdict from scratch (full enumeration up to the
registered bound), so the module takes a few minutes, dominated by the
exhaustive n=8 sweeps of criterion 1.
"""
import pytest

from bruteforce import bounded_walk_hits, default_walk_bound
from convexgeom.engine import extreme_vertices, hull, is_convex_geometry_mkm
from convexgeom.enumeration import CONNECTED_COUNTS, connected_graphs
from convexgeom.fixtures import GEM_FIXTURE, SEVEN_FIXTURE, delete_vertex
from convexgeom.graphs import bit, emit_graph6, parse_graph6
from convexgeom.harness import (LEMMAS, THEOREMS, certificate_lines,
                                read_certificates, reverify_certificate,
                                verify_lemma, verify_theorem,
                                write_certificates)
from convexgeom.walks import (geodetic, interval, interval_table, lk, m3,
                              monophonic, toll, triangle_path, weakly_toll)

from test_graphs import labeled_graphs

IFF_IDS = [i for i, e in THEOREMS.items() if e.direction == "iff"]

# C-PLANAR's closure reads the Kuratowski subdivisions as induced subgraphs,
# while planarity excludes them as arbitrary subgraphs, so at its bound the
# two sides split on exactly these six graphs (README, "Tests and
# acceptance"); any change in either direction fails the check
KNOWN_CERTIFICATES = {"C-PLANAR": ["EF~w", "EFzw", "E]~w", "Ejmw", "Er^w", "Es\\w"]}


@pytest.mark.parametrize("ident", IFF_IDS)
def test_criterion_1_iff_theorem_suite(ident):
    res = verify_theorem(ident)
    found = sorted(c["g6"] for c in res.certificates)
    want = sorted(KNOWN_CERTIFICATES.get(ident, []))
    assert found == want, (
        f"{ident}: {len(found)} certificate(s) at n<={res.n_max}: {found}")


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_criterion_2_lk_necessary_conditions(k):
    res = verify_theorem(f"T-LK-NEC-{k}")
    assert res.n_max == 7
    assert not res.certificates
    # onlyIf: every geometry is in the class, never the other way around
    assert res.geometries <= res.class_members


def test_criterion_3_seven_vertex_fixture():
    spec = lk(3)
    assert is_convex_geometry_mkm(SEVEN_FIXTURE, spec).verdict
    minus_2 = delete_vertex(SEVEN_FIXTURE, 1)
    minus_5 = delete_vertex(SEVEN_FIXTURE, 4)
    assert not is_convex_geometry_mkm(minus_2, spec).verdict
    assert not is_convex_geometry_mkm(minus_5, spec).verdict
    # in minus_2 the surviving labels 1 and 7 sit at indices 0 and 5
    ends = bit(0) | bit(5)
    assert extreme_vertices(minus_2, spec, minus_2.vertex_set()) == ends
    assert hull(minus_2, spec, ends) == ends


def test_criterion_4_gem_fixture():
    spec = geodetic()
    full = GEM_FIXTURE.vertex_set()
    tips = bit(0) | bit(3)
    assert extreme_vertices(GEM_FIXTURE, spec, full) == tips
    closure = hull(GEM_FIXTURE, spec, tips)
    assert closure == tips | bit(4)
    assert closure != full


def test_criterion_5_walk_oracle_equivalence():
    checks = (("toll", toll()), ("weaklyToll", weakly_toll()))

    def sweep(g, bound):
        for kind, spec in checks:
            for u in range(g.n):
                for v in range(g.n):
                    hits = bounded_walk_hits(g, kind, u, v, bound)
                    assert hits == interval(g, spec, u, v), (
                        emit_graph6(g), kind, u, v, bound)

    for n in range(1, 8):
        for g in connected_graphs(n):
            sweep(g, default_walk_bound(g))
    for n in range(1, 7):
        for g in connected_graphs(n):
            sweep(g, 3 * g.n)


def test_criterion_6_lemma_suite():
    for ident in LEMMAS:
        res = verify_lemma(ident)
        assert res.n_max >= 6
        assert not res.certificates, f"{ident}: {len(res.certificates)}"


# each convexity's intervals lie inside the next one's
INTERVAL_CHAINS = (
    (geodetic(), monophonic(), toll(), weakly_toll()),
    (m3(), monophonic(), triangle_path()),
    (lk(2), lk(3), lk(4), lk(5), monophonic()),
)


def assert_interval_chains(g):
    for chain in INTERVAL_CHAINS:
        for small, big in zip(chain, chain[1:]):
            for lo, hi in zip(interval_table(g, small), interval_table(g, big)):
                assert lo & ~hi == 0, (emit_graph6(g), small.name, big.name)


def test_criterion_7_interval_containment_chains():
    for n in range(1, 8):
        for g in connected_graphs(n):
            assert_interval_chains(g)


def test_criterion_8_enumerator_sanity():
    for n in range(1, 9):
        assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]
    for n in range(7):
        for g in labeled_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_criterion_9_harness_self_test(tmp_path):
    serial = verify_theorem("X-INV-T-MONO", n_max=4)
    assert serial.certificates
    path = tmp_path / "inverted.jsonl"
    write_certificates(path, serial.certificates)
    loaded = read_certificates(path)
    assert certificate_lines(loaded) == certificate_lines(serial.certificates)
    assert all(reverify_certificate(cert) for cert in loaded)
    parallel = verify_theorem("X-INV-T-MONO", n_max=4, jobs=2)
    assert certificate_lines(parallel.certificates) == certificate_lines(
        serial.certificates)
    assert parallel.summary() == serial.summary()
