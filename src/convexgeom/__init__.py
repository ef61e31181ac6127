"""Graph convexity engine with exhaustive verification harness.

Graphs are immutable bitmask-adjacency structures; convexities are declared
via ConvexitySpec values; the engine computes intervals, hulls, convex sets,
extreme vertices, and convex-geometry verdicts; the harness machine-checks
the characterization registry over all small connected graphs.
"""

from .canon import canonical_form, is_isomorphic
from .engine import (GeometryReport, all_convex_sets, expand_once,
                     extreme_vertices, hull, is_convex, is_convex_geometry,
                     is_convex_geometry_mkm, satisfies_antiexchange)
from .enumeration import connected_graphs, connected_graphs_upto
from .errors import (CapacityError, Graph6ParseError, GraphInputError,
                     UnsupportedOracleError, UsageError)
from .fixtures import (FIXTURES, GEM_FIXTURE, GEM_FIXTURE_LABELS,
                       SEVEN_FIXTURE, SEVEN_FIXTURE_LABELS, delete_vertex)
from .graphs import (Graph, components, diameter, emit_edge_list,
                     emit_graph6, induced_subgraph, is_connected,
                     parse_edge_list, parse_graph6)
from .harness import (LEMMAS, THEOREMS, VerifyResult,
                      nonhereditary_fixture_check, read_certificates,
                      read_graph6_lines, resolve_lemma, resolve_theorem,
                      reverify_certificate, verify_lemma, verify_theorem,
                      write_certificates)
from .recognizers import (end_simplicial_vertices, find_asteroidal_triple,
                          recognize, semisimplicial_vertices, simple_vertices,
                          simplicial_vertices)
from .walks import (ConvexitySpec, f_free, geodetic, interval, interval_table,
                    lk, m3, monophonic, p3, p4plus, strong, toll,
                    triangle_path, weakly_toll)

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConvexitySpec", "FIXTURES", "GEM_FIXTURE",
    "GEM_FIXTURE_LABELS", "GeometryReport", "Graph", "Graph6ParseError",
    "GraphInputError", "LEMMAS", "SEVEN_FIXTURE", "SEVEN_FIXTURE_LABELS",
    "THEOREMS", "UnsupportedOracleError", "UsageError", "VerifyResult",
    "all_convex_sets", "canonical_form", "components", "connected_graphs",
    "connected_graphs_upto", "delete_vertex", "diameter", "emit_edge_list",
    "emit_graph6", "end_simplicial_vertices", "expand_once",
    "extreme_vertices", "f_free", "find_asteroidal_triple", "geodetic", "hull",
    "induced_subgraph", "interval", "interval_table", "is_connected",
    "is_convex", "is_convex_geometry", "is_convex_geometry_mkm",
    "is_isomorphic", "lk", "m3", "monophonic", "nonhereditary_fixture_check",
    "p3", "p4plus", "parse_edge_list", "parse_graph6", "read_certificates",
    "read_graph6_lines", "recognize", "resolve_lemma", "resolve_theorem",
    "reverify_certificate", "satisfies_antiexchange",
    "semisimplicial_vertices", "simple_vertices", "simplicial_vertices",
    "strong", "toll", "triangle_path", "verify_lemma", "verify_theorem",
    "weakly_toll", "write_certificates"
]
