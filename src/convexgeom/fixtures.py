"""Named reference graphs with human-readable labels."""

from .errors import UsageError
from .graphs import Graph, bit, induced_subgraph

# 7-vertex chordal graph of diameter 3 whose deck under single-vertex deletion
# leaves diameter-4 remainders; labels are the customary "1".."7"
SEVEN_FIXTURE_LABELS = ("1", "2", "3", "4", "5", "6", "7")
SEVEN_FIXTURE = Graph.from_edge_list(7, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4),
                                         (2, 3), (3, 4), (3, 5), (4, 5), (4, 6),
                                         (5, 6)])

# gem: path a-b-c-d plus a vertex e adjacent to all of it
GEM_FIXTURE_LABELS = ("a", "b", "c", "d", "e")
GEM_FIXTURE = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3),
                                       (0, 4), (1, 4), (2, 4), (3, 4)])


def delete_vertex(g, v):
    """Induced subgraph on the other vertices; old labels shift down."""
    if not 0 <= v < g.n:
        raise UsageError(f"vertex {v} is not one of the {g.n} vertices")
    return induced_subgraph(g, g.vertex_set() & ~bit(v))[0]


FIXTURES = {
    "seven": (SEVEN_FIXTURE, SEVEN_FIXTURE_LABELS),
    "gem": (GEM_FIXTURE, GEM_FIXTURE_LABELS),
}
