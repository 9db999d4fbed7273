"""Degeneracy ordering and core numbers (Definition 2.3 of the paper).

The peeling algorithm repeatedly removes a vertex of minimum degree from the
remaining graph and appends it to the ordering.  Using bucket queues this runs
in O(n + m) time.  The largest minimum degree seen at removal time is the
degeneracy :math:`\\delta(G)`, and the per-vertex value is its *core number*.

The peel reads adjacency rows (:data:`~repro.graphs.graph.Rows`), so it runs
unchanged on a :class:`~repro.graphs.graph.Graph`, on the integer rows of the
prepare pipeline and on the ego nets of Degen-opt.  Ties follow the rows'
iteration order: the vertex order of the dict, then each neighbour set's.
A removed vertex's degree is the sentinel -1: its stale bucket entries
never match it, and a live neighbour of the vertex being removed always
has degree at least 1, so one dict read tells both apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from .graph import Graph, Rows, Vertex, rows_of

__all__ = [
    "DegeneracyResult",
    "degeneracy_ordering",
    "core_numbers",
    "degeneracy",
]


@dataclass(frozen=True)
class DegeneracyResult:
    """Output of the peeling algorithm.

    Attributes
    ----------
    ordering:
        The degeneracy ordering ``(v_1, ..., v_n)``: each ``v_i`` has minimum
        degree in the subgraph induced by ``{v_i, ..., v_n}``.
    core_number:
        Mapping from vertex to its core number (the largest ``k`` such that
        the vertex belongs to the k-core).
    degeneracy:
        The degeneracy :math:`\\delta(G)`, i.e. the maximum core number
        (0 for an empty or edgeless graph).
    position:
        Mapping from vertex to its index in ``ordering``.
    """

    ordering: List[Vertex]
    core_number: Dict[Vertex, int]
    degeneracy: int
    position: Dict[Vertex, int] = field(default_factory=dict)

    def rank(self, vertex: Vertex) -> int:
        """Return the position of ``vertex`` in the degeneracy ordering."""
        return self.position[vertex]

    def higher_ranked_neighbors(self, graph: Graph, vertex: Vertex) -> List[Vertex]:
        """Return the neighbours of ``vertex`` that appear later in the ordering.

        This is the set :math:`N^+(u)` used by ``Degen-opt`` (Algorithm 4).
        """
        pos = self.position[vertex]
        return [u for u in graph.neighbors(vertex) if self.position[u] > pos]


def degeneracy_ordering(graph: Union[Graph, Rows]) -> DegeneracyResult:
    """Compute a degeneracy ordering with the bucket-based peeling algorithm.

    Runs in O(n + m) time.  Ties are broken by bucket insertion order, which
    makes the result deterministic for a fixed graph construction order.

    Parameters
    ----------
    graph:
        The input graph or its adjacency rows; neither is modified.

    Returns
    -------
    DegeneracyResult
        The ordering, per-vertex core numbers, and the degeneracy.
    """
    rows = rows_of(graph)
    n = len(rows)
    if n == 0:
        return DegeneracyResult(ordering=[], core_number={}, degeneracy=0, position={})

    degree: Dict[Vertex, int] = {v: len(nbrs) for v, nbrs in rows.items()}
    max_degree = max(degree.values())

    # Bucket queue: buckets[d] holds vertices believed to have degree d.
    # Entries may become stale when a neighbour removal lowers a vertex's
    # degree; stale entries are skipped when popped.
    buckets: List[List[Vertex]] = [[] for _ in range(max_degree + 1)]
    for v, d in degree.items():
        buckets[d].append(v)

    core_number: Dict[Vertex, int] = {}
    ordering: List[Vertex] = []
    degeneracy_value = 0
    d = 0

    while len(ordering) < n:
        while d <= max_degree and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if degree[v] != d:
            continue  # stale bucket entry, or v already removed

        degree[v] = -1
        if d > degeneracy_value:
            degeneracy_value = d
        core_number[v] = degeneracy_value
        ordering.append(v)

        for u in rows[v]:
            du = degree[u]
            if du > 0:
                du -= 1
                degree[u] = du
                buckets[du].append(u)
                if du < d:
                    d = du

    position = {v: i for i, v in enumerate(ordering)}
    return DegeneracyResult(
        ordering=ordering,
        core_number=core_number,
        degeneracy=degeneracy_value,
        position=position,
    )


def core_numbers(graph: Graph) -> Dict[Vertex, int]:
    """Return the core number of every vertex."""
    return degeneracy_ordering(graph).core_number


def degeneracy(graph: Graph) -> int:
    """Return the degeneracy :math:`\\delta(G)` of the graph."""
    return degeneracy_ordering(graph).degeneracy
