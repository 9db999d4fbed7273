"""k-core extraction (Definition 2.4 of the paper).

The k-core of a graph is the maximal subgraph in which every vertex has
degree at least ``k``.  It is computed by iteratively deleting vertices whose
degree drops below ``k``; this runs in O(n + m) time.

The k-core is the machinery behind reduction rule **RR5** of the paper: with a
current best solution of size ``lb``, every vertex of a k-defective clique of
size > ``lb`` must have degree at least ``lb - k`` inside it, so restricting
the search to the ``(lb - k)``-core is safe.

The peel runs on adjacency rows (:data:`~repro.graphs.graph.Rows`):
:func:`core_reduce_in_place`, which the solver's preprocessing calls, takes
rows and deletes vertices from them in place, while :func:`k_core_vertices`
and :func:`k_core` take a :class:`~repro.graphs.graph.Graph` and peel a copy
of its rows.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from .graph import Graph, Rows, Vertex, rows_of

__all__ = ["k_core", "k_core_vertices", "core_reduce_in_place"]

#: Adjacency entries the peel walks between budget polls.
_BUDGET_STRIDE = 4096


def k_core_vertices(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> Set[Vertex]:
    """Return the vertex set of the k-core of ``graph``.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    k:
        Minimum degree requirement; ``k <= 0`` returns all vertices.
    budget_check:
        Optional callable polled every few thousand adjacency entries the
        peel walks; any exception it raises (e.g.
        :class:`~repro.exceptions.BudgetExceededError`) propagates.

    Returns
    -------
    set
        Vertices of the (possibly empty) k-core.
    """
    rows = {v: set(nbrs) for v, nbrs in rows_of(graph).items()}
    core_reduce_in_place(rows, k, budget_check=budget_check)
    return set(rows)


def k_core(graph: Graph, k: int) -> Graph:
    """Return the k-core of ``graph`` as a new (vertex-induced) graph."""
    return graph.subgraph(k_core_vertices(graph, k))


def core_reduce_in_place(
    rows: Rows,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> Set[Vertex]:
    """Reduce ``rows`` to their k-core in place, returning the removed vertices.

    This is the form used by the solver preprocessing (RR5).  The peel
    deletes each vertex as it goes, and an exception from ``budget_check``
    leaves the rows partly peeled, which is still safe: every vertex gone is
    outside the k-core.
    """
    removed: Set[Vertex] = set()
    if k <= 0:
        return removed
    # Each vertex is queued once: at the start if its degree is below k, or
    # when a deletion takes it from k to k - 1.
    queue: List[Vertex] = [v for v, nbrs in rows.items() if len(nbrs) < k]
    steps = 0
    while queue:
        v = queue.pop()
        nbrs = rows.pop(v)
        removed.add(v)
        for u in nbrs:
            row = rows[u]
            row.discard(v)
            if len(row) == k - 1:
                queue.append(u)
        if budget_check is not None:
            steps += len(nbrs)
            if steps >= _BUDGET_STRIDE:
                steps = 0
                budget_check()
    return removed
