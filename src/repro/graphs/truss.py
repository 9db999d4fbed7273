"""k-truss extraction (Definition 2.5 of the paper).

The k-truss of a graph is the maximal subgraph in which every edge
participates in at least ``k - 2`` triangles.  It is an *edge-induced*
subgraph and is contained in the (k-1)-core.

The k-truss underlies reduction rule **RR6** of the paper: with a current best
solution of size ``lb``, every edge of a k-defective clique larger than ``lb``
must have at least ``lb - k - 1`` common neighbours inside it, so reducing the
input graph to its ``(lb - k + 1)``-truss is safe.

The peel runs in place on integer adjacency rows
(:data:`~repro.graphs.graph.Rows`) in two phases:

* **one bulk sweep** counts every edge's support (triangles through it) as
  the C-level ``len(rows[u] & rows[v])`` and deletes every edge it counts
  below ``k - 2``, a row's worth at a time, with no per-edge bookkeeping.
  Supports only fall as edges go, so none of those edges can be in the
  truss.  A vertex left with at most ``k - 2`` neighbours loses every edge
  without a count, since each of its edges lies in at most ``deg - 1 <
  k - 2`` triangles; the deletions cascade to neighbours that fall to that
  degree, drop their swept supports and mark them touched;
* **the queue peel** then handles only the survivors.  A survivor with an
  endpoint the sweep touched has its support counted again when it leaves
  the queue; any other survivor keeps its swept count, and each deletion
  decrements the supports of the edges it shared a triangle with.

Both phases are still O(δ(G) · m).  On sparse inputs the sweep removes
nearly every edge, so the peel, with its per-edge bookkeeping, sees only the
few that remain, and the cascade spares the sweep the counts of edges at
vertices whose degree has fallen to ``k - 2``.

Neither the order of deletions nor the cascade can change the result.  The
k-truss is unique, so any order of safe deletions ends at the same edge
set, and the removed count is the same.  Every deletion is a ``discard``,
which never resizes a set, so each surviving row keeps its table and
iterates its survivors in the order it iterated them before the peel; the
rows of emptied vertices are dropped in dict order.  That layout is what
the degeneracy order's ties, and so every prepared artifact and search
tree, depend on (``tests/test_kcore_truss.py`` checks it against a peel by
the definition).

:func:`truss_reduce_in_place`, which the solver's preprocessing calls,
takes rows; :func:`k_truss_edges` and :func:`k_truss` take a
:class:`~repro.graphs.graph.Graph`, relabel it and peel its integer rows.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from .graph import Graph, Rows, Vertex, rows_of

__all__ = ["k_truss", "k_truss_edges", "truss_reduce_in_place"]

#: Adjacency entries swept, or edges peeled, between budget polls.
_BUDGET_STRIDE = 4096


def k_truss_edges(
    graph: Graph,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> Set[Tuple[Vertex, Vertex]]:
    """Return the edges of the k-truss of ``graph``.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    k:
        Truss parameter; every surviving edge lies in at least ``k - 2``
        triangles of the surviving subgraph.  ``k <= 2`` keeps all edges.
    budget_check:
        Optional callable polled every few thousand steps of the support
        sweep and the peel; any exception it raises propagates.

    Returns
    -------
    set of (u, v) tuples
        The surviving edges, in the orientation reported by
        :meth:`Graph.iter_edges` on the input graph.
    """
    # relabel() numbers vertices in iteration order, so u < v below is the
    # orientation iter_edges() reports, and its rows are ours to peel.
    relabeled, _, to_label = graph.relabel()
    rows = rows_of(relabeled)
    truss_reduce_in_place(rows, k, budget_check=budget_check)
    return {(to_label[u], to_label[v]) for u, nbrs in rows.items() for v in nbrs if u < v}


def k_truss(graph: Graph, k: int) -> Graph:
    """Return the k-truss of ``graph`` as a new graph.

    Vertices left isolated by the edge removals are dropped, matching the
    convention that the k-truss is an edge-induced subgraph.
    """
    return Graph(edges=k_truss_edges(graph, k))


def truss_reduce_in_place(
    rows: Rows,
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> int:
    """Reduce integer ``rows`` to their k-truss in place; return the number of removed edges.

    Vertices that lose all incident edges are removed as well (they cannot be
    part of any solution larger than the current lower bound when RR6
    applies, because RR5 is always applied alongside).

    An exception from ``budget_check`` leaves the rows partly peeled, which
    is still safe: every edge gone is outside the truss.
    """
    removed = 0
    if k > 2:
        support, touched, removed = _sweep(rows, k - 2, budget_check)
        removed += _peel(rows, k - 2, support, touched, budget_check)
    for v in [v for v, nbrs in rows.items() if not nbrs]:
        del rows[v]
    return removed


def _sweep(
    rows: Rows, threshold: int, budget_check: Optional[Callable[[], None]]
) -> Tuple[Dict[Tuple[int, int], int], Set[int], int]:
    """The bulk sweep: delete every edge counted below ``threshold``.

    Each edge is counted once, as ``(u, v)`` with ``u < v``.  A row's low
    edges go as soon as the row is done; later counts see them gone, which
    can only lower them, so an edge counted below the threshold is never in
    the truss.  A vertex left with at most ``threshold`` neighbours loses
    every edge uncounted (see :func:`_cascade`).  Deletion is by discard
    only: it never resizes a set, so the rows keep the iteration order the
    degeneracy order's ties depend on.

    Returns the swept supports of the surviving edges, the vertices that
    lost an edge, and the number of edges deleted.
    """
    support: Dict[Tuple[int, int], int] = {}
    touched: Set[int] = set()
    removed = 0
    steps = 0
    for u, row in rows.items():
        if len(row) <= threshold:
            if row:
                removed += _cascade(rows, threshold, u, support, touched)
            continue
        steps += len(row)
        low: List[int] = []
        for v in row:
            if v > u:
                s = len(row & rows[v])
                if s < threshold:
                    low.append(v)
                else:
                    support[(u, v)] = s
        if low:
            touched.add(u)
            touched.update(low)
            removed += len(low)
            for v in low:
                row.discard(v)
                rows[v].discard(u)
            for w in (u, *low):
                if 0 < len(rows[w]) <= threshold:
                    removed += _cascade(rows, threshold, w, support, touched)
        if budget_check is not None and steps >= _BUDGET_STRIDE:
            steps = 0
            budget_check()
    return support, touched, removed


def _cascade(
    rows: Rows,
    threshold: int,
    start: int,
    support: Dict[Tuple[int, int], int],
    touched: Set[int],
) -> int:
    """Delete every edge at ``start``, which has at most ``threshold`` neighbours.

    An edge at a vertex of degree d lies in at most d - 1 triangles, fewer
    than ``threshold``, so it is outside the truss without being counted.
    A neighbour that falls to ``threshold`` neighbours goes the same way.
    Each deleted edge's swept support is dropped and each neighbour that
    lost an edge is marked touched.  Returns the number of edges deleted.
    """
    removed = 0
    stack = [start]
    while stack:
        w = stack.pop()
        row_w = rows[w]
        nbrs = list(row_w)
        removed += len(nbrs)
        touched.update(nbrs)
        for x in nbrs:
            row_w.discard(x)
            row_x = rows[x]
            row_x.discard(w)
            support.pop((w, x) if w < x else (x, w), None)
            if len(row_x) == threshold:
                stack.append(x)
    return removed


def _peel(
    rows: Rows,
    threshold: int,
    support: Dict[Tuple[int, int], int],
    touched: Set[int],
    budget_check: Optional[Callable[[], None]],
) -> int:
    """The queue peel of the sweep's survivors; returns the number of edges deleted."""
    # An edge absent from ``support`` awaits a recount: an endpoint lost
    # edges in the sweep, so its swept support may be stale.
    queue = [edge for edge in support if edge[0] in touched or edge[1] in touched]
    for edge in queue:
        del support[edge]
    removed = 0
    steps = 0
    while queue:
        if budget_check is not None:
            steps += 1
            if steps >= _BUDGET_STRIDE:
                steps = 0
                budget_check()
        edge = queue.pop()
        u, v = edge
        row_u, row_v = rows[u], rows[v]
        if edge not in support:
            s = support[edge] = len(row_u & row_v)
            if s >= threshold:
                continue
        row_u.discard(v)
        row_v.discard(u)
        removed += 1
        # Every common neighbour w loses a triangle on (u, w) and (v, w); an
        # edge is queued when its support first drops below the threshold.
        for w in row_u & row_v:
            for a in (u, v):
                other = (a, w) if a < w else (w, a)
                s = support.get(other)
                if s is not None:
                    support[other] = s - 1
                    if s == threshold:
                        queue.append(other)
    return removed
