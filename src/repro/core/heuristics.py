"""Initial-solution heuristics ``Degen`` and ``Degen-opt`` (Section 3.3, Algorithms 3 and 4).

Both heuristics build a large k-defective clique quickly so the exact search
can start with a strong lower bound, which powers the RR3–RR6 reductions and
the preprocessing of the input graph.

* ``Degen`` (Algorithm 3) computes a degeneracy ordering and returns its
  longest suffix that forms a k-defective clique; O(n + m) time.
* ``Degen-opt`` (Algorithm 4) additionally runs ``Degen`` inside the subgraph
  induced by every vertex's higher-ranked neighbours and keeps the best of
  the ``n + 1`` solutions; O(δ(G) · m) time.

Both run on adjacency rows (:data:`~repro.graphs.graph.Rows`), a
:class:`~repro.graphs.graph.Graph`'s or the prepare pipeline's, and return
the same vertices either way.  Degen-opt computes the whole-graph ordering
once and takes the whole-graph ``Degen`` suffix from it.  Its ego nets are
plain rows too, built as :meth:`Graph.subgraph` builds its rows, so their
ties break as they would in a subgraph.  Most ego nets never get that far:
a k-defective clique on ``s`` vertices has at least ``s(s-1)/2 - k`` edges,
so an ego net ``N⁺(u)`` with ``e`` edges holds none on more than
``(1 + √(1 + 8(e + k))) / 2`` vertices.  When that many plus ``u`` cannot
beat the incumbent, ``Degen`` is skipped on it: it could only have returned
a solution that is not kept.
"""

from __future__ import annotations

from math import isqrt
from typing import Callable, List, Optional, Sequence, Set, Union

from ..exceptions import BudgetExceededError
from ..graphs.degeneracy import degeneracy_ordering
from ..graphs.graph import Graph, Rows, Vertex, rows_of
from .defective import validate_k

__all__ = ["degen", "degen_opt", "initial_solution"]


#: How many suffix-scan iterations :func:`degen` runs between budget polls.
_DEGEN_BUDGET_STRIDE = 2048


def degen(
    graph: Union[Graph, Rows],
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Algorithm 3: the longest k-defective-clique suffix of a degeneracy ordering.

    Because missing edges only accumulate as the suffix grows, the longest
    valid suffix is found by scanning the ordering from the end and stopping
    at the first vertex whose inclusion would exceed ``k`` missing edges.

    Returns the vertices of the heuristic solution (possibly empty for an
    empty graph).  ``budget_check`` is polled every
    :data:`_DEGEN_BUDGET_STRIDE` scan steps; when it raises
    :class:`~repro.exceptions.BudgetExceededError` the suffix built so far is
    returned (callers re-check the budget themselves afterwards).
    """
    validate_k(k)
    rows = rows_of(graph)
    if not rows:
        return []
    return _longest_suffix(rows, degeneracy_ordering(rows).ordering, k, budget_check)


def _longest_suffix(
    rows: Rows,
    ordering: Sequence[Vertex],
    k: int,
    budget_check: Optional[Callable[[], None]],
) -> List[Vertex]:
    """Degen's scan: the longest suffix of ``ordering`` that is a k-defective clique."""
    chosen: List[Vertex] = []
    chosen_set: Set[Vertex] = set()
    missing = 0
    for i, v in enumerate(reversed(ordering)):
        if budget_check is not None and i % _DEGEN_BUDGET_STRIDE == 0 and i:
            try:
                budget_check()
            except BudgetExceededError:
                break
        extra = len(chosen) - len(rows[v] & chosen_set)
        if missing + extra > k:
            break
        missing += extra
        chosen.append(v)
        chosen_set.add(v)
    return chosen


def degen_opt(
    graph: Union[Graph, Rows],
    k: int,
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Algorithm 4: ``Degen`` on the whole graph plus on every higher-neighbourhood subgraph.

    For each vertex ``u``, the subgraph induced by its higher-ranked
    neighbours ``N⁺(u)`` (w.r.t. the degeneracy ordering) is extracted and
    ``Degen`` is run inside it; since every vertex of ``N⁺(u)`` is adjacent
    to ``u``, appending ``u`` to the sub-solution keeps it a k-defective
    clique.  The largest of the ``n + 1`` solutions is returned.  ``Degen``
    is skipped on an ego net too small, in vertices or in edges, to beat the
    incumbent (see the module docstring).

    ``budget_check`` (typically the solve run's budget check) is polled once
    per vertex; when it raises
    :class:`~repro.exceptions.BudgetExceededError` the best solution found
    *so far* is returned — callers that need to know the budget fired should
    re-check it themselves afterwards.
    """
    validate_k(k)
    rows = rows_of(graph)
    if not rows:
        return []
    decomposition = degeneracy_ordering(rows)
    best = _longest_suffix(rows, decomposition.ordering, k, budget_check)
    position = decomposition.position
    for u in decomposition.ordering:
        if budget_check is not None:
            try:
                budget_check()
            except BudgetExceededError:
                return best
        pos_u = position[u]
        higher = [v for v in rows[u] if position[v] > pos_u]
        if len(higher) + 1 <= len(best):
            continue  # even a perfect sub-solution cannot beat the incumbent
        keep = set(higher)
        # 2e, and the most vertices a k-defective clique with e edges can have.
        twice_e = sum(map(len, map(keep.intersection, map(rows.__getitem__, higher))))
        cap = (1 + isqrt(1 + 4 * twice_e + 8 * k)) // 2
        if min(len(higher), cap) + 1 <= len(best):
            continue
        sub = {v: rows[v] & keep for v in keep}
        # Forward the budget poll: a hub's ego subgraph can hold millions of
        # edges, and degen's partial-return semantics make interruption safe.
        candidate = degen(sub, k, budget_check=budget_check)
        if len(candidate) + 1 > len(best):
            best = candidate + [u]
    return best


def initial_solution(
    graph: Union[Graph, Rows],
    k: int,
    method: str = "degen-opt",
    budget_check: Optional[Callable[[], None]] = None,
) -> List[Vertex]:
    """Dispatch helper used by the solver's Line 1 of Algorithm 2.

    Parameters
    ----------
    graph:
        A :class:`Graph` or its adjacency rows.
    method:
        ``"degen-opt"`` (default), ``"degen"``, or ``"none"`` (returns an
        empty solution, used by the kDC-t theoretical variant).
    budget_check:
        Optional budget poll forwarded to :func:`degen_opt` (see there for
        the partial-result semantics on interruption).
    """
    if method == "none":
        return []
    if method == "degen":
        return degen(graph, k, budget_check=budget_check)
    if method == "degen-opt":
        return degen_opt(graph, k, budget_check=budget_check)
    raise ValueError(f"unknown initial-solution method {method!r}")
