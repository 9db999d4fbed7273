"""Reduction rules RR1–RR6 (Sections 3.1.1 and 3.2.2 of the paper).

The rules fall into three groups:

* **RR1 / RR2** are required for the :math:`O^*(\\gamma_k^n)` time complexity
  and are always applied (they are what guarantees Lemma 3.3: after
  exhaustive application every candidate has at least two non-neighbours in
  the instance graph).
* **RR3 / RR4 / RR5** are practical rules applied at every search node when
  enabled; they remove candidates that provably cannot appear in a solution
  larger than the incumbent.
* **RR6** (common-neighbour / truss pruning) is only applied during
  preprocessing of the input graph because of its higher cost; see
  :func:`preprocess_graph`.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..graphs.graph import Rows
from ..graphs.kcore import core_reduce_in_place
from ..graphs.truss import truss_reduce_in_place
from .config import SolverConfig
from .instance import SearchState
from .result import SearchStats

__all__ = [
    "apply_rr1",
    "apply_rr2",
    "apply_rr3",
    "apply_rr4",
    "apply_rr5",
    "apply_reductions",
    "preprocess_graph",
]


def apply_rr1(state: SearchState, stats: Optional[SearchStats] = None) -> int:
    """RR1 (excess-removal): drop candidates whose inclusion would exceed ``k`` missing edges.

    Returns the number of removed candidates.
    """
    k = state.k
    to_remove = [v for v in state.candidates if state.missing_if_added(v) > k]
    for v in to_remove:
        state.remove_candidate(v)
    if stats is not None:
        stats.count_reduction("RR1", len(to_remove))
    return len(to_remove)


def apply_rr2(state: SearchState, stats: Optional[SearchStats] = None) -> int:
    """RR2 (high-degree): greedily move into ``S`` every candidate adjacent to all but at most one vertex of ``g``.

    Only candidates that keep ``S`` a valid k-defective clique are moved
    (``|\\bar{E}(S ∪ u)| <= k``), as required by Lemma 3.1.  Returns the
    number of vertices moved.
    """
    k = state.k
    moved = 0
    progress = True
    while progress:
        progress = False
        threshold = state.graph_size - 2
        for v in list(state.candidates):
            if state.missing_if_added(v) <= k and state.degree_in_graph[v] >= threshold:
                state.add_to_solution(v)
                moved += 1
                progress = True
                # Moving a vertex into S changes the non-neighbour counters of
                # the remaining candidates, so restart the scan.
                break
    if stats is not None and moved:
        stats.rr2_additions += moved
    return moved


def apply_rr3(state: SearchState, lower_bound: int, stats: Optional[SearchStats] = None) -> int:
    """RR3 (degree-sequence-based): remove candidates that UB3 proves useless.

    A candidate ``v_i`` (in non-decreasing order of ``|\\bar{N}_S(·)|``) is
    removed when ``i > lb - |S|`` and its non-neighbour count exceeds the
    budget left after reserving the ``lb - |S|`` cheapest candidates.
    Returns the number of removed candidates.
    """
    needed = lower_bound - len(state.solution)
    if needed < 0 or not state.candidates:
        return 0
    non_nbrs = state.non_nbrs_in_solution
    ordered = sorted(state.candidates, key=lambda v: non_nbrs[v])
    if needed >= len(ordered):
        return 0
    prefix_cost = sum(non_nbrs[v] for v in ordered[:needed])
    threshold = state.slack() - prefix_cost
    to_remove = [v for v in ordered[needed:] if non_nbrs[v] > threshold]
    for v in to_remove:
        state.remove_candidate(v)
    if stats is not None:
        stats.count_reduction("RR3", len(to_remove))
    return len(to_remove)


def apply_rr4(state: SearchState, lower_bound: int, stats: Optional[SearchStats] = None) -> int:
    """RR4 (second-order): remove candidates using the pairwise bound with the last-added solution vertex.

    Following Section 3.2.3, the rule is applied once per node, pairing every
    candidate ``v`` with the vertex ``u`` most recently added to ``S``; the
    candidate is removed when the second-order upper bound on solutions
    containing both ``u`` and ``v`` does not exceed the incumbent size.
    Returns the number of removed candidates.
    """
    u = state.last_added
    if u is None or not state.candidates:
        return 0
    k = state.k
    adj = state.adj
    candidates = state.candidates
    # Neighbours of u among the current candidates (computed once, shared by every pair).
    u_nbrs_in_cand = adj[u] & candidates

    to_remove = []
    for v in candidates:
        missing_s_prime = state.missing_if_added(v)
        if missing_s_prime > k:
            continue  # RR1 will remove it
        slack = k - missing_s_prime
        total = len(candidates) - 1
        nu = len(u_nbrs_in_cand) - (1 if v in u_nbrs_in_cand else 0)
        v_nbrs_in_cand = adj[v] & candidates
        cn = len(u_nbrs_in_cand & v_nbrs_in_cand)
        dv = len(v_nbrs_in_cand)
        xn = (nu - cn) + (dv - cn)
        cnon = total - cn - xn
        if slack > xn:
            tail = xn + min(cnon, max(0, (slack - xn) // 2))
        else:
            tail = slack
        bound = (len(state.solution) + 1) + cn + min(slack, tail)
        if bound <= lower_bound:
            to_remove.append(v)

    for v in to_remove:
        state.remove_candidate(v)
    if stats is not None:
        stats.count_reduction("RR4", len(to_remove))
    return len(to_remove)


def apply_rr5(
    state: SearchState,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
) -> Tuple[int, bool]:
    """RR5 (degree / core): remove candidates of degree < ``lb - k`` in the instance graph.

    Returns ``(removed, prune)``; ``prune`` is ``True`` when a *solution*
    vertex violates the degree requirement, in which case the whole instance
    cannot contain a solution larger than ``lb`` (this is the UB2 argument)
    and the caller should discard it.
    """
    threshold = lower_bound - state.k
    if threshold <= 0:
        return 0, False
    degree = state.degree_in_graph
    for u in state.solution:
        if degree[u] < threshold:
            return 0, True
    removed = 0
    progress = True
    while progress:
        progress = False
        for v in list(state.candidates):
            if degree[v] < threshold:
                state.remove_candidate(v)
                removed += 1
                progress = True
        for u in state.solution:
            if degree[u] < threshold:
                if stats is not None:
                    stats.count_reduction("RR5", removed)
                return removed, True
    if stats is not None:
        stats.count_reduction("RR5", removed)
    return removed, False


def apply_reductions(
    state: SearchState,
    config: SolverConfig,
    lower_bound: int,
    stats: Optional[SearchStats] = None,
) -> bool:
    """Exhaustively apply the enabled reduction rules to ``state`` (Line 4 of Algorithms 1/2).

    RR1 and RR2 are always applied (they are required for the time-complexity
    guarantee); RR3, RR4 and RR5 are applied when enabled in ``config``.
    RR4 is applied at most once per call, as in the paper.

    Returns ``True`` when the instance can be discarded entirely (RR5 proved
    that no solution in it can beat the incumbent).
    """
    rr4_done = False
    changed = True
    while changed:
        changed = False
        if apply_rr1(state, stats):
            changed = True
        if apply_rr2(state, stats):
            changed = True
        if config.use_rr5:
            removed, prune = apply_rr5(state, lower_bound, stats)
            if prune:
                return True
            if removed:
                changed = True
        if config.use_rr3:
            if apply_rr3(state, lower_bound, stats):
                changed = True
        if config.use_rr4 and not rr4_done:
            rr4_done = True
            if apply_rr4(state, lower_bound, stats):
                changed = True
    return False


def preprocess_graph(
    rows: Rows,
    k: int,
    lower_bound: int,
    use_rr5: bool = True,
    use_rr6: bool = True,
    stats: Optional[SearchStats] = None,
    budget_check: Optional[Callable[[], None]] = None,
) -> None:
    """Reduce the input graph before the search starts (Line 2 of Algorithm 2).

    Exhaustively applying RR5 reduces the graph to its ``(lb - k)``-core;
    exhaustively applying RR6 then reduces it to its ``(lb - k + 1)``-truss.
    The graph is given as integer adjacency rows, as
    :func:`~repro.core.prepared.prepare_instance` holds it, and the rows are
    modified **in place**.

    ``budget_check`` (typically the solve run's budget check) is polled before
    each reduction phase and, forwarded into the core/truss peeling loops,
    every few thousand steps *within* each phase; a raised
    :class:`~repro.exceptions.BudgetExceededError` propagates to the caller.
    Since every phase only ever removes provably useless vertices/edges,
    interrupted rows are still a safe (if less reduced) search instance.
    """
    before_vertices = len(rows)
    before_edges = sum(map(len, rows.values())) // 2
    if budget_check is not None:
        budget_check()
    if use_rr5 and lower_bound - k > 0:
        core_reduce_in_place(rows, lower_bound - k, budget_check=budget_check)
    if use_rr6 and lower_bound - k - 1 > 0:
        if budget_check is not None:
            budget_check()
        truss_reduce_in_place(rows, lower_bound - k + 1, budget_check=budget_check)
        # Edge removals can lower degrees below the core threshold again.
        if use_rr5 and lower_bound - k > 0:
            if budget_check is not None:
                budget_check()
            core_reduce_in_place(rows, lower_bound - k, budget_check=budget_check)
    if stats is not None:
        stats.preprocess_removed_vertices += before_vertices - len(rows)
        stats.preprocess_removed_edges += before_edges - sum(map(len, rows.values())) // 2
