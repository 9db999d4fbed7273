"""Shared branch-and-bound scaffolding for the baseline solvers.

The baselines (MADEC+-style and KDBB-style) are *separate algorithms* from
kDC — different bounds, different branching, no RR2/BR — but they share the
mechanics of a maximisation branch-and-bound over :class:`SearchState`
instances.  This module provides that scaffolding; each baseline subclass
plugs in its own prepare configuration and its own reduction, bounding and
branching policies.

They prepare exactly as kDC does, through
:func:`~repro.core.prepared.prepare_instance`: in the paper the initial
solution and the RR5/RR6 preprocessing are practical add-ons, so the
baselines differ from kDC's prepare only in which of them they switch on.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import List, Optional

from ..core.config import SolverConfig
from ..core.instance import SearchState, ensure_recursion_limit
from ..core.prepared import prepare_instance
from ..core.result import SearchStats, SolveResult
from ..exceptions import BudgetExceededError
from ..graphs.graph import Graph, Vertex

__all__ = ["BaselineBranchAndBound"]


class BaselineBranchAndBound(ABC):
    """Template for an exact maximum k-defective clique branch-and-bound solver.

    Subclasses set :attr:`prepare_config` and implement the policy hooks:

    * :meth:`_reduce` — per-node reductions (must at least enforce validity
      of additions, i.e. RR1); returns ``True`` to discard the node;
    * :meth:`_upper_bound` — per-node upper bound;
    * :meth:`_select_branching_vertex` — choose the next branching vertex.
    """

    #: human-readable algorithm name recorded in results
    name: str = "baseline"
    #: the prepare recipe: only ``initial_heuristic``, ``use_rr5`` and
    #: ``use_rr6`` are read (see :func:`~repro.core.prepared.prepare_instance`)
    prepare_config: SolverConfig

    def __init__(
        self,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> None:
        self.time_limit = time_limit
        self.node_limit = node_limit
        self._stats = SearchStats()
        self._best: List[int] = []
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Policy hooks
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _reduce(self, state: SearchState, lower_bound: int) -> bool:
        """Apply per-node reductions; return ``True`` to prune the node."""

    @abstractmethod
    def _upper_bound(self, state: SearchState) -> int:
        """Return an upper bound on the largest solution inside ``state``."""

    @abstractmethod
    def _select_branching_vertex(self, state: SearchState) -> Optional[int]:
        """Return the branching vertex (``None`` if no candidate remains)."""

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def solve(self, graph: Graph, k: int) -> SolveResult:
        """Compute a maximum k-defective clique of ``graph`` with this baseline.

        The budgets cover the prepare phase too.  When one fires there, the
        heuristic incumbent is returned with ``optimal=False``, as kDC does.
        """
        stats = SearchStats()
        self._stats = stats
        self._best = []
        start = time.perf_counter()
        self._deadline = start + self.time_limit if self.time_limit is not None else None
        to_label: List[Vertex] = []

        def on_heuristic(best: List[int], labels: List[Vertex]) -> None:
            self._best = best
            stats.initial_solution_size = len(best)
            to_label[:] = labels

        optimal = True
        try:
            prepared = prepare_instance(
                graph,
                k,
                self.prepare_config,
                budget_check=self._check_budget,
                on_heuristic=on_heuristic,
                compute_digest=False,
            )
            prepared.seed_stats(stats)
            if prepared.working_n > 0:
                state = prepared.root_state()
                ensure_recursion_limit(len(state.candidates))
                self._branch(state, depth=1)
        except BudgetExceededError:
            optimal = False

        stats.elapsed_seconds = time.perf_counter() - start
        labels = [to_label[v] for v in self._best]
        try:
            clique = sorted(labels)
        except TypeError:
            clique = labels
        return SolveResult(
            clique=clique,
            size=len(clique),
            k=k,
            optimal=optimal,
            algorithm=self.name,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def _check_budget(self) -> None:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            raise BudgetExceededError("time limit exceeded")
        if self.node_limit is not None and self._stats.nodes >= self.node_limit:
            raise BudgetExceededError("node limit exceeded")

    def _record(self, vertices: List[int]) -> None:
        if len(vertices) > len(self._best):
            self._best = list(vertices)
            self._stats.improvements += 1

    def _branch(self, state: SearchState, depth: int) -> None:
        self._check_budget()
        stats = self._stats
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

        if self._reduce(state, len(self._best)):
            return

        if state.is_defective_clique():
            stats.leaves += 1
            self._record(state.graph_vertices())
            return

        ub = self._upper_bound(state)
        if ub <= len(self._best):
            stats.prunes_by_bound += 1
            return

        self._record(state.solution)

        vertex = self._select_branching_vertex(state)
        if vertex is None:
            return

        left = state.copy()
        left.add_to_solution(vertex)
        self._branch(left, depth + 1)

        state.remove_candidate(vertex)
        self._branch(state, depth + 1)
