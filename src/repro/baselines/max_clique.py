"""Exact maximum clique solver (stand-in for MC-BRB in Tables 5 and 6).

The paper uses MC-BRB [Chang, KDD 2019] only to obtain the maximum clique
size of each benchmark graph, so that the maximum k-defective clique size can
be compared against it.  Any exact solver serves that purpose; this module
implements the classic Tomita-style branch-and-bound with a greedy-coloring
bound, seeded by a degeneracy-ordering clique heuristic.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set

from ..core.instance import ensure_recursion_limit
from ..core.result import SearchStats, SolveResult
from ..exceptions import BudgetExceededError
from ..graphs.degeneracy import degeneracy_ordering
from ..graphs.graph import Graph, Vertex, labels_of

__all__ = ["MaxCliqueSolver", "maximum_clique", "maximum_clique_size"]


class MaxCliqueSolver:
    """Exact maximum clique solver (branch and bound with coloring bound).

    Every ``solve`` call keeps its state in its own :class:`_CliqueRun`, so
    one instance may serve concurrent or interleaved solves.
    """

    name = "MaxClique"

    def __init__(self, time_limit: Optional[float] = None) -> None:
        self.time_limit = time_limit

    def solve(self, graph: Graph) -> SolveResult:
        """Return a maximum clique of ``graph`` as a :class:`SolveResult` (k = 0)."""
        return _CliqueRun(self.time_limit).execute(graph, self.name)


class _CliqueRun:
    """All mutable state of one :meth:`MaxCliqueSolver.solve` call."""

    def __init__(self, time_limit: Optional[float]) -> None:
        self.stats = SearchStats()
        self.start = time.perf_counter()
        self.deadline = self.start + time_limit if time_limit is not None else None
        self.best: List[int] = []
        self.adj: List[Set[int]] = []

    def execute(self, graph: Graph, name: str) -> SolveResult:
        stats = self.stats
        if graph.num_vertices == 0:
            stats.elapsed_seconds = time.perf_counter() - self.start
            return SolveResult(clique=[], size=0, k=0, optimal=True, algorithm=name, stats=stats)

        relabeled, _, to_label = graph.relabel()
        self.adj = [set(relabeled.neighbors(v)) for v in range(relabeled.num_vertices)]

        # Heuristic seed: greedily extend a clique along the degeneracy ordering.
        decomposition = degeneracy_ordering(relabeled)
        self.best = self._greedy_clique(decomposition.ordering)
        stats.initial_solution_size = len(self.best)

        optimal = True
        ensure_recursion_limit(relabeled.num_vertices)
        try:
            candidates = list(range(relabeled.num_vertices))
            self._expand([], candidates, depth=1)
        except BudgetExceededError:
            optimal = False

        stats.elapsed_seconds = time.perf_counter() - self.start
        clique = labels_of(self.best, to_label)
        return SolveResult(clique=clique, size=len(clique), k=0, optimal=optimal,
                           algorithm=name, stats=stats)

    # ------------------------------------------------------------------ #
    def _greedy_clique(self, ordering: List[int]) -> List[int]:
        best: List[int] = []
        for start in reversed(ordering):
            clique = [start]
            clique_set = {start}
            for v in reversed(ordering):
                if v in clique_set:
                    continue
                if all(v in self.adj[u] for u in clique):
                    clique.append(v)
                    clique_set.add(v)
            if len(clique) > len(best):
                best = clique
            break  # one pass from the last-ordered vertex is enough as a seed
        return best

    def _check_budget(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceededError("time limit exceeded")

    def _color_sort(self, candidates: List[int]) -> List[int]:
        """Greedy coloring of the candidate subgraph; returns per-candidate bounds.

        Candidates are reordered in place so that colours are non-decreasing;
        the returned list gives, aligned with the reordered candidates, the
        colour index + 1 of each vertex (an upper bound on the clique size
        obtainable from that vertex and its predecessors).
        """
        color_classes: List[List[int]] = []
        for v in sorted(candidates, key=lambda u: -len(self.adj[u])):
            placed = False
            for cls in color_classes:
                if all(v not in self.adj[u] for u in cls):
                    cls.append(v)
                    placed = True
                    break
            if not placed:
                color_classes.append([v])
        reordered: List[int] = []
        bounds: List[int] = []
        for color, cls in enumerate(color_classes, start=1):
            for v in cls:
                reordered.append(v)
                bounds.append(color)
        candidates[:] = reordered
        return bounds

    def _expand(self, clique: List[int], candidates: List[int], depth: int) -> None:
        self._check_budget()
        self.stats.nodes += 1
        if depth > self.stats.max_depth:
            self.stats.max_depth = depth

        if not candidates:
            if len(clique) > len(self.best):
                self.best = list(clique)
                self.stats.improvements += 1
            return

        bounds = self._color_sort(candidates)
        # Process candidates in reverse (highest colour first).
        for i in range(len(candidates) - 1, -1, -1):
            if len(clique) + bounds[i] <= len(self.best):
                self.stats.prunes_by_bound += 1
                return
            v = candidates[i]
            clique.append(v)
            adj_v = self.adj[v]
            next_candidates = [u for u in candidates[:i] if u in adj_v]
            self._expand(clique, next_candidates, depth + 1)
            clique.pop()


def maximum_clique(graph: Graph, time_limit: Optional[float] = None) -> List[Vertex]:
    """Return a maximum clique of ``graph`` as a list of vertex labels."""
    return MaxCliqueSolver(time_limit=time_limit).solve(graph).clique


def maximum_clique_size(graph: Graph, time_limit: Optional[float] = None) -> int:
    """Return the maximum clique size ω(G)."""
    return len(maximum_clique(graph, time_limit=time_limit))
