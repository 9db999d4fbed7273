"""Branch-and-bound search state: one instance ``(g, S)`` of the paper.

An instance consists of the current graph ``g`` (represented implicitly as
the union of the partial solution ``S`` and the candidate set ``V(g) \\ S``)
and the partial solution ``S`` itself, which is always a k-defective clique.

The state keeps exactly the bookkeeping the branching rule, reduction rules
and upper bounds need in O(1)/O(deg) time:

* ``missing_in_solution`` — the number of non-edges inside ``S``
  (:math:`|\\bar{E}(S)|`);
* ``non_nbrs_in_solution[v]`` — for every candidate ``v``, the number of its
  non-neighbours inside ``S`` (:math:`|\\bar{N}_S(v)|`);
* ``degree_in_graph[v]`` — for every vertex of ``g``, its degree inside ``g``
  (:math:`d_g(v)`).

Child instances are produced by copying the state (O(|V(g)|)) and then either
moving the branching vertex into ``S`` or deleting it from the candidate set.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Optional, Sequence, Set

__all__ = ["SearchState", "ensure_recursion_limit"]

AdjacencyList = Sequence[Set[int]]

#: Recursion head-room kept above a recursive search's deepest level.
_RECURSION_MARGIN = 256

#: Serialises recursion-limit raises so concurrent solves never observe a
#: limit below what they asked for.
_RECURSION_LIMIT_LOCK = threading.Lock()


def ensure_recursion_limit(depth: int) -> None:
    """Let a recursive search go ``depth`` levels deep, plus a fixed margin.

    The interpreter's recursion limit is only ever *increased* and never
    restored: a save/restore would race between concurrent solves (one
    thread restoring a small limit while another is still deep in
    recursion), whereas a monotone raise is safe — the limit is a guard
    against runaway recursion, and a deliberate deep search justifies
    keeping it for the process.
    """
    needed = depth + _RECURSION_MARGIN
    with _RECURSION_LIMIT_LOCK:
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)


class SearchState:
    """Mutable state of a single branch-and-bound instance over an integer-labelled graph."""

    __slots__ = (
        "adj",
        "k",
        "solution",
        "solution_set",
        "candidates",
        "missing_in_solution",
        "non_nbrs_in_solution",
        "degree_in_graph",
        "last_added",
    )

    def __init__(
        self,
        adj: AdjacencyList,
        k: int,
        solution: List[int],
        solution_set: Set[int],
        candidates: Set[int],
        missing_in_solution: int,
        non_nbrs_in_solution: Dict[int, int],
        degree_in_graph: Dict[int, int],
        last_added: Optional[int],
    ) -> None:
        self.adj = adj
        self.k = k
        self.solution = solution
        self.solution_set = solution_set
        self.candidates = candidates
        self.missing_in_solution = missing_in_solution
        self.non_nbrs_in_solution = non_nbrs_in_solution
        self.degree_in_graph = degree_in_graph
        self.last_added = last_added

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def initial(cls, adj: AdjacencyList, k: int, vertices: Optional[Set[int]] = None) -> "SearchState":
        """Build the root instance ``(G, ∅)``.

        Parameters
        ----------
        adj:
            Adjacency sets indexed by integer vertex id.  The structure is
            shared (never mutated) by all states derived from this one.
        k:
            Defectiveness parameter.
        vertices:
            Optional subset of vertex ids forming the instance graph; defaults
            to every index of ``adj`` (isolated vertices included).
        """
        if vertices is None:
            vertices = set(range(len(adj)))
        else:
            vertices = set(vertices)
        degree = {v: len(adj[v] & vertices) for v in vertices}
        return cls(
            adj=adj,
            k=k,
            solution=[],
            solution_set=set(),
            candidates=set(vertices),
            missing_in_solution=0,
            non_nbrs_in_solution={v: 0 for v in vertices},
            degree_in_graph=degree,
            last_added=None,
        )

    def copy(self) -> "SearchState":
        """Return an independent copy sharing only the immutable adjacency structure."""
        return SearchState(
            adj=self.adj,
            k=self.k,
            solution=list(self.solution),
            solution_set=set(self.solution_set),
            candidates=set(self.candidates),
            missing_in_solution=self.missing_in_solution,
            non_nbrs_in_solution=dict(self.non_nbrs_in_solution),
            degree_in_graph=dict(self.degree_in_graph),
            last_added=self.last_added,
        )

    # ------------------------------------------------------------------ #
    # Size / structure queries
    # ------------------------------------------------------------------ #
    @property
    def graph_size(self) -> int:
        """Number of vertices of the instance graph ``g`` (i.e. ``|S| + |V(g) \\ S|``)."""
        return len(self.solution) + len(self.candidates)

    @property
    def instance_size(self) -> int:
        """The measure ``|I| = |V(g) \\ S|`` used by the complexity analysis."""
        return len(self.candidates)

    def graph_vertices(self) -> List[int]:
        """Return all vertices of the instance graph (solution first, then candidates)."""
        return self.solution + list(self.candidates)

    def total_edges(self) -> int:
        """Number of edges of the instance graph (derived from the degree bookkeeping)."""
        return sum(self.degree_in_graph.values()) // 2

    def total_missing(self) -> int:
        """Number of non-edges of the whole instance graph ``g``."""
        n = self.graph_size
        return n * (n - 1) // 2 - self.total_edges()

    def is_defective_clique(self) -> bool:
        """Return ``True`` if the entire instance graph is a k-defective clique (leaf test, Line 5 of Algorithm 1)."""
        return self.total_missing() <= self.k

    def missing_if_added(self, v: int) -> int:
        """Return ``|\\bar{E}(S ∪ v)|`` for a candidate ``v`` in O(1)."""
        return self.missing_in_solution + self.non_nbrs_in_solution[v]

    def slack(self) -> int:
        """Return ``k - |\\bar{E}(S)|``: how many more missing edges the solution may absorb."""
        return self.k - self.missing_in_solution

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def add_to_solution(self, v: int) -> None:
        """Move candidate ``v`` into the partial solution ``S``.

        Updates the missing-edge count of ``S`` and the per-candidate
        non-neighbour counters in O(|candidates|) time.
        """
        self.candidates.discard(v)
        self.missing_in_solution += self.non_nbrs_in_solution.pop(v)
        self.solution.append(v)
        self.solution_set.add(v)
        adj_v = self.adj[v]
        non_nbrs = self.non_nbrs_in_solution
        for u in self.candidates:
            if u not in adj_v:
                non_nbrs[u] += 1
        self.last_added = v

    def remove_candidate(self, v: int) -> None:
        """Delete candidate ``v`` from the instance graph ``g``.

        Updates the degrees of its surviving neighbours in O(deg(v)) time.
        """
        self.candidates.discard(v)
        self.non_nbrs_in_solution.pop(v, None)
        degree = self.degree_in_graph
        for u in self.adj[v]:
            if u in degree and (u in self.candidates or u in self.solution_set):
                degree[u] -= 1
        del degree[v]

    # ------------------------------------------------------------------ #
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Recompute every cached quantity from scratch and assert it matches.

        Raises ``AssertionError`` on any mismatch.  Intended exclusively for
        tests; never called on the hot path.
        """
        vertices = set(self.solution) | self.candidates
        assert self.solution_set == set(self.solution)
        assert not (self.solution_set & self.candidates), "solution and candidates overlap"
        # degrees
        for v in vertices:
            expected = len(self.adj[v] & vertices)
            assert self.degree_in_graph[v] == expected, (
                f"degree mismatch for {v}: cached {self.degree_in_graph[v]}, actual {expected}"
            )
        assert set(self.degree_in_graph) == vertices
        # missing edges inside S
        sol = self.solution
        missing = 0
        for i, u in enumerate(sol):
            for w in sol[i + 1:]:
                if w not in self.adj[u]:
                    missing += 1
        assert missing == self.missing_in_solution, (
            f"missing_in_solution mismatch: cached {self.missing_in_solution}, actual {missing}"
        )
        # non-neighbour counters
        assert set(self.non_nbrs_in_solution) == self.candidates
        for v in self.candidates:
            expected = sum(1 for u in sol if u not in self.adj[v])
            assert self.non_nbrs_in_solution[v] == expected, (
                f"non_nbrs mismatch for {v}: cached {self.non_nbrs_in_solution[v]}, actual {expected}"
            )
