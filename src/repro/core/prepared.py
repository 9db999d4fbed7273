"""Immutable prepared solve artifacts: the compile half of the solve pipeline.

Every :meth:`KDCSolver.solve <repro.core.solver.KDCSolver.solve>` call used to
re-run the same prepare work from scratch — relabeling, the Degen/Degen-opt
heuristic incumbent, RR5/RR6 preprocessing of the input graph, the degeneracy
order, and the packed bitset adjacency.  For many-query workloads (one graph
interrogated repeatedly at varying ``k`` and budgets, the shape of traffic a
long-running solver service handles) that work dominates and is identical
across queries.

This module splits the pipeline at a compile/execute boundary:

* :func:`prepare_instance` runs the prepare phase once and returns a
  :class:`PreparedInstance` — an immutable, picklable artifact holding
  everything the search phase consumes;
* :meth:`KDCSolver.solve_prepared <repro.core.solver.KDCSolver.solve_prepared>`
  executes the branch-and-bound against an artifact, any number of times,
  with per-call budget overrides;
* the classic ``solve(graph, k)`` is now a thin prepare-then-execute wrapper
  over the same two halves, so the differential suite pins both routes to
  identical results.

A :class:`PreparedInstance` is specific to one ``(graph, k)`` pair plus the
prepare-relevant configuration knobs (initial heuristic, RR5/RR6): the
heuristic incumbent and the preprocessing both depend on ``k`` and on those
flags.  Execute-side knobs (backend, workers, budgets, UB/RR toggles
applied at search nodes) are *not* baked in — one artifact serves every
backend × workers cell, which is what lets the service answer a mixed query
stream from a single per-``(graph, k)`` slot.

The prepare phase relabels the graph once and then runs on its *rows*
(:data:`~repro.graphs.graph.Rows`): one set of integer neighbour ids per
vertex, read by Degen-opt and the degeneracy order and mutated in place by
the RR5 and RR6 peels, with no :class:`~repro.graphs.graph.Graph` in
between.  Row layout is part of the output: the degeneracy order breaks
ties by set iteration order, which depends on how each set's table was
built.  So the rows are laid out as ``Graph.relabel`` and then
``Graph.copy`` would lay them out, and removals only ever ``discard``
(which never resizes a set).  ``tests/test_prepare_golden.py`` pins the
artifacts this produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import InvalidParameterError
from ..graphs.degeneracy import degeneracy_ordering
from ..graphs.graph import Graph, Vertex, rows_of
from .config import SolverConfig
from .defective import validate_k
from .heuristics import initial_solution
from .instance import SearchState
from .reductions import preprocess_graph
from .result import SearchStats

__all__ = ["PreparedInstance", "prepare_instance"]


@dataclass(frozen=True)
class PreparedInstance:
    """Everything the search phase needs, computed once and frozen.

    Instances are immutable (a frozen dataclass; the mapping-typed fields
    must be treated as read-only) and picklable, so they can be stored in a
    graph store, shipped to other processes, or written to disk.  All vertex
    ids below ``working_adj``/``ordering``/``heuristic`` live in the
    *relabeled* space ``0 .. n_original - 1``; :attr:`to_label` maps them
    back to the caller's original labels.

    Attributes
    ----------
    k:
        The defectiveness parameter the artifact was prepared for.
    digest:
        :meth:`~repro.graphs.graph.Graph.content_digest` of the source
        graph — the canonical cache key tying the artifact to its graph
        (``""`` for throwaway artifacts prepared with
        ``compute_digest=False``).
    to_label:
        ``to_label[i]`` recovers the original label of relabeled id ``i``.
    heuristic:
        The Degen/Degen-opt initial solution (relabeled ids); the starting
        incumbent of every execute.
    working_adj:
        Adjacency of the RR5/RR6-preprocessed graph as ``{vertex: (sorted
        neighbour tuple, ...)}`` — exactly the mapping the decomposition
        driver ships to worker processes.
    working_num_edges:
        Edge count of the preprocessed graph.
    ordering / position:
        Degeneracy ordering of the preprocessed graph and its inverse
        (vertex -> rank), reused by the ego-subproblem decomposition.
    heuristic_method / use_rr5 / use_rr6:
        The prepare-relevant configuration the artifact was built with;
        :meth:`check_compatible` rejects executes under a mismatching
        configuration (they could silently return different incumbents).
    prepare_seconds:
        Wall-clock cost of the prepare phase (the amortised saving every
        reuse banks).
    preprocess_removed_vertices / preprocess_removed_edges /
    preprocess_reductions:
        Preprocessing statistics, replayed into every execute's
        :class:`~repro.core.result.SearchStats` so stats parity with a
        fresh ``solve`` holds.
    """

    k: int
    digest: str
    to_label: Tuple[Vertex, ...]
    heuristic: Tuple[int, ...]
    working_adj: Mapping[int, Tuple[int, ...]]
    working_num_edges: int
    ordering: Tuple[int, ...]
    position: Mapping[int, int]
    heuristic_method: str
    use_rr5: bool
    use_rr6: bool
    prepare_seconds: float
    preprocess_removed_vertices: int
    preprocess_removed_edges: int
    preprocess_reductions: Mapping[str, int]
    #: lazily-built derived caches (packed rows); excluded from equality and
    #: dropped on pickling — they are recomputed on demand.
    _cache: Dict[str, object] = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def n_original(self) -> int:
        """Vertices in the input graph (the relabeled id space width)."""
        return len(self.to_label)

    @property
    def working_n(self) -> int:
        """Vertices surviving RR5/RR6 preprocessing."""
        return len(self.working_adj)

    @property
    def lower_bound(self) -> int:
        """Size of the heuristic incumbent the search starts from."""
        return len(self.heuristic)

    def decomposition(self) -> Tuple[Sequence[int], Mapping[int, int]]:
        """The ``(ordering, position)`` pair the decomposition driver accepts."""
        return self.ordering, self.position

    def packed_adjacency(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Packed whole-graph bitset rows ``(to_global, adj_bits)``.

        Local ids are assigned degree-descending (ties by ``working_adj``
        iteration order), matching what the solver's whole-graph bitset
        search builds per call.  Computed lazily — the rows cost O(n²/8)
        bytes and go unused whenever the degeneracy decomposition engages —
        then cached on the artifact.
        """
        packed = self._cache.get("packed")
        if packed is None:
            order = sorted(self.working_adj, key=lambda v: -len(self.working_adj[v]))
            local = {v: i for i, v in enumerate(order)}
            rows = [0] * len(order)
            for v, i in local.items():
                row = 0
                for u in self.working_adj[v]:
                    row |= 1 << local[u]
                rows[i] = row
            packed = (tuple(order), tuple(rows))
            self._cache["packed"] = packed
        return packed

    def root_state(self) -> SearchState:
        """The root instance ``(G, ∅)`` of a set-backend search over :attr:`working_adj`.

        Built afresh on every call, since a search mutates its states.  The
        adjacency list spans every relabeled id; a vertex preprocessing
        removed keeps an empty row.
        """
        adj: List[Set[int]] = [set() for _ in range(self.n_original)]
        for v, nbrs in self.working_adj.items():
            adj[v] = set(nbrs)
        return SearchState.initial(adj, self.k, vertices=set(self.working_adj))

    def working_graph(self) -> Graph:
        """Rebuild the preprocessed graph as a fresh mutable :class:`Graph`.

        A convenience for inspection and tests; the solver itself executes
        straight off :attr:`working_adj` and never needs this.
        """
        g = Graph(vertices=self.working_adj)
        for v, nbrs in self.working_adj.items():
            for u in nbrs:
                if u > v:
                    g.add_edge(v, u)
        return g

    def check_compatible(self, config: SolverConfig) -> None:
        """Raise unless ``config``'s prepare-relevant knobs match this artifact.

        Executing under a different initial heuristic or RR5/RR6 setting
        would not crash — it would silently answer with the *wrong
        variant's* results, which is worse.
        """
        mismatches = []
        if config.initial_heuristic != self.heuristic_method:
            mismatches.append(
                f"initial_heuristic={config.initial_heuristic!r} != prepared "
                f"{self.heuristic_method!r}"
            )
        if config.use_rr5 != self.use_rr5:
            mismatches.append(f"use_rr5={config.use_rr5} != prepared {self.use_rr5}")
        if config.use_rr6 != self.use_rr6:
            mismatches.append(f"use_rr6={config.use_rr6} != prepared {self.use_rr6}")
        if mismatches:
            raise InvalidParameterError(
                "PreparedInstance was built under a different prepare "
                "configuration: " + "; ".join(mismatches)
            )

    def seed_stats(self, stats: SearchStats) -> None:
        """Replay the prepare-phase counters into a fresh execute's stats."""
        stats.initial_solution_size = len(self.heuristic)
        stats.preprocess_removed_vertices = self.preprocess_removed_vertices
        stats.preprocess_removed_edges = self.preprocess_removed_edges
        for rule, count in self.preprocess_reductions.items():
            stats.count_reduction(rule, count)

    # ------------------------------------------------------------------ #
    # Pickling: drop the derived caches, restore around the frozen guard.
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


def prepare_instance(
    graph: Graph,
    k: int,
    config: Optional[SolverConfig] = None,
    budget_check: Optional[Callable[[], None]] = None,
    on_heuristic: Optional[Callable[[List[int], List[Vertex]], None]] = None,
    compute_digest: bool = True,
    digest: Optional[str] = None,
) -> PreparedInstance:
    """Run the prepare phase once and freeze it into a :class:`PreparedInstance`.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    k:
        Defectiveness parameter (``k >= 0``).
    config:
        Only the prepare-relevant knobs are read: ``initial_heuristic``,
        ``use_rr5``, ``use_rr6``.  Defaults to the full kDC configuration.
    budget_check:
        Optional callable raising
        :class:`~repro.exceptions.BudgetExceededError` to interrupt; polled
        throughout the heuristic and the preprocessing.  An interrupted
        prepare propagates the exception (no artifact is produced).
    on_heuristic:
        Optional callback invoked with ``(heuristic_ids, to_label)``
        immediately after the initial solution is computed and *before* the
        post-heuristic budget poll — the hook ``KDCSolver.solve`` uses to
        keep the partial incumbent when a budget fires during preprocessing.
    compute_digest:
        When ``False`` the content digest (a full pass over the graph) is
        skipped and :attr:`PreparedInstance.digest` is ``""`` — used by the
        throwaway artifacts of the plain ``solve`` wrapper, which never
        cache.
    digest:
        ``graph``'s content digest when the caller already holds it, as the
        service's graph store does for the graphs it keys; it is used as is
        and not recomputed.
    """
    validate_k(k)
    if config is None:
        config = SolverConfig()
    start = time.perf_counter()
    if digest is None:
        digest = graph.content_digest() if compute_digest else ""

    # Relabel once.  The relabeled graph's rows are fresh sets, so prepare
    # takes them over and drops the graph: Degen-opt, RR5, RR6 and the
    # degeneracy order all run on these rows, mutated in place.
    relabeled, _, to_label = graph.relabel()
    rows = rows_of(relabeled)
    del relabeled
    heuristic = initial_solution(
        rows, k, config.initial_heuristic, budget_check=budget_check
    )
    if on_heuristic is not None:
        on_heuristic(list(heuristic), to_label)
    if budget_check is not None:
        budget_check()

    # Re-copy each row in place.  set(s) can size its table differently from
    # s, which changes its iteration order and so the degeneracy order's
    # tie-breaks; the copy keeps the row layout every prepared artifact (and
    # the forced-decomposition goldens of tests/test_trail.py) was built on,
    # without holding a second copy of the rows.
    for v, nbrs in rows.items():
        rows[v] = set(nbrs)
    prep_stats = SearchStats()
    if config.use_rr5 or config.use_rr6:
        preprocess_graph(
            rows,
            k,
            lower_bound=len(heuristic),
            use_rr5=config.use_rr5,
            use_rr6=config.use_rr6,
            stats=prep_stats,
            budget_check=budget_check,
        )

    decomposition = degeneracy_ordering(rows)
    working_adj = {v: tuple(sorted(nbrs)) for v, nbrs in rows.items()}

    return PreparedInstance(
        k=k,
        digest=digest,
        to_label=tuple(to_label),
        heuristic=tuple(heuristic),
        working_adj=working_adj,
        working_num_edges=sum(map(len, working_adj.values())) // 2,
        ordering=tuple(decomposition.ordering),
        position=dict(decomposition.position),
        heuristic_method=config.initial_heuristic,
        use_rr5=config.use_rr5,
        use_rr6=config.use_rr6,
        prepare_seconds=time.perf_counter() - start,
        preprocess_removed_vertices=prep_stats.preprocess_removed_vertices,
        preprocess_removed_edges=prep_stats.preprocess_removed_edges,
        preprocess_reductions=dict(prep_stats.reductions),
    )
