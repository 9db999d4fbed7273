"""The kDC branch-and-bound solver (Algorithms 1 and 2 of the paper).

Two public entry points are provided:

* :class:`KDCSolver` — a configurable solver object.  With the default
  :class:`~repro.core.config.SolverConfig` it is the full practical ``kDC``
  algorithm (Algorithm 2); with ``variant_config("kDC-t")`` it degenerates to
  the bare theoretical Algorithm 1 (branching rule BR plus reduction rules
  RR1/RR2 only).
* :func:`find_maximum_defective_clique` — a convenience function for one-off
  calls.

A 0-defective clique is a clique, so :func:`maximum_clique` and
:func:`maximum_clique_size` are kDC at ``k = 0``.

The solver is exact: unless a time or node budget interrupts it, the returned
set is a maximum k-defective clique and ``result.optimal`` is ``True``.

Backends
--------
Two interchangeable search-state backends implement the branch-and-bound:

* ``"set"`` — the original dict/set :class:`~repro.core.instance.SearchState`;
* ``"bitset"`` — packed adjacency bitmaps
  (:class:`~repro.core.bitset_state.BitsetSearchState` driven by
  :class:`~repro.core.fastpath.BitsetEngine`).  On instances with at least
  ``SolverConfig.decompose_threshold`` vertices after preprocessing (and a
  heuristic lower bound of at least ``k + 1``), the bitset backend further
  switches to the degeneracy decomposition of :mod:`repro.core.decompose`,
  which solves one small ego subproblem per vertex while threading the shared
  incumbent through as the lower bound.  With ``SolverConfig.workers >= 2``
  the same driver runs those ego subproblems across a :mod:`multiprocessing`
  pool (:mod:`repro.core.parallel`) broadcasting the best size through
  shared memory; the optimal size returned is identical for every worker
  count.

``SolverConfig.backend`` selects between them; ``"bitset"`` and the default
``"auto"`` both use the bitset backend, except that an instance above
:data:`_BITSET_WHOLE_GRAPH_MAX_VERTICES` vertices that cannot decompose (no
incumbent of at least ``k + 1``) goes to the set backend.  Both backends
return identical optimal sizes; the set backend is the independent
reference the differential tests compare against.

Budgets (``time_limit`` / ``node_limit``) are enforced during *all* phases:
the initial heuristic, the RR5/RR6 preprocessing, and the search itself
(including parallel workers) all check the deadline periodically, and an
interrupted solve returns the best solution found so far with
``optimal=False``.

Node rules
----------
The set backend's branch-and-bound (:meth:`_SolveRun._branch`) runs three
per-node rules, which are methods of the solver: :meth:`KDCSolver._reduce`,
:meth:`KDCSolver._prunes` and :meth:`KDCSolver._select`.  The baselines
KDBB and MADEC (:mod:`repro.baselines`) are ``KDCSolver`` subclasses on
``backend="set"`` that override these three and share everything else:
prepare, budgets, label mapping and the result.

Re-entrancy
-----------
All per-solve state (incumbent, statistics, deadline) lives in a
:class:`_SolveRun` created afresh by every :meth:`KDCSolver.solve` call;
the solver object itself holds only immutable configuration.  One
``KDCSolver`` instance may therefore be shared freely — reused sequentially,
called from several threads, or handed to worker dispatch — without one
solve corrupting another.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import SolveCheckpoint

from ..exceptions import BudgetExceededError, InvalidParameterError
from ..graphs.graph import Graph, Vertex, labels_of
from .bounds import ub1_improved_coloring, ub2_min_degree, ub3_degree_sequence
from .branching import select_branching_vertex
from .config import SolverConfig, variant_config
from .decompose import solve_decomposed
from .defective import validate_k
from .fastpath import BitsetEngine
from .instance import SearchState, ensure_recursion_limit
from .prepared import PreparedInstance, prepare_instance
from .reductions import apply_reductions
from .result import SearchStats, SolveResult

__all__ = [
    "KDCSolver",
    "find_maximum_defective_clique",
    "maximum_defective_clique_size",
    "maximum_clique",
    "maximum_clique_size",
]

#: Largest instance the *whole-graph* bitset search will accept: n adjacency
#: rows of n bits is O(n²/8) bytes, so when the degeneracy decomposition
#: cannot engage (incumbent < k + 1) bigger instances fall back to the
#: O(n + m) set backend instead of risking an out-of-memory abort.
_BITSET_WHOLE_GRAPH_MAX_VERTICES = 20_000

class _SolveRun:
    """All mutable state of one ``solve`` call.

    Created afresh per call so that a shared :class:`KDCSolver` instance is
    re-entrant: two concurrent or interleaved solves each own their
    incumbent, statistics and budget clock.  The solver contributes its
    name and its three node rules.
    """

    def __init__(
        self,
        solver: "KDCSolver",
        config: SolverConfig,
        cancel: Optional[threading.Event] = None,
        checkpoint: Optional["SolveCheckpoint"] = None,
    ) -> None:
        self.config = config
        self.name = solver.name
        self.reduce = solver._reduce
        self.prunes = solver._prunes
        self.select = solver._select
        self.cancel = cancel
        self.checkpoint = checkpoint
        self.stats = SearchStats()
        self.best: List[int] = []
        start = time.perf_counter()
        self.start = start
        self.deadline = start + config.time_limit if config.time_limit is not None else None
        self.node_limit = config.node_limit

    # ------------------------------------------------------------------ #
    def execute(self, graph: Graph, k: int) -> SolveResult:
        """Prepare-then-execute: the classic single-call solve path.

        The prepare phase (relabeling, heuristic, RR5/RR6 preprocessing,
        degeneracy order) is delegated to
        :func:`~repro.core.prepared.prepare_instance` and the resulting
        throwaway artifact handed to :meth:`execute_prepared` — the same two
        halves a prepare-once service reuses, so both routes are pinned to
        identical behavior by construction.
        """
        stats = self.stats

        if graph.num_vertices == 0:
            stats.elapsed_seconds = time.perf_counter() - self.start
            return SolveResult(clique=[], size=0, k=k, optimal=True, algorithm=self.name, stats=stats)

        # The budget may fire inside the heuristic or the preprocessing; the
        # on_heuristic hook keeps the partial incumbent (and the label map
        # needed to report it) so an interrupted prepare still returns the
        # best solution found so far with optimal=False, exactly as before
        # the compile/execute split.
        partial_to_label: List[Vertex] = []

        def on_heuristic(best: List[int], to_label: List[Vertex]) -> None:
            self.best = list(best)
            stats.initial_solution_size = len(best)
            partial_to_label[:] = to_label

        try:
            prepared = prepare_instance(
                graph,
                k,
                self.config,
                budget_check=self._check_budget,
                on_heuristic=on_heuristic,
                compute_digest=False,
            )
        except BudgetExceededError:
            stats.elapsed_seconds = time.perf_counter() - self.start
            clique = labels_of(self.best, partial_to_label)
            return SolveResult(
                clique=clique, size=len(clique), k=k, optimal=False,
                algorithm=self.name, stats=stats,
            )
        stats.prepare_ms = prepared.prepare_seconds * 1000.0
        return self.execute_prepared(prepared, k)

    def execute_prepared(self, prepared: PreparedInstance, k: int) -> SolveResult:
        """Run the branch-and-bound phase against a prepared artifact."""
        stats = self.stats
        prepared.seed_stats(stats)
        self.best = list(prepared.heuristic)
        optimal = True
        solve_start = time.perf_counter()
        try:
            self._check_budget()
            backend = self._resolve_backend(prepared, k)
            stats.backend = backend
            if prepared.working_n > 0:
                if backend == "bitset":
                    self._solve_bitset(prepared, k)
                else:
                    self._solve_set(prepared)
        except BudgetExceededError:
            optimal = False

        now = time.perf_counter()
        stats.solve_ms = (now - solve_start) * 1000.0
        stats.elapsed_seconds = now - self.start
        clique = labels_of(self.best, prepared.to_label)
        return SolveResult(
            clique=clique,
            size=len(clique),
            k=k,
            optimal=optimal,
            algorithm=self.name,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    def _resolve_backend(self, prepared: PreparedInstance, k: int) -> str:
        """Map ``config.backend`` to the concrete backend used for this instance.

        The bitset backend's whole-graph mode allocates O(n²/8) bytes of
        adjacency rows, so when the decomposition cannot engage (no usable
        incumbent) very large instances are routed to the O(n + m) set
        backend even under ``backend="bitset"`` — running slower beats dying
        on memory, and the decomposition handles every realistically large
        input that has a heuristic lower bound.  ``"auto"`` resolves to
        bitset.
        """
        config = self.config
        if config.backend == "set":
            return "set"
        working_n = prepared.working_n
        decomposable = working_n >= config.decompose_threshold and len(self.best) >= k + 1
        if not decomposable and working_n > _BITSET_WHOLE_GRAPH_MAX_VERTICES:
            return "set"
        return "bitset"

    def _solve_set(self, prepared: PreparedInstance) -> None:
        """Branch-and-bound over the dict/set :class:`SearchState` backend."""
        state = prepared.root_state()
        ensure_recursion_limit(len(state.candidates))
        self._branch(state, depth=1)

    def _solve_bitset(self, prepared: PreparedInstance, k: int) -> None:
        """Branch-and-bound over packed adjacency bitmaps (optionally decomposed).

        Large instances (``>= config.decompose_threshold`` vertices) with a
        usable lower bound (``>= k + 1``, required by the diameter-2 argument
        of :mod:`repro.core.decompose`) are split into per-vertex ego
        subproblems — across a worker pool when ``config.workers >= 2`` —
        and everything else is one whole-graph bitset search over the
        artifact's packed rows.
        """
        config = self.config
        if prepared.working_n >= config.decompose_threshold and len(self.best) >= k + 1:
            deadline = None
            if self.deadline is not None:
                # Translate the perf_counter deadline into the monotonic
                # clock, which is meaningful across processes.
                deadline = time.monotonic() + (self.deadline - time.perf_counter())
            solve_decomposed(
                None, k, config, self.stats, self._check_budget, self.best,
                adj=prepared.working_adj, decomposition=prepared.decomposition(),
                checkpoint=self.checkpoint, deadline=deadline, node_limit=self.node_limit,
            )
            return
        to_global, adj_bits = prepared.packed_adjacency()
        width = len(to_global)
        engine = BitsetEngine(
            config, self.stats, self._check_budget, self.best, to_global=to_global
        )
        engine.run(adj_bits, (1 << width) - 1, k)

    def _check_budget(self) -> None:
        if self.cancel is not None and self.cancel.is_set():
            raise BudgetExceededError("solve cancelled")
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise BudgetExceededError("time limit exceeded")
        if self.node_limit is not None and self.stats.nodes >= self.node_limit:
            raise BudgetExceededError("node limit exceeded")

    def _record_solution(self, vertices: List[int]) -> None:
        if len(vertices) > len(self.best):
            self.best = list(vertices)
            self.stats.improvements += 1

    def _branch(self, state: SearchState, depth: int) -> None:
        """Procedure Branch&Bound of Algorithms 1/2, under the solver's node rules."""
        self._check_budget()
        stats = self.stats
        stats.nodes += 1
        if depth > stats.max_depth:
            stats.max_depth = depth

        # Line 4: reduction rules.
        if self.reduce(state, len(self.best), stats):
            return

        # Line 5: if the whole instance graph is a k-defective clique, record it.
        if state.is_defective_clique():
            stats.leaves += 1
            self._record_solution(state.graph_vertices())
            return

        # Upper-bound pruning (Algorithm 2 only).
        if self.prunes(state, len(self.best)):
            stats.prunes_by_bound += 1
            return

        # Even when not a leaf, the partial solution S itself is a valid
        # k-defective clique and may beat the incumbent.
        self._record_solution(state.solution)

        # Line 6: the branching vertex.
        branching_vertex = self.select(state)
        if branching_vertex is None:
            return

        # Line 7: left branch includes the branching vertex.
        left = state.copy()
        left.add_to_solution(branching_vertex)
        self._branch(left, depth + 1)

        # Line 8: right branch excludes it.  The current state is not needed
        # afterwards, so it is mutated in place instead of copied.
        state.remove_candidate(branching_vertex)
        self._branch(state, depth + 1)


class KDCSolver:
    """Exact maximum k-defective clique solver implementing the paper's kDC algorithm.

    Parameters
    ----------
    config:
        Feature flags and budgets; defaults to the full kDC configuration.
    name:
        Optional human-readable algorithm name recorded in results (defaults
        to ``"kDC"`` or ``"kDC-t"`` depending on the configuration).

    Notes
    -----
    The solver object holds only immutable configuration; every ``solve``
    call owns its state (see :class:`_SolveRun`), so a single instance may
    be reused — including concurrently — without corruption.
    """

    def __init__(self, config: Optional[SolverConfig] = None, name: Optional[str] = None) -> None:
        self.config = config if config is not None else SolverConfig()
        if name is not None:
            self.name = name
        else:
            self.name = "kDC" if self.config.uses_practical_techniques else "kDC-t"

    # ------------------------------------------------------------------ #
    # Node rules of the set backend's branch-and-bound
    # ------------------------------------------------------------------ #
    def _reduce(self, state: SearchState, lower_bound: int, stats: SearchStats) -> bool:
        """Line 4: the reduction rules; ``True`` discards the node."""
        return apply_reductions(state, self.config, lower_bound=lower_bound, stats=stats)

    def _prunes(self, state: SearchState, incumbent: int) -> bool:
        """Whether an upper bound shows ``state`` cannot beat ``incumbent``.

        The enabled bounds are evaluated cheapest-first and evaluation stops
        as soon as one of them prunes; this changes nothing about which
        instances survive, only how much work is spent deciding it.  UB1 is
        the only coloring-based bound evaluated here, so it colours the
        candidates itself.  kDC-t enables none, so it never prunes here.
        """
        config = self.config
        return (
            (config.use_ub2 and ub2_min_degree(state) <= incumbent)
            or (config.use_ub3 and ub3_degree_sequence(state) <= incumbent)
            or (config.use_ub1 and ub1_improved_coloring(state) <= incumbent)
        )

    def _select(self, state: SearchState) -> Optional[int]:
        """Line 6: the branching vertex by rule BR (``None`` if none remains)."""
        return select_branching_vertex(state)

    def solve(
        self,
        graph: Graph,
        k: int,
        *,
        time_limit: Optional[float] = None,
        cancel: Optional[threading.Event] = None,
    ) -> SolveResult:
        """Compute a maximum k-defective clique of ``graph``.

        Parameters
        ----------
        graph:
            Input graph (not modified).
        k:
            Number of tolerated missing edges (``k >= 0``).
        time_limit, cancel:
            Per-call budget override and cancellation event, as for
            :meth:`solve_prepared`; both cover the prepare phase too.

        Returns
        -------
        SolveResult
            The best clique found, with ``optimal=True`` unless a budget was hit.
        """
        validate_k(k)
        config = self.config
        if time_limit is not None:
            config = dataclasses.replace(config, time_limit=time_limit)
        return _SolveRun(self, config, cancel=cancel).execute(graph, k)

    def solve_prepared(
        self,
        prepared: PreparedInstance,
        k: Optional[int] = None,
        *,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        cancel: Optional[threading.Event] = None,
        checkpoint: Optional["SolveCheckpoint"] = None,
    ) -> SolveResult:
        """Execute the branch-and-bound against an already-prepared artifact.

        The artifact (see :func:`~repro.core.prepared.prepare_instance`)
        carries the relabeling, heuristic incumbent, preprocessed graph and
        degeneracy order, so this call skips straight to the search phase.
        One artifact may be executed any number of times — including
        concurrently, since all per-call state lives in a fresh
        :class:`_SolveRun`.

        Parameters
        ----------
        prepared:
            Artifact produced by ``prepare_instance``.  Its prepare-relevant
            configuration (heuristic method, RR5/RR6) must match this
            solver's — a mismatch raises
            :class:`~repro.exceptions.InvalidParameterError` rather than
            silently answering for the wrong variant.
        k:
            Must equal ``prepared.k`` when given (the artifact's heuristic
            and preprocessing are ``k``-specific); defaults to it.
        time_limit, node_limit:
            Per-call budget overrides; when omitted the solver
            configuration's budgets apply.
        cancel:
            Optional :class:`threading.Event` polled alongside the budgets
            at every branch-and-bound node; setting it makes the solve
            return its best-so-far result with ``optimal=False`` promptly.
            This is the cooperative-cancellation hook the service's
            graceful drain uses.
        checkpoint:
            Optional :class:`~repro.core.checkpoint.SolveCheckpoint`
            threaded into the degeneracy-decomposition driver: a
            decomposed solve skips the anchors a previous interrupted run
            journaled as completed and journals its own progress in turn.
            Ignored by non-decomposed solves (whole-graph searches have no
            subproblem granularity to checkpoint at).  The caller owns the
            checkpoint's lifecycle (``close``/``complete``).

        Returns
        -------
        SolveResult
            Identical (in optimal size) to ``solve`` on the source graph.
        """
        if k is None:
            k = prepared.k
        validate_k(k)
        if k != prepared.k:
            raise InvalidParameterError(
                f"PreparedInstance was prepared for k={prepared.k}, not k={k}; "
                "prepare a new artifact instead"
            )
        prepared.check_compatible(self.config)
        config = self.config
        overrides = {}
        if time_limit is not None:
            overrides["time_limit"] = time_limit
        if node_limit is not None:
            overrides["node_limit"] = node_limit
        if overrides:
            config = dataclasses.replace(config, **overrides)
        run = _SolveRun(self, config, cancel=cancel, checkpoint=checkpoint)
        return run.execute_prepared(prepared, k)


def find_maximum_defective_clique(
    graph: Graph,
    k: int,
    config: Optional[SolverConfig] = None,
    variant: Optional[str] = None,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolveResult:
    """Find a maximum k-defective clique of ``graph`` (convenience wrapper around :class:`KDCSolver`).

    Parameters
    ----------
    graph:
        Input graph.
    k:
        Number of tolerated missing edges.
    config:
        Explicit solver configuration; mutually exclusive with ``variant``.
    variant:
        Name of a paper variant (see :data:`repro.core.config.VARIANT_NAMES`),
        e.g. ``"kDC"``, ``"kDC-t"``, ``"kDC/UB1"``.
    time_limit, node_limit:
        Budgets applied when ``config`` is not given.

    Returns
    -------
    SolveResult
    """
    if config is not None and variant is not None:
        raise InvalidParameterError("pass either 'config' or 'variant', not both")
    if config is None:
        name = variant if variant is not None else "kDC"
        config = variant_config(name, time_limit=time_limit, node_limit=node_limit)
        solver = KDCSolver(config, name=name)
    else:
        solver = KDCSolver(config)
    return solver.solve(graph, k)


def maximum_defective_clique_size(graph: Graph, k: int, **kwargs) -> int:
    """Return only the size of a maximum k-defective clique of ``graph``."""
    return find_maximum_defective_clique(graph, k, **kwargs).size


def maximum_clique(graph: Graph, time_limit: Optional[float] = None) -> List[Vertex]:
    """Return a maximum clique of ``graph`` (a maximum 0-defective clique) as vertex labels."""
    return find_maximum_defective_clique(graph, 0, time_limit=time_limit).clique


def maximum_clique_size(graph: Graph, time_limit: Optional[float] = None) -> int:
    """Return the maximum clique size ω(G)."""
    return len(maximum_clique(graph, time_limit=time_limit))
