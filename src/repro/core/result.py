"""Solver results and search statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..graphs.graph import Vertex

__all__ = ["SearchStats", "SolveResult"]


@dataclass
class SearchStats:
    """Counters collected while a branch-and-bound solver runs.

    All counters are cumulative over one ``solve`` call.  They power the
    ablation analyses: e.g. comparing ``prunes_by_bound`` between ``kDC`` and
    ``kDC/UB1`` shows how much work the improved coloring bound saves.
    """

    #: number of branch-and-bound nodes (instances) visited
    nodes: int = 0
    #: maximum recursion depth reached
    max_depth: int = 0
    #: instances pruned because an upper bound did not exceed the best solution
    prunes_by_bound: int = 0
    #: instances that terminated as leaves (the whole instance was a k-defective clique)
    leaves: int = 0
    #: vertices removed by each reduction rule, keyed by rule name ("RR1" ... "RR6")
    reductions: Dict[str, int] = field(default_factory=dict)
    #: number of vertices greedily added to the partial solution by RR2
    rr2_additions: int = 0
    #: number of times the incumbent (best solution) was improved
    improvements: int = 0
    #: size of the heuristically computed initial solution (0 if disabled)
    initial_solution_size: int = 0
    #: vertices removed by preprocessing (RR5/RR6 applied to the input graph)
    preprocess_removed_vertices: int = 0
    #: edges removed by preprocessing
    preprocess_removed_edges: int = 0
    #: wall-clock seconds spent in the solve call
    elapsed_seconds: float = 0.0
    #: search-state backend that ran ("set" or "bitset"); "" when no
    #: backend was reached — baselines, or a solve interrupted before the
    #: search phase
    backend: str = ""
    #: decomposition ego subproblems actually searched (0 when the solve
    #: never entered the degeneracy decomposition)
    subproblems: int = 0
    #: decomposition anchors closed before any build because the core
    #: certificate on their higher-ranked neighbours proved their ego net
    #: could not contain a solution larger than the incumbent
    subproblems_pruned: int = 0
    #: decomposition anchors skipped because a solve checkpoint journaled
    #: them as completed by an earlier (interrupted) run of the same solve
    subproblems_restored: int = 0
    #: worker processes used by the decomposition (1 = sequential in-process;
    #: 0 when the solve never entered the decomposition).  A parallel solve
    #: degraded to sequential by lost-worker recovery reports 1, so timing
    #: consumers never over-state parallelism.
    workers: int = 0
    #: trail engine: reversible entries pushed onto the undo stack, one per
    #: addition and one per removal sweep (a rule's whole batch, or one
    #: RR5 cascade pass)
    trail_pushes: int = 0
    #: trail engine: entries popped while backtracking
    trail_pops: int = 0
    #: trail engine: vertices drained from the reduction worklist's dirty
    #: queues (the worklist twin of "candidates scanned per node"); RR2
    #: counts only the queued vertices its root-degree mask lets through
    dirty_drained: int = 0
    #: trail engine: coloring-bound full recolors (staleness counter tripped
    #: or no cached classes)
    recolor_full: int = 0
    #: trail engine: coloring-bound repairs (cached classes intersected with
    #: the surviving candidates instead of recoloring)
    recolor_repair: int = 0
    #: milliseconds spent preparing (relabel + heuristic + RR5/RR6
    #: preprocessing + degeneracy order) *for this call*: the full prepare
    #: cost for a plain ``solve``, the (near-zero) artifact-lookup cost for a
    #: service request answered from an already-prepared instance, and 0.0
    #: for a bare ``solve_prepared`` (its artifact was paid for earlier)
    prepare_ms: float = 0.0
    #: milliseconds the request waited in the service scheduler's queue
    #: before a worker picked it up (0.0 outside the service)
    queue_ms: float = 0.0
    #: milliseconds spent in the branch-and-bound search phase itself
    solve_ms: float = 0.0
    #: ``True`` when the service answered this request from its result cache
    #: without re-entering the search engine
    cache_hit: bool = False

    def count_reduction(self, rule: str, amount: int = 1) -> None:
        """Increment the removal counter of a reduction rule."""
        if amount:
            self.reductions[rule] = self.reductions.get(rule, 0) + amount

    def as_dict(self) -> Dict[str, object]:
        """Return a flat dictionary (used by the benchmark harness for reporting)."""
        data: Dict[str, object] = {
            "nodes": self.nodes,
            "max_depth": self.max_depth,
            "prunes_by_bound": self.prunes_by_bound,
            "leaves": self.leaves,
            "rr2_additions": self.rr2_additions,
            "improvements": self.improvements,
            "initial_solution_size": self.initial_solution_size,
            "preprocess_removed_vertices": self.preprocess_removed_vertices,
            "preprocess_removed_edges": self.preprocess_removed_edges,
            "elapsed_seconds": self.elapsed_seconds,
            "backend": self.backend,
            "subproblems": self.subproblems,
            "subproblems_pruned": self.subproblems_pruned,
            "subproblems_restored": self.subproblems_restored,
            "workers": self.workers,
            "trail_pushes": self.trail_pushes,
            "trail_pops": self.trail_pops,
            "dirty_drained": self.dirty_drained,
            "recolor_full": self.recolor_full,
            "recolor_repair": self.recolor_repair,
            "prepare_ms": self.prepare_ms,
            "queue_ms": self.queue_ms,
            "solve_ms": self.solve_ms,
            "cache_hit": self.cache_hit,
        }
        for rule, count in sorted(self.reductions.items()):
            data[f"removed_{rule}"] = count
        return data

    def merge_from(self, other: "SearchStats") -> None:
        """Fold the counters of ``other`` into this object.

        Used by the parallel decomposition driver to aggregate the
        per-worker statistics into the owning solve's counters.  Additive
        counters are summed, ``max_depth`` is maximised; phase-level fields
        (``initial_solution_size``, ``elapsed_seconds``, ``backend``,
        ``workers``, ``subproblems_restored``, and the request-level
        ``prepare_ms``/``queue_ms``/``solve_ms``/``cache_hit``) belong to
        the owning solve and are left untouched.
        """
        self.nodes += other.nodes
        self.max_depth = max(self.max_depth, other.max_depth)
        self.prunes_by_bound += other.prunes_by_bound
        self.leaves += other.leaves
        self.rr2_additions += other.rr2_additions
        self.improvements += other.improvements
        self.subproblems += other.subproblems
        self.subproblems_pruned += other.subproblems_pruned
        self.trail_pushes += other.trail_pushes
        self.trail_pops += other.trail_pops
        self.dirty_drained += other.dirty_drained
        self.recolor_full += other.recolor_full
        self.recolor_repair += other.recolor_repair
        for rule, count in other.reductions.items():
            self.count_reduction(rule, count)


@dataclass
class SolveResult:
    """The outcome of a maximum k-defective clique computation.

    Attributes
    ----------
    clique:
        The best k-defective clique found, as a list of the caller's original
        vertex labels.
    size:
        ``len(clique)``.
    k:
        The defectiveness parameter used.
    optimal:
        ``True`` if the search completed (the clique is a maximum k-defective
        clique); ``False`` if a time or node budget interrupted the search, in
        which case ``clique`` is the best solution found so far.
    algorithm:
        Human-readable name of the solver/variant that produced the result.
    stats:
        Search statistics.
    """

    clique: List[Vertex]
    size: int
    k: int
    optimal: bool
    algorithm: str
    stats: SearchStats = field(default_factory=SearchStats)

    def __post_init__(self) -> None:
        self.size = len(self.clique)

    @property
    def vertices(self) -> List[Vertex]:
        """Alias of :attr:`clique` kept for readability at call sites."""
        return self.clique

    def summary(self) -> str:
        """Return a one-line human-readable summary of the result."""
        status = "optimal" if self.optimal else "budget-limited"
        return (
            f"{self.algorithm}: |C|={self.size} (k={self.k}, {status}, "
            f"{self.stats.nodes} nodes, {self.stats.elapsed_seconds:.3f}s)"
        )
