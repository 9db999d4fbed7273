"""Benchmark harness: timed solver runs and solved-instance accounting.

The paper's headline evaluation metric is the *number of solved instances
within a time limit* (Table 2, Figures 7 and 8) complemented by per-instance
processing times (Table 3).  This module provides the runner that produces
those records for any of the registered algorithms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace as dataclass_replace
from typing import Dict, Iterable, List, Optional, Sequence

from ..baselines.kdbb import KDBBSolver
from ..baselines.madec import MADECSolver
from ..core.config import variant_config
from ..core.result import SolveResult
from ..core.solver import KDCSolver
from ..datasets.collections import DatasetInstance
from ..exceptions import InvalidParameterError
from ..graphs.graph import Graph

__all__ = [
    "ALGORITHMS",
    "make_solver",
    "InstanceRecord",
    "run_instance",
    "run_collection",
    "count_solved",
    "solved_within",
]

#: Algorithm names accepted by :func:`make_solver`, in the order the paper reports them.
ALGORITHMS = (
    "kDC",
    "kDC-t",
    "kDC/UB1",
    "kDC/RR3&4",
    "kDC/UB1&RR3&4",
    "kDC-Degen",
    "KDBB",
    "MADEC",
)


def make_solver(
    name: str,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
):
    """Instantiate a solver by its paper name.

    ``kDC`` and its ablation variants map to :class:`KDCSolver` configured via
    :func:`~repro.core.config.variant_config`; ``KDBB`` and ``MADEC`` map to
    the baseline reimplementations.

    ``backend`` overrides the search-state backend of the kDC variants
    (``"auto"``, ``"set"`` or ``"bitset"``) and ``workers`` the number of
    decomposition worker processes; the baselines run on the set backend
    only and reject both.
    """
    baseline = {"KDBB": KDBBSolver, "MADEC": MADECSolver, "MADEC+": MADECSolver}.get(name)
    if baseline is not None:
        if backend is not None or workers is not None:
            raise InvalidParameterError(
                "backend/workers selection only applies to the kDC variants"
            )
        return baseline(time_limit=time_limit, node_limit=node_limit)
    try:
        config = variant_config(name, time_limit=time_limit, node_limit=node_limit)
    except InvalidParameterError as exc:
        raise InvalidParameterError(
            f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHMS)}"
        ) from exc
    overrides = {}
    if backend is not None:
        overrides["backend"] = backend
    if workers is not None:
        overrides["workers"] = workers
    if overrides:
        config = dataclass_replace(config, **overrides)
    return KDCSolver(config, name=name)


@dataclass(frozen=True)
class InstanceRecord:
    """One (algorithm, graph, k) benchmark measurement."""

    algorithm: str
    collection: str
    instance: str
    k: int
    solved: bool
    size: int
    elapsed_seconds: float
    nodes: int
    #: search-state backend that ran ("set" for the baselines; "" when the
    #: solve was interrupted before the search phase)
    backend: str = ""
    #: decomposition worker processes used (0 when the solve never entered
    #: the degeneracy decomposition, e.g. baselines or whole-graph searches)
    workers: int = 0
    #: bitset engine counters (all 0 for the set backend)
    trail_pushes: int = 0
    trail_pops: int = 0
    dirty_drained: int = 0
    recolor_full: int = 0
    recolor_repair: int = 0
    #: request-level phase timings (see :class:`~repro.core.result.SearchStats`):
    #: milliseconds spent preparing (relabel + heuristic + preprocessing +
    #: degeneracy order) and in the branch-and-bound itself, plus the queue
    #: wait when the record came through the solver service
    prepare_ms: float = 0.0
    queue_ms: float = 0.0
    solve_ms: float = 0.0
    #: ``True`` when the solver service answered this measurement from its
    #: result cache without re-entering the search engine
    cache_hit: bool = False

    def as_dict(self) -> Dict[str, object]:
        """Return the record as a flat dictionary (for CSV-style reporting)."""
        return {
            "algorithm": self.algorithm,
            "collection": self.collection,
            "instance": self.instance,
            "k": self.k,
            "solved": self.solved,
            "size": self.size,
            "elapsed_seconds": self.elapsed_seconds,
            "nodes": self.nodes,
            "backend": self.backend,
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

    @classmethod
    def from_result(
        cls,
        result: SolveResult,
        *,
        algorithm: str,
        collection: str = "",
        instance: str = "",
        elapsed_seconds: Optional[float] = None,
    ) -> "InstanceRecord":
        """Build a record from any :class:`SolveResult` (solver or service)."""
        stats = result.stats
        return cls(
            algorithm=algorithm,
            collection=collection,
            instance=instance,
            k=result.k,
            solved=result.optimal,
            size=result.size,
            elapsed_seconds=(
                elapsed_seconds if elapsed_seconds is not None else stats.elapsed_seconds
            ),
            nodes=stats.nodes,
            backend=stats.backend,
            workers=stats.workers,
            trail_pushes=stats.trail_pushes,
            trail_pops=stats.trail_pops,
            dirty_drained=stats.dirty_drained,
            recolor_full=stats.recolor_full,
            recolor_repair=stats.recolor_repair,
            prepare_ms=stats.prepare_ms,
            queue_ms=stats.queue_ms,
            solve_ms=stats.solve_ms,
            cache_hit=stats.cache_hit,
        )


def run_instance(
    algorithm: str,
    graph: Graph,
    k: int,
    time_limit: Optional[float],
    collection: str = "",
    instance: str = "",
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> InstanceRecord:
    """Run one algorithm on one graph for one ``k`` under a time limit.

    ``backend`` optionally forces the kDC search-state backend and
    ``workers`` the decomposition worker-process count; what actually ran
    (backend resolved from ``"auto"``, workers actually used by the
    decomposition) is recorded on the returned record.
    """
    solver = make_solver(algorithm, time_limit=time_limit, backend=backend, workers=workers)
    start = time.perf_counter()
    result: SolveResult = solver.solve(graph, k)
    elapsed = time.perf_counter() - start
    return InstanceRecord.from_result(
        result,
        algorithm=algorithm,
        collection=collection,
        instance=instance,
        elapsed_seconds=elapsed,
    )


def run_collection(
    algorithms: Sequence[str],
    instances: Iterable[DatasetInstance],
    k_values: Sequence[int],
    time_limit: Optional[float],
) -> List[InstanceRecord]:
    """Run every algorithm on every instance for every ``k``; return all records.

    Parameters
    ----------
    algorithms:
        Algorithm names (see :data:`ALGORITHMS`).
    instances:
        Dataset instances to solve.
    k_values:
        Values of ``k`` to test (the paper uses {1, 3, 5, 10, 15, 20}).
    time_limit:
        Per-run wall-clock budget in seconds (``None`` = unlimited).
    """
    records: List[InstanceRecord] = []
    instances = list(instances)
    for k in k_values:
        for inst in instances:
            graph = inst.graph
            for algorithm in algorithms:
                record = run_instance(
                    algorithm,
                    graph,
                    k,
                    time_limit,
                    collection=inst.collection,
                    instance=inst.name,
                )
                records.append(record)
    return records


def count_solved(records: Iterable[InstanceRecord]) -> Dict[str, Dict[int, int]]:
    """Aggregate records into ``{algorithm: {k: solved_count}}`` (the Table 2 shape)."""
    table: Dict[str, Dict[int, int]] = {}
    for record in records:
        per_k = table.setdefault(record.algorithm, {})
        per_k.setdefault(record.k, 0)
        if record.solved:
            per_k[record.k] += 1
    return table


def solved_within(records: Iterable[InstanceRecord], time_limit: float) -> Dict[str, Dict[int, int]]:
    """Count, per algorithm and k, the records solved within ``time_limit`` seconds.

    Used to produce the Figure 7/8 curves: one full run with a generous limit
    is recorded once, then re-thresholded at each plotted time limit.
    """
    table: Dict[str, Dict[int, int]] = {}
    for record in records:
        per_k = table.setdefault(record.algorithm, {})
        per_k.setdefault(record.k, 0)
        if record.solved and record.elapsed_seconds <= time_limit:
            per_k[record.k] += 1
    return table
