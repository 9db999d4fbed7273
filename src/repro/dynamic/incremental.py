"""Incremental exact maximum k-defective clique solving over edge deltas.

:class:`IncrementalSolver` wraps :class:`~repro.core.solver.KDCSolver` with
an *epoch* of reusable state from the last full solve — the relabeled graph,
its degeneracy decomposition, and the optimum witness.  Applying an
:class:`~repro.dynamic.delta.EdgeDelta` then re-runs only the ego
subproblems the delta can have invalidated (see
:func:`repro.dynamic.delta.affected_anchors` for the proof), seeding the
shared incumbent from the re-verified previous optimum and carrying every
unaffected anchor over as already-completed — the same journal contract
:func:`repro.core.decompose.solve_decomposed` honours for crash resume, so
the carry-over store *is* a :class:`~repro.core.checkpoint.SolveCheckpoint`
when a ``checkpoint_dir`` is given (a killed incremental re-solve resumes
mid-delta) and an in-memory equivalent when not.

Exactness is non-negotiable and rests on three guards, all enforced here:

1. **Witness re-verification.**  The previous optimum is re-checked against
   the successor graph before it seeds anything — an edge removal can
   silently shrink a previously valid kDC, so stale incumbents are never
   trusted.  If the witness broke, the previous optimum value itself is no
   longer a certified lower bound for carried-over anchors and the solver
   falls back to a full solve.
2. **Epoch-bounded relabeling.**  A delta that introduces vertices outside
   the epoch's relabeling cannot be expressed over the prepared
   decomposition; full solve.
3. **Fresh-graph preprocessing only.**  The epoch keeps the *unreduced*
   relabeled graph, never the RR5/RR6-preprocessed one — those reductions
   were taken relative to an old lower bound on an old graph and are
   unsound to reuse once edges are added.  The decomposition's per-anchor
   size cap provides the pruning instead.

When the affected set grows past ``max_affected_fraction`` of the vertices
the incremental route would do most of a full solve's work anyway, so the
solver falls back (and re-establishes a fresh epoch while it is at it).

Each delta goes into the epoch's relabeled graph in place, and is swapped
back out whenever the route does not commit (a fallback or an exception),
so the epoch never drifts from the snapshot it describes.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.checkpoint import SolveCheckpoint, checkpoint_meta, checkpoint_token, incumbent_defect
from ..core.decompose import solve_decomposed
from ..core.result import SearchStats, SolveResult
from ..core.solver import KDCSolver
from ..exceptions import BudgetExceededError, InvalidParameterError
from ..graphs.degeneracy import degeneracy_ordering
from ..graphs.graph import Graph, Vertex
from ..testing import chaos as faults
from .delta import EdgeDelta, affected_anchors, apply_delta, apply_delta_in_place

logger = logging.getLogger(__name__)

__all__ = ["DeltaSolveReport", "IncrementalSolver"]


class _MemoryCarry:
    """In-memory stand-in for :class:`SolveCheckpoint`'s journal contract.

    The decomposition driver only needs ``completed``,
    ``verified_incumbent``, ``record``/``record_batch`` and the lifecycle
    no-ops; keeping the same duck type means the incremental re-solve code
    is identical whether the carry-over store is durable or not.
    """

    def __init__(self) -> None:
        self.completed: Set[int] = set()
        self._incumbent: List[int] = []

    def verified_incumbent(self, neighbors: Callable[[int], Sequence[int]], k: int) -> List[int]:
        vs = self._incumbent
        if not vs or incumbent_defect(vs, neighbors, k) is not None:
            return []
        return list(vs)

    def record(self, anchor: int, incumbent: Sequence[int]) -> None:
        if anchor in self.completed:
            return
        # Same chaos point (and context) as SolveCheckpoint.record, so fault
        # scripts drive the durable and in-memory carries identically.
        faults.fire("checkpoint.append", anchor=anchor, count=len(self.completed))
        self.completed.add(anchor)
        if len(incumbent) > len(self._incumbent):
            self._incumbent = list(incumbent)

    def record_batch(self, anchors: Sequence[int], incumbent: Sequence[int]) -> None:
        for anchor in anchors:
            self.record(anchor, incumbent)

    def sync(self) -> None:  # pragma: no cover - trivial
        pass

    def close(self) -> None:  # pragma: no cover - trivial
        pass

    def complete(self) -> None:
        pass


class _Budget:
    """One :meth:`IncrementalSolver.apply`'s budget; calling it is the
    driver's ``check_budget``."""

    def __init__(self, started: float, time_limit: Optional[float], cancel) -> None:
        #: absolute ``time.monotonic()`` deadline, or ``None``
        self.deadline = started + time_limit if time_limit is not None else None
        self.cancel = cancel

    def __call__(self) -> None:
        if self.cancel is not None and self.cancel.is_set():
            raise BudgetExceededError("incremental solve cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("incremental solve time limit exceeded")


@dataclass
class _Epoch:
    """Reusable state from the last successful *optimal* solve."""

    digest: str
    graph: Graph                      # relabeled graph of `digest`; changed in place
    to_int: Dict[Vertex, int]
    to_label: List[Vertex]            # to_label[i] recovers the original label
    ordering: Tuple[int, ...]         # fixed total order over ALL epoch vertices
    position: Dict[int, int]
    best: List[int]                   # optimum witness, relabeled ids


@dataclass
class DeltaSolveReport:
    """What one :meth:`IncrementalSolver.apply` did and found."""

    result: SolveResult
    digest: str
    parent_digest: str
    incremental: bool
    fallback_reason: Optional[str] = None
    anchors_total: int = 0
    anchors_affected: int = 0
    anchors_reused: int = 0
    anchors_resolved: int = 0
    elapsed_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        out = {
            "digest": self.digest,
            "parent_digest": self.parent_digest,
            "incremental": self.incremental,
            "anchors_total": self.anchors_total,
            "anchors_affected": self.anchors_affected,
            "anchors_reused": self.anchors_reused,
            "anchors_resolved": self.anchors_resolved,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.fallback_reason:
            out["fallback_reason"] = self.fallback_reason
        return out


class IncrementalSolver:
    """Exact maximum-kDC tracking across a stream of edge deltas.

    Usage: one :meth:`solve` (or :meth:`seed` from an existing optimal
    result) establishes the epoch, then :meth:`apply` advances the tracked
    graph one delta at a time, answering each successor exactly while
    re-solving only the affected ego subproblems whenever the guards allow.

    Not thread-safe; the service serialises access per
    ``(k, algorithm)`` dynamic state.
    """

    def __init__(
        self,
        config=None,
        *,
        name: str = "kDC",
        max_affected_fraction: float = 0.35,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        if not 0.0 <= max_affected_fraction <= 1.0:
            raise InvalidParameterError(
                f"max_affected_fraction must be in [0, 1], got {max_affected_fraction}"
            )
        self._solver = KDCSolver(config, name=name)
        self.max_affected_fraction = max_affected_fraction
        self.checkpoint_dir = checkpoint_dir
        self._graph: Optional[Graph] = None
        self._digest: Optional[str] = None
        self._k: Optional[int] = None
        self._epoch: Optional[_Epoch] = None
        self._last_result: Optional[SolveResult] = None
        # Carry-over store of a crashed/raised apply(), keyed by the
        # successor digest it was re-solving toward: retrying the same delta
        # resumes instead of restarting.
        self._pending: Optional[Tuple[str, _MemoryCarry]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self):
        return self._solver.config

    @property
    def name(self) -> str:
        return self._solver.name

    @property
    def digest(self) -> Optional[str]:
        """Content digest of the currently tracked snapshot."""
        return self._digest

    @property
    def k(self) -> Optional[int]:
        return self._k

    @property
    def last_result(self) -> Optional[SolveResult]:
        return self._last_result

    def graph(self) -> Graph:
        """A defensive copy of the currently tracked snapshot."""
        if self._graph is None:
            raise InvalidParameterError("no graph tracked yet; call solve() first")
        return self._graph.copy()

    # ------------------------------------------------------------------ #
    # Epoch management
    # ------------------------------------------------------------------ #
    def solve(self, graph: Graph, k: int) -> SolveResult:
        """Full from-scratch solve; establishes the tracked snapshot/epoch."""
        if k < 0:
            raise InvalidParameterError(f"k must be non-negative, got {k}")
        snapshot = graph.copy()
        result = self._solver.solve(snapshot, k)
        self._install(snapshot, snapshot.content_digest(), k, result)
        return result

    def seed(
        self, graph: Graph, k: int, result: SolveResult, digest: Optional[str] = None
    ) -> None:
        """Adopt an existing **optimal** result for ``graph`` as the epoch.

        Lets the service reuse a solve it already paid for instead of
        re-solving just to start tracking.  The witness is re-validated
        against the graph before anything trusts it.  ``digest``, when the
        caller already holds ``graph``'s content digest, saves computing it.
        """
        if not result.optimal:
            raise InvalidParameterError("seed() requires an optimal result")
        from ..core.defective import is_k_defective_clique

        if result.clique and not is_k_defective_clique(graph, result.clique, k):
            raise InvalidParameterError("seed() witness is not a valid k-defective clique")
        snapshot = graph.copy()
        if digest is None:
            digest = snapshot.content_digest()
        self._install(snapshot, digest, k, result)

    def _install(self, snapshot: Graph, digest: str, k: int, result: SolveResult) -> None:
        self._graph = snapshot
        self._digest = digest
        self._k = k
        self._last_result = result
        self._pending = None
        if not result.optimal:
            # A budget-truncated answer certifies nothing; keep tracking the
            # graph but drop the epoch so the next apply() full-solves.
            self._epoch = None
            return
        relabeled, to_int, to_label = snapshot.relabel()
        decomp = degeneracy_ordering(relabeled)
        self._epoch = _Epoch(
            digest=digest,
            graph=relabeled,
            to_int=dict(to_int),
            to_label=list(to_label),
            ordering=tuple(decomp.ordering),
            position=dict(decomp.position),
            best=[to_int[v] for v in result.clique],
        )

    # ------------------------------------------------------------------ #
    # Delta application
    # ------------------------------------------------------------------ #
    def apply(
        self,
        delta: EdgeDelta,
        *,
        successor: Optional[Graph] = None,
        digest: Optional[str] = None,
        time_limit: Optional[float] = None,
        cancel=None,
    ) -> DeltaSolveReport:
        """Advance the tracked graph by ``delta`` and solve the successor.

        Returns a :class:`DeltaSolveReport` whose ``result`` is exactly what
        a from-scratch solve of the successor would return (same optimum
        size; both witnesses valid).  On an exception — budget trip, cancel,
        injected fault — no state is committed: the solver still tracks the
        predecessor, and retrying the *same* delta resumes from the journal
        of completed anchors instead of restarting.

        A caller that has already built the successor — the service's graph
        store does — passes it with its ``digest``; the solver then keeps a
        reference to it (so it must never be mutated) instead of building
        its own copy.
        """
        if self._graph is None or self._k is None:
            raise InvalidParameterError("no graph tracked yet; call solve() first")
        if (successor is None) != (digest is None):
            raise InvalidParameterError("pass successor and digest together")
        started = time.monotonic()
        parent_digest = self._digest
        if successor is None:
            successor, digest = apply_delta(self._graph, delta)
        k = self._k

        budget = _Budget(started, time_limit, cancel)
        report = self._try_incremental(successor, digest, delta, budget)
        if report is None or report.fallback_reason is not None:
            reason = report.fallback_reason if report is not None else "no-epoch"
            report = self._full_apply(successor, digest, k, reason, budget)
        report.parent_digest = parent_digest or ""
        report.elapsed_seconds = time.monotonic() - started
        return report

    def _full_apply(
        self,
        successor: Graph,
        succ_digest: str,
        k: int,
        reason: Optional[str],
        budget: _Budget,
    ) -> DeltaSolveReport:
        budget()
        time_limit = None
        if budget.deadline is not None:
            # Positive even when the check above passed on the last tick.
            time_limit = max(budget.deadline - time.monotonic(), 1e-6)
        result = self._solver.solve(successor, k, time_limit=time_limit, cancel=budget.cancel)
        if not result.optimal:
            # Tripped by apply()'s own budget: commit nothing, like the
            # incremental route.  A limit in the solver's config still
            # installs the truncated answer (and drops the epoch).
            budget()
        self._install(successor, succ_digest, k, result)
        n = successor.num_vertices
        return DeltaSolveReport(
            result=result,
            digest=succ_digest,
            parent_digest="",
            incremental=False,
            fallback_reason=reason,
            anchors_total=n,
            anchors_affected=n,
            anchors_reused=0,
            anchors_resolved=n,
        )

    def _try_incremental(
        self,
        successor: Graph,
        succ_digest: str,
        delta: EdgeDelta,
        budget: _Budget,
    ) -> Optional[DeltaSolveReport]:
        """The affected-anchors route, or a fallback-tagged report when a
        guard fails (``None`` only when there is no epoch at all)."""
        epoch = self._epoch
        if epoch is None:
            return None
        try:
            rel_delta = delta.relabel(epoch.to_int)
        except KeyError:
            return self._fallback(succ_digest, "new-vertex")

        # The epoch owns its relabeled graph, so the delta goes into it in
        # place; every exit short of a commit (fallback or exception) swaps
        # it back out, leaving the epoch on the predecessor.
        apply_delta_in_place(epoch.graph, rel_delta)
        report = None
        try:
            report = self._resolve_affected(
                epoch, rel_delta, successor, succ_digest, budget
            )
        finally:
            if report is None or not report.incremental:
                epoch.graph.update_edges(rel_delta.removes, rel_delta.adds)
        return report

    def _fallback(self, succ_digest: str, reason: str) -> DeltaSolveReport:
        return DeltaSolveReport(
            result=self._last_result,  # placeholder; _full_apply replaces
            digest=succ_digest,
            parent_digest="",
            incremental=False,
            fallback_reason=reason,
        )

    def _resolve_affected(
        self,
        epoch: _Epoch,
        rel_delta: EdgeDelta,
        successor: Graph,
        succ_digest: str,
        budget: _Budget,
    ) -> DeltaSolveReport:
        """Re-solve the anchors ``rel_delta`` affects on ``epoch.graph``, which
        already carries it: commit and report, or report a fallback."""
        k = self._k
        rel_successor = epoch.graph
        n = len(epoch.ordering)

        # Guard 1: the previous optimum must survive as a valid witness.
        best = epoch.best
        if len(best) < k + 1:
            return self._fallback(succ_digest, "incumbent-below-k+1")
        if rel_successor.count_missing_edges(best) > k:
            return self._fallback(succ_digest, "witness-broken")

        affected = affected_anchors(rel_successor, epoch.position, rel_delta, k)
        if len(affected) > self.max_affected_fraction * n:
            return self._fallback(succ_digest, f"affected-{len(affected)}-of-{n}")

        faults.fire(
            "dynamic.resolve",
            digest=succ_digest,
            parent=epoch.digest,
            affected=len(affected),
            total=n,
        )

        unaffected = [v for v in epoch.ordering if v not in affected]
        carry = self._open_carry(succ_digest, unaffected)
        incumbent = list(best)
        stats = SearchStats()
        solve_started = time.monotonic()
        try:
            solve_decomposed(
                rel_successor, k, self._solver.config, stats, budget, incumbent,
                decomposition=(epoch.ordering, epoch.position),
                checkpoint=carry, deadline=budget.deadline,
            )
        except BaseException:
            # Keep the journal for a same-delta retry; commit nothing.
            carry.close()
            raise
        carry.complete()
        self._pending = None

        stats.backend = "bitset"
        stats.elapsed_seconds = time.monotonic() - solve_started
        clique = sorted(
            (epoch.to_label[v] for v in incumbent),
            key=lambda x: (str(type(x)), str(x)),
        )
        result = SolveResult(
            clique=list(clique),
            size=len(clique),
            k=k,
            optimal=True,
            algorithm=self._solver.name,
            stats=stats,
        )
        # Commit: successor graph in original labels + epoch advanced in
        # relabeled space (the relabeling and ordering persist unchanged —
        # correctness only needs a fixed total order, see delta.py).
        self._graph = successor
        self._digest = succ_digest
        self._last_result = result
        self._epoch = _Epoch(
            digest=succ_digest,
            graph=rel_successor,
            to_int=epoch.to_int,
            to_label=epoch.to_label,
            ordering=epoch.ordering,
            position=epoch.position,
            best=list(incumbent),
        )
        return DeltaSolveReport(
            result=result,
            digest=succ_digest,
            parent_digest="",
            incremental=True,
            anchors_total=n,
            anchors_affected=len(affected),
            anchors_reused=n - len(affected),
            anchors_resolved=len(affected),
        )

    # ------------------------------------------------------------------ #
    # Carry-over store
    # ------------------------------------------------------------------ #
    def _open_carry(self, succ_digest: str, unaffected: Sequence[int]):
        """The carry-over journal for one successor re-solve.

        Durable (:class:`SolveCheckpoint`) when a ``checkpoint_dir`` is set,
        in-memory otherwise; either way the journal holds only the
        *affected* anchors completed so far — the unaffected set is
        recomputed deterministically from the delta on every attempt and
        merged in before the driver snapshots ``completed``, so a resumed
        attempt skips both carried-over and already-re-solved anchors.
        """
        carry = None
        if self.checkpoint_dir is not None:
            try:
                os.makedirs(self.checkpoint_dir, exist_ok=True)
                meta = checkpoint_meta(
                    succ_digest, self._k, f"{self._solver.name}-incremental",
                    self._solver.config,
                )
                path = os.path.join(self.checkpoint_dir, f"{checkpoint_token(meta)}.wal")
                carry = SolveCheckpoint(path, meta)
            except OSError as exc:  # pragma: no cover - disk trouble
                logger.warning("incremental carry-over journal unavailable: %s", exc)
                carry = None
        if carry is None:
            if self._pending is not None and self._pending[0] == succ_digest:
                carry = self._pending[1]
            else:
                carry = _MemoryCarry()
            self._pending = (succ_digest, carry)
        carry.completed.update(unaffected)
        return carry
