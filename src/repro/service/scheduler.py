"""Asynchronous request scheduler batching solve queries onto a worker pool.

:class:`SolverService` accepts many ``(digest, k, budget)`` queries and
answers them with :class:`~repro.core.result.SolveResult` objects, reusing
work at three levels:

1. **prepared artifacts** — every query against the same ``(graph, k,
   prepare-config)`` slot shares one
   :class:`~repro.core.prepared.PreparedInstance` from the
   :class:`~repro.service.store.GraphStore`;
2. **result cache** — once a query has been answered *optimally*, repeated
   queries for the same ``(digest, k, algorithm, backend)`` key are
   served from the cache without re-entering the search engine (the answer
   carries ``stats.cache_hit = True``).  Budget-limited (non-optimal)
   results are never cached, and the cache is LRU-bounded
   (``result_cache_size``) so a long-lived service cannot grow without
   bound;
3. **in-flight coalescing** — identical queries submitted while the first is
   still running attach to its computation instead of solving again.

Concurrency is bounded by a :class:`~concurrent.futures.ThreadPoolExecutor`
of ``max_concurrency`` workers.  The branch-and-bound itself is pure Python
(GIL-bound), so threads mostly interleave; true CPU parallelism comes from
``SolverConfig.workers >= 2``, which farms each solve's ego subproblems to a
process pool — the two levels compose.

Hardening
---------
Three mechanisms keep the service healthy under overload and failure:

* **Deadlines.**  Every request may carry a ``deadline`` (seconds,
  end-to-end; ``default_deadline`` supplies one when the client does not).
  The deadline covers queue wait, artifact preparation and the solve: a
  request still queued at expiry is cancelled by a watchdog thread without
  ever entering the engine, the solve phase runs with its time budget
  clamped to the remaining deadline, and a deadline miss resolves the
  future with a typed
  :class:`~repro.exceptions.DeadlineExceededError` instead of blocking.
* **Admission control.**  ``max_pending`` bounds the submitted-but-not-yet-
  executing queue; beyond it, submissions fast-fail with
  :class:`~repro.exceptions.ServiceOverloadedError` carrying a
  ``retry_after`` estimate derived from the backlog and an exponentially
  weighted average solve time.  Cache hits and coalesced requests are
  always admitted — they cost no engine work.
* **Graceful drain.**  ``close(drain_timeout=...)`` stops admissions,
  waits for in-flight work up to the timeout, then cancels: queued requests
  fail with :class:`~repro.exceptions.ServiceClosedError`, running solves
  are cooperatively interrupted (via the engine's per-node cancel poll) and
  answer with their best-so-far partial result.  Every request is answered
  or typed-failed; none is silently dropped.
"""

from __future__ import annotations

import copy
import logging
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor, wait as futures_wait
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

from ..core.config import VARIANT_NAMES, SolverConfig, variant_config
from ..core.result import SolveResult
from ..core.solver import KDCSolver
from ..dynamic.delta import EdgeDelta
from ..dynamic.incremental import IncrementalSolver
from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownGraphError,
)
from ..graphs.graph import Graph
from ..testing import chaos as faults
from .store import GraphStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistence import ServicePersistence

__all__ = ["SolverService"]

logger = logging.getLogger("repro.service.scheduler")

#: Result-cache key: optimal sizes depend only on the instance and the
#: algorithm, but node/time profiles (and hence *which* optimum is found)
#: depend on the backend, so it is part of the key — one service answering
#: mixed backend queries never conflates their results.
_ResultKey = Tuple[str, int, str, str]

#: In-flight coalescing key: budgets (and the deadline) participate, because
#: a tightly-budgeted query must not be answered by attaching to a
#: generously-budgeted run (or vice versa) — only *identical* requests
#: coalesce.
_RequestKey = Tuple[str, int, str, Optional[float], Optional[int], Optional[float]]

#: Fallback per-solve seconds estimate for ``retry_after`` before the EWMA
#: has seen a completed solve.
_DEFAULT_SOLVE_ESTIMATE_SECONDS = 0.2

#: LRU cap on per-``(k, algorithm)`` incremental-solver states.  Each state
#: holds two copies of one graph plus its decomposition — a handful of hot
#: query shapes is the working set worth that footprint.
_MAX_DYNAMIC_STATES = 8

#: Smoothing factor of the solve-time EWMA behind ``retry_after``.
_EWMA_ALPHA = 0.2

#: Staleness half-life of the EWMA solve-time estimate: while the service
#: is idle, the estimate's excess over the default decays by half every
#: this many seconds, so one slow solve long ago cannot inflate shed-reply
#: ``retry_after`` hints forever (the default acts as the floor).
_EWMA_STALE_HALF_LIFE_SECONDS = 30.0

#: Upper bound the watchdog sleeps between deadline scans even when no
#: deadline is near — bounds how stale its view of a closing service can be.
_WATCHDOG_MAX_WAIT_SECONDS = 0.5

#: After a drain deadline expires and running solves are cooperatively
#: cancelled, how long ``close`` still waits for them to notice (they poll
#: the cancel event at every branch-and-bound node, so this is generous).
_DRAIN_CANCEL_GRACE_SECONDS = 5.0


class _Tracked:
    """Book-keeping of one admitted request.

    ``outer`` is the future handed to the caller; ``inner`` the executor's.
    Decoupling them lets the deadline watchdog and the drain path cancel a
    queued ``inner`` and resolve ``outer`` with a *typed* error instead of a
    bare ``CancelledError``.  ``cancel_reason`` is set by whichever path
    cancels, *before* calling ``inner.cancel()``, so the settle callback
    (which runs synchronously inside ``cancel()``) can read it.
    """

    __slots__ = ("outer", "inner", "deadline_at", "cancel", "started", "cancel_reason")

    def __init__(self, deadline_at: Optional[float]) -> None:
        self.outer: "Future[SolveResult]" = Future()
        self.inner: Optional[Future] = None
        self.deadline_at = deadline_at
        self.cancel = threading.Event()
        self.started = False
        self.cancel_reason: Optional[BaseException] = None


class SolverService:
    """Batching scheduler over a :class:`GraphStore` and a worker pool.

    Parameters
    ----------
    store:
        Graph store to serve from; a fresh private one when omitted.
    config:
        Execute configuration for ``algorithm="kDC"`` queries (backend,
        workers, ...).  Named variant queries inherit its backend/workers
        knobs on top of the variant's feature flags.
    max_concurrency:
        Upper bound on simultaneously executing solves (default 4).
    max_pending:
        Admission-control bound on the submitted-but-not-executing queue;
        beyond it submissions raise :class:`ServiceOverloadedError`
        (``None`` = unbounded, the default).
    default_deadline:
        End-to-end deadline (seconds) applied to every request that does
        not carry its own (``None`` = no default).
    result_cache_size:
        LRU cap on the optimal-result cache (default 1024; ``None`` =
        unbounded).
    persistence:
        Optional :class:`~repro.service.persistence.ServicePersistence`
        making the service durable: on construction the optimal-result
        journal is replayed into the cache (and, when ``store`` is omitted,
        the private store is built over the same persistence so graph and
        prepared-artifact snapshots restore too); afterwards every optimal
        result is journaled and every decomposed solve checkpoints its
        subproblem progress, so a killed service restarted on the same
        state directory answers warm and resumes interrupted solves instead
        of recomputing from zero.  All persistence I/O is best-effort: a
        failing disk degrades the service to in-memory operation with a
        warning, it never fails a request.
    """

    def __init__(
        self,
        store: Optional[GraphStore] = None,
        config: Optional[SolverConfig] = None,
        max_concurrency: int = 4,
        max_pending: Optional[int] = None,
        default_deadline: Optional[float] = None,
        result_cache_size: Optional[int] = 1024,
        persistence: Optional["ServicePersistence"] = None,
    ) -> None:
        if max_concurrency < 1:
            raise InvalidParameterError("max_concurrency must be a positive integer")
        if max_pending is not None and max_pending < 1:
            raise InvalidParameterError("max_pending must be a positive integer or None")
        if default_deadline is not None and default_deadline <= 0:
            raise InvalidParameterError("default_deadline must be positive or None")
        if result_cache_size is not None and result_cache_size < 1:
            raise InvalidParameterError("result_cache_size must be a positive integer or None")
        self._persistence = persistence
        self.store = store if store is not None else GraphStore(persistence=persistence)
        self.config = config if config is not None else SolverConfig()
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self.default_deadline = default_deadline
        self.result_cache_size = result_cache_size
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-solve"
        )
        self._lock = threading.Lock()
        self._deadline_cond = threading.Condition(self._lock)
        self._results: "OrderedDict[_ResultKey, SolveResult]" = OrderedDict()
        self._inflight: Dict[_RequestKey, "Future[SolveResult]"] = {}
        self._tracked: Set[_Tracked] = set()
        self._watchdog: Optional[threading.Thread] = None
        # Incremental solving over mutated graphs: one IncrementalSolver per
        # hot (k, algorithm) shape, advanced delta-by-delta when a solve
        # targets a descendant of its tracked digest.  Guarded by its own
        # lock so a (potentially long) incremental re-solve never blocks
        # submissions, stats or the watchdog.
        self._dynamic: "OrderedDict[Tuple[int, str], IncrementalSolver]" = OrderedDict()
        self._dynamic_lock = threading.Lock()
        self._requests = 0
        self._solves = 0
        self._cache_hits = 0
        self._coalesced = 0
        self._queued = 0
        self._shed = 0
        self._deadline_expired = 0
        self._drain_cancelled = 0
        self._result_evictions = 0
        self._restored_results = 0
        self._incremental_hits = 0
        self._anchors_reused = 0
        self._anchors_resolved = 0
        self._ewma_solve_seconds = 0.0
        self._ewma_updated = time.monotonic()
        self._closed = False
        if persistence is not None:
            self._replay_results()

    def _replay_results(self) -> None:
        """Warm the result cache from the persistence journal (never fatal)."""
        try:
            entries = self._persistence.replay_results()
        except Exception:
            logger.warning("replaying the results journal failed; starting cold",
                           exc_info=True)
            return
        kept: "OrderedDict[_ResultKey, SolveResult]" = OrderedDict()
        migrated = False
        for key, result in entries:
            if len(key) == 5:
                # Written when the key still ended in the bitset engine's
                # name; optimal answers do not depend on it.
                key = key[:4]
                migrated = True
            if len(key) != 4 or not result.optimal:
                continue
            kept[key] = result
            kept.move_to_end(key)
        if self.result_cache_size is not None:
            while len(kept) > self.result_cache_size:
                kept.popitem(last=False)
        self._results = kept
        self._restored_results = len(kept)
        if migrated or len(kept) != len(entries):
            # Journal had old-format keys, duplicates, damage or more entries
            # than the cache keeps: compact it to exactly what was restored.
            try:
                self._persistence.rewrite_results(list(kept.items()))
            except Exception:
                logger.warning("compacting the results journal failed", exc_info=True)

    # ------------------------------------------------------------------ #
    # Configuration plumbing
    # ------------------------------------------------------------------ #
    def _solver_for(self, algorithm: str) -> KDCSolver:
        """Build the solver answering ``algorithm`` queries.

        ``"kDC"`` uses the service configuration as-is; other named variants
        take their feature flags from :func:`variant_config` and inherit the
        service's execute-side knobs, so e.g. a bitset service answers
        ``kDC/UB1`` queries with the bitset backend too.
        """
        if algorithm == "kDC":
            return KDCSolver(self.config, name="kDC")
        if algorithm not in VARIANT_NAMES:
            raise InvalidParameterError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(VARIANT_NAMES)}"
            )
        cfg = variant_config(algorithm)
        cfg = replace(
            cfg,
            backend=self.config.backend,
            workers=self.config.workers,
            decompose_threshold=self.config.decompose_threshold,
        )
        return KDCSolver(cfg, name=algorithm)

    def _result_key(self, digest: str, k: int, algorithm: str) -> _ResultKey:
        return (digest, k, algorithm, self.config.backend)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        digest: str,
        k: int,
        *,
        algorithm: str = "kDC",
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> "Future[SolveResult]":
        """Enqueue a solve query; returns a future resolving to its result.

        Parameters beyond the query itself:

        deadline:
            End-to-end budget in seconds for this request (queue wait +
            prepare + solve).  Defaults to the service's
            ``default_deadline``.  On expiry the future fails with
            :class:`DeadlineExceededError` — a request still queued is
            cancelled without entering the engine; a running solve is
            clamped to the remaining time.  Contrast ``time_limit``, which
            bounds only the solve phase and yields a partial
            (``optimal=False``) result rather than an error.

        Raises
        ------
        UnknownGraphError
            Immediately (not through the future) when ``digest`` is not in
            the store.
        ServiceOverloadedError
            Immediately, when admission control sheds the request because
            the pending queue is at ``max_pending``.  Carries
            ``retry_after``.
        ServiceClosedError
            When the service has been closed — including a submit racing a
            concurrent :meth:`close` (the closed check and the executor
            hand-off happen under one lock, so a request either lands before
            the shutdown or fails with this catchable error, never with the
            executor's raw ``RuntimeError``).
        """
        self.store.get(digest)  # fail fast on unknown digests
        self._solver_for(algorithm)  # fail fast on unknown algorithms
        if deadline is None:
            deadline = self.default_deadline
        if deadline is not None and deadline <= 0:
            raise InvalidParameterError("deadline must be positive")
        deadline_at = time.monotonic() + deadline if deadline is not None else None
        request_key: _RequestKey = (digest, k, algorithm, time_limit, node_limit, deadline)
        submitted = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ServiceClosedError()
            self._requests += 1
            cached = self._results.get(self._result_key(digest, k, algorithm))
            if cached is not None:
                self._results.move_to_end(self._result_key(digest, k, algorithm))
                self._cache_hits += 1
                done: "Future[SolveResult]" = Future()
                done.set_result(self._cache_hit_copy(cached))
                return done
            running = self._inflight.get(request_key)
            if running is not None:
                self._coalesced += 1
                return self._follow(running)
            if self.max_pending is not None and self._queued >= self.max_pending:
                self._shed += 1
                retry_after = self._retry_after_locked()
                logger.warning(
                    "shedding request (digest=%s k=%d queue_depth=%d retry_after=%.2fs)",
                    digest[:12], k, self._queued, retry_after,
                )
                raise ServiceOverloadedError(
                    retry_after=retry_after, queue_depth=self._queued
                )
            entry = _Tracked(deadline_at)
            try:
                entry.inner = self._executor.submit(
                    self._run, entry, digest, k, algorithm,
                    time_limit, node_limit, deadline_at, deadline, submitted,
                )
            except RuntimeError as exc:  # executor shut down out-of-band
                raise ServiceClosedError() from exc
            self._queued += 1
            self._tracked.add(entry)
            self._inflight[request_key] = entry.outer
            if deadline_at is not None:
                self._ensure_watchdog_locked()
                self._deadline_cond.notify_all()
        entry.inner.add_done_callback(lambda inner: self._settle(entry, request_key, inner))
        return entry.outer

    def mutate(
        self,
        ref: str,
        adds=(),
        removes=(),
        name: Optional[str] = None,
    ) -> Dict[str, object]:
        """Apply an edge delta to a stored graph; return the successor's info.

        ``ref`` is a digest or a graph name (see
        :meth:`GraphStore.resolve`).  The successor is stored under its own
        content digest with a parent link, so a later solve of it can be
        answered incrementally from the predecessor's solve.  Returns
        ``{"digest", "parent", "n", "m", "adds", "removes"}``.

        Raises :class:`~repro.exceptions.UnknownGraphError` for an unknown
        ``ref``, the delta's own validation errors
        (:class:`~repro.exceptions.InvalidParameterError`,
        :class:`~repro.exceptions.EdgeNotFoundError`,
        :class:`~repro.exceptions.SelfLoopError`) when it does not describe
        a real transition, and :class:`ServiceClosedError` after close.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError()
        digest = self.store.resolve(ref)
        delta = EdgeDelta(adds=adds, removes=removes)
        successor = self.store.apply_delta(digest, delta, name=name)
        graph = self.store.get(successor)
        return {
            "digest": successor,
            "parent": digest,
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "adds": len(delta.adds),
            "removes": len(delta.removes),
        }

    def solve(
        self,
        graph_or_digest: Union[Graph, str],
        k: int,
        *,
        algorithm: str = "kDC",
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> SolveResult:
        """Synchronous convenience: submit one query and wait for its answer.

        A :class:`~repro.graphs.graph.Graph` argument is added to the store
        first (a no-op when already present).
        """
        if isinstance(graph_or_digest, Graph):
            digest = self.store.add(graph_or_digest)
        else:
            digest = graph_or_digest
        return self.submit(
            digest, k, algorithm=algorithm, time_limit=time_limit,
            node_limit=node_limit, deadline=deadline,
        ).result()

    # ------------------------------------------------------------------ #
    # Admission control internals
    # ------------------------------------------------------------------ #
    def _retry_after_locked(self) -> float:
        """Estimate (seconds) until capacity frees up, from backlog x EWMA solve time.

        The EWMA only updates when a solve completes, so without correction
        one pathologically slow solve would inflate every shed reply until
        the *next* completion — which overload may be actively preventing.
        The estimate's excess over the cold-start default therefore decays
        with the time since the last completion
        (:data:`_EWMA_STALE_HALF_LIFE_SECONDS` half-life), flooring at the
        default instead of at the stale measurement.
        """
        estimate = self._ewma_solve_seconds or _DEFAULT_SOLVE_ESTIMATE_SECONDS
        if estimate > _DEFAULT_SOLVE_ESTIMATE_SECONDS:
            idle = max(0.0, time.monotonic() - self._ewma_updated)
            estimate = _DEFAULT_SOLVE_ESTIMATE_SECONDS + (
                estimate - _DEFAULT_SOLVE_ESTIMATE_SECONDS
            ) * 0.5 ** (idle / _EWMA_STALE_HALF_LIFE_SECONDS)
        backlog = max(1, len(self._tracked))
        return min(30.0, max(0.05, backlog * estimate / self.max_concurrency))

    # ------------------------------------------------------------------ #
    # Deadline watchdog
    # ------------------------------------------------------------------ #
    def _ensure_watchdog_locked(self) -> None:
        if self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="repro-deadline", daemon=True
            )
            self._watchdog.start()

    def _watchdog_loop(self) -> None:
        """Cancel queued requests whose deadline expired, with a typed error.

        Only *queued* (not yet started) requests are the watchdog's job —
        a running solve already has its time budget clamped to the deadline
        and resolves itself.  Cancellation happens outside the lock because
        ``Future.cancel`` runs the settle callback synchronously.
        """
        while True:
            with self._lock:
                if self._closed and not self._tracked:
                    return
                now = time.monotonic()
                expired: List[_Tracked] = []
                next_deadline: Optional[float] = None
                for entry in self._tracked:
                    if entry.deadline_at is None or entry.started:
                        continue
                    if entry.deadline_at <= now:
                        expired.append(entry)
                        entry.deadline_at = None  # handled; never re-scanned
                    elif next_deadline is None or entry.deadline_at < next_deadline:
                        next_deadline = entry.deadline_at
                if not expired:
                    timeout = _WATCHDOG_MAX_WAIT_SECONDS
                    if next_deadline is not None:
                        timeout = min(timeout, max(0.0, next_deadline - now))
                    self._deadline_cond.wait(timeout)
                    continue
            for entry in expired:
                entry.cancel_reason = DeadlineExceededError(
                    "deadline expired while the request was queued; cancelled before execution"
                )
                # cancel() fails iff the run started in the meantime — then
                # the run's own deadline checks take over.
                entry.inner.cancel()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _settle(self, entry: _Tracked, request_key: _RequestKey, inner: Future) -> None:
        """Inner-future completion: book-keeping, then resolve the outer future."""
        with self._lock:
            self._tracked.discard(entry)
            if self._inflight.get(request_key) is entry.outer:
                del self._inflight[request_key]
            if not entry.started:
                self._queued -= 1
        if inner.cancelled():
            exc: Optional[BaseException] = entry.cancel_reason or ServiceClosedError(
                "request cancelled"
            )
        else:
            exc = inner.exception()
        if exc is not None:
            if isinstance(exc, DeadlineExceededError):
                with self._lock:
                    self._deadline_expired += 1
                logger.info("request failed deadline (digest=%s k=%s): %s",
                            request_key[0][:12], request_key[1], exc)
            entry.outer.set_exception(exc)
        else:
            entry.outer.set_result(inner.result())

    def _follow(self, running: "Future[SolveResult]") -> "Future[SolveResult]":
        """Attach a coalesced request to an in-flight computation.

        The follower receives a cache-hit-marked copy (its answer cost no
        engine work of its own); a failed primary propagates its exception.
        """
        follower: "Future[SolveResult]" = Future()

        def _chain(primary: "Future[SolveResult]") -> None:
            exc = primary.exception()
            if exc is not None:
                follower.set_exception(exc)
            else:
                follower.set_result(self._cache_hit_copy(primary.result()))

        running.add_done_callback(_chain)
        return follower

    def _run(
        self,
        entry: _Tracked,
        digest: str,
        k: int,
        algorithm: str,
        time_limit: Optional[float],
        node_limit: Optional[int],
        deadline_at: Optional[float],
        deadline: Optional[float],
        submitted: float,
    ) -> SolveResult:
        with self._lock:
            entry.started = True
            self._queued -= 1
        started = time.perf_counter()
        if deadline_at is not None and time.monotonic() >= deadline_at:
            # The watchdog lost the race to cancel us; same typed outcome.
            raise DeadlineExceededError(
                "deadline expired while the request was queued; cancelled before execution"
            )
        solver = self._solver_for(algorithm)
        prepare_ms = 0.0
        result = self._incremental_result(
            entry, digest, k, algorithm, time_limit, deadline_at
        )
        if result is None:
            prepared = self.store.prepared(digest, k, solver.config)
            prepare_ms = (time.perf_counter() - started) * 1000.0

            effective_limit = time_limit
            deadline_bound = False
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"deadline of {deadline:.3f}s expired during preparation"
                    )
                if effective_limit is None or remaining < effective_limit:
                    effective_limit = remaining
                    deadline_bound = True
            faults.fire("scheduler.solve", digest=digest, k=k)
            checkpoint = None
            if self._persistence is not None:
                # Best-effort: a solve that cannot checkpoint (journal owned by
                # a concurrent identical solve, unwritable state dir) still runs
                # — it just cannot be resumed if interrupted.
                try:
                    checkpoint = self._persistence.open_checkpoint(
                        digest, k, algorithm, solver.config
                    )
                except Exception:
                    logger.warning("opening solve checkpoint failed (digest=%s k=%d)",
                                   digest[:12], k, exc_info=True)
            try:
                result = solver.solve_prepared(
                    prepared, k,
                    time_limit=effective_limit, node_limit=node_limit, cancel=entry.cancel,
                    checkpoint=checkpoint,
                )
            except BaseException:
                # Keep the journal: whatever the solve recorded before crashing
                # is exactly what a retry or a restart resumes from.
                if checkpoint is not None:
                    checkpoint.close()
                raise
            if checkpoint is not None:
                # Optimal answers retire the journal; interrupted ones (budget,
                # deadline clamp, drain cancel) keep it for the resume.
                if result.optimal:
                    checkpoint.complete()
                else:
                    checkpoint.close()
            if not result.optimal and not entry.cancel.is_set():
                # A drain-cancelled solve answers with its partial result; a
                # deadline-clamped one reports the miss as a typed error.  A miss
                # of the caller's own time/node budget keeps the partial-result
                # contract it always had.
                node_budget_hit = node_limit is not None and result.stats.nodes >= node_limit
                if deadline_bound and not node_budget_hit:
                    raise DeadlineExceededError(
                        f"deadline of {deadline:.3f}s exceeded during solve "
                        f"(best size so far: {result.size})"
                    )
            if result.optimal:
                # A fresh optimal solve (re-)anchors the incremental state for
                # this (k, algorithm) shape, so later solves of this graph's
                # mutations go through the delta route.
                self._seed_dynamic(digest, k, algorithm, result)
        result.stats.queue_ms = (started - submitted) * 1000.0
        result.stats.prepare_ms = prepare_ms
        wal_entry: Optional[Tuple[_ResultKey, SolveResult]] = None
        with self._lock:
            self._solves += 1
            solve_seconds = time.perf_counter() - started
            if self._ewma_solve_seconds:
                self._ewma_solve_seconds += _EWMA_ALPHA * (
                    solve_seconds - self._ewma_solve_seconds
                )
            else:
                self._ewma_solve_seconds = solve_seconds
            self._ewma_updated = time.monotonic()
            if result.optimal:
                key = self._result_key(digest, k, algorithm)
                if key not in self._results:
                    # Cache a private copy, never the object handed to the
                    # caller: a caller mutating its answer (clique list,
                    # stats) must not corrupt every later cache hit.
                    stored = self._copy_result(result)
                    self._results[key] = stored
                    wal_entry = (key, stored)
                self._results.move_to_end(key)
                if self.result_cache_size is not None:
                    while len(self._results) > self.result_cache_size:
                        self._results.popitem(last=False)
                        self._result_evictions += 1
        if wal_entry is not None and self._persistence is not None:
            # Outside the lock — the journal append fsyncs, and durability
            # of one result must not stall every concurrent submission.
            try:
                self._persistence.append_result(*wal_entry)
            except Exception:
                logger.warning("journaling optimal result failed (digest=%s k=%d)",
                               digest[:12], k, exc_info=True)
        return result

    # ------------------------------------------------------------------ #
    # Incremental solving over mutated graphs
    # ------------------------------------------------------------------ #
    def _incremental_result(
        self,
        entry: _Tracked,
        digest: str,
        k: int,
        algorithm: str,
        time_limit: Optional[float],
        deadline_at: Optional[float],
    ) -> Optional[SolveResult]:
        """Answer via the delta route when a predecessor solve is available.

        Walks the store's digest chain from this ``(k, algorithm)`` shape's
        tracked snapshot to ``digest``, applying each delta through the
        :class:`IncrementalSolver`.  Returns ``None`` whenever the route
        does not apply or anything goes wrong — the caller falls back to
        the ordinary prepared/solve path, so this is an accelerator, never
        a correctness dependency.  Exercised (and failure-injected) via the
        ``dynamic.resolve`` chaos point.
        """
        with self._dynamic_lock:
            state = self._dynamic.get((k, algorithm))
            if state is None or state.digest == digest:
                return None
            chain = self.store.delta_chain(state.digest, digest)
            if not chain:
                return None
            reused = 0
            resolved = 0
            try:
                faults.fire("dynamic.resolve", digest=digest, k=k,
                            algorithm=algorithm, steps=len(chain))
                report = None
                for succ_digest, delta in chain:
                    step_limit = time_limit
                    if deadline_at is not None:
                        remaining = deadline_at - time.monotonic()
                        if remaining <= 0:
                            return None  # normal path raises the typed error
                        if step_limit is None or remaining < step_limit:
                            step_limit = remaining
                    # The store already built (and digested) the successor;
                    # an LRU-evicted one is rebuilt from the delta instead.
                    try:
                        successor = self.store.get(succ_digest)
                    except UnknownGraphError:
                        successor, succ_digest = None, None
                    report = state.apply(
                        delta, successor=successor, digest=succ_digest,
                        time_limit=step_limit, cancel=entry.cancel,
                    )
                    reused += report.anchors_reused
                    resolved += report.anchors_resolved
                if report is None or state.digest != digest or not report.result.optimal:
                    return None
            except Exception:
                logger.warning(
                    "incremental solve failed (digest=%s k=%d); falling back to full solve",
                    digest[:12], k, exc_info=True,
                )
                return None
            self._dynamic.move_to_end((k, algorithm))
        with self._lock:
            self._incremental_hits += 1
            self._anchors_reused += reused
            self._anchors_resolved += resolved
        # Hand out a private copy: the state keeps its own references alive
        # across future deltas, and callers may mutate their answers.
        return self._copy_result(report.result)

    def _seed_dynamic(
        self, digest: str, k: int, algorithm: str, result: SolveResult
    ) -> None:
        """Adopt a fresh optimal result as the incremental epoch (best-effort)."""
        try:
            graph = self.store.get(digest)
        except UnknownGraphError:
            return
        try:
            with self._dynamic_lock:
                state = self._dynamic.get((k, algorithm))
                if state is None:
                    checkpoint_dir = None
                    if self._persistence is not None:
                        checkpoint_dir = self._persistence.checkpoints_dir
                    state = IncrementalSolver(
                        self._solver_for(algorithm).config,
                        name=algorithm,
                        checkpoint_dir=checkpoint_dir,
                    )
                    self._dynamic[(k, algorithm)] = state
                state.seed(graph, k, result, digest=digest)
                self._dynamic.move_to_end((k, algorithm))
                while len(self._dynamic) > _MAX_DYNAMIC_STATES:
                    self._dynamic.popitem(last=False)
        except Exception:
            logger.warning("seeding incremental state failed (digest=%s k=%d)",
                           digest[:12], k, exc_info=True)

    @staticmethod
    def _copy_result(result: SolveResult) -> SolveResult:
        """A deep-enough independent copy of ``result``.

        The clique list and the stats object (including its mutable
        ``reductions`` dict) are what callers can reach and mutate; both are
        copied.  Used on the cache's write side (so the cached entry is
        isolated from the first caller) and by :meth:`_cache_hit_copy` on
        its read side (so no two callers share an answer either).
        """
        return SolveResult(
            clique=list(result.clique),
            size=result.size,
            k=result.k,
            optimal=result.optimal,
            algorithm=result.algorithm,
            stats=copy.deepcopy(result.stats),
        )

    @classmethod
    def _cache_hit_copy(cls, result: SolveResult) -> SolveResult:
        """An independent copy of a cached answer, marked ``cache_hit``.

        Search counters (nodes, prunes, ...) are preserved — they describe
        the run that produced the answer — while the request-level timings
        are zeroed: this request spent no measurable time preparing or
        searching.
        """
        out = cls._copy_result(result)
        out.stats.cache_hit = True
        out.stats.queue_ms = 0.0
        out.stats.prepare_ms = 0.0
        out.stats.solve_ms = 0.0
        out.stats.elapsed_seconds = 0.0
        return out

    # ------------------------------------------------------------------ #
    # Lifecycle and introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Service counters plus the underlying store's counters."""
        with self._lock:
            data: Dict[str, object] = {
                "requests": self._requests,
                "solves": self._solves,
                "cache_hits": self._cache_hits,
                "coalesced": self._coalesced,
                "max_concurrency": self.max_concurrency,
                "queue_depth": self._queued,
                "inflight": len(self._tracked),
                "shed": self._shed,
                "deadline_expired": self._deadline_expired,
                "drain_cancelled": self._drain_cancelled,
                "result_cache_entries": len(self._results),
                "result_cache_evictions": self._result_evictions,
                "restored_results": self._restored_results,
                "incremental_hits": self._incremental_hits,
                "anchors_reused": self._anchors_reused,
                "anchors_resolved": self._anchors_resolved,
            }
        data.update(self.store.stats())
        return data

    def close(self, drain_timeout: Optional[float] = None) -> None:
        """Stop admissions, drain in-flight work, then shut the pool down.

        The closed flag is flipped under the submission lock: any submit
        holding the lock finishes its executor hand-off first, and every
        later submit sees the flag and raises
        :class:`~repro.exceptions.ServiceClosedError`.

        Parameters
        ----------
        drain_timeout:
            ``None`` (default) waits for every in-flight request to finish,
            as before.  A number bounds the drain: after ``drain_timeout``
            seconds, still-queued requests are cancelled with
            :class:`ServiceClosedError` and running solves are cooperatively
            interrupted — they answer promptly with their best-so-far
            partial result (``optimal=False``).
        """
        with self._lock:
            self._closed = True
            tracked = list(self._tracked)
            self._deadline_cond.notify_all()
        if drain_timeout is None:
            self._executor.shutdown(wait=True)
            self._close_persistence()
            return
        pending = [entry.outer for entry in tracked]
        if pending:
            logger.info("draining %d in-flight request(s) for up to %.2fs",
                        len(pending), drain_timeout)
            futures_wait(pending, timeout=drain_timeout)
        leftovers = [entry for entry in tracked if not entry.outer.done()]
        for entry in leftovers:
            entry.cancel_reason = ServiceClosedError(
                "service drain deadline expired; request cancelled"
            )
            if not entry.inner.cancel():
                # Already running: cooperative cancel via the engine's
                # per-node poll; it returns a partial result promptly.
                entry.cancel.set()
        if leftovers:
            with self._lock:
                self._drain_cancelled += len(leftovers)
            logger.warning("drain deadline expired: cancelled %d request(s)", len(leftovers))
            futures_wait([e.outer for e in leftovers], timeout=_DRAIN_CANCEL_GRACE_SECONDS)
        self._executor.shutdown(wait=False)
        self._close_persistence()

    def _close_persistence(self) -> None:
        if self._persistence is not None:
            try:
                self._persistence.close()
            except Exception:
                logger.warning("closing persistence failed", exc_info=True)

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
