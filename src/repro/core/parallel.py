"""Worker pool for the degeneracy decomposition: ego subproblems across processes.

The per-vertex ego subproblems of :mod:`repro.core.decompose` are independent
once the incumbent lower bound is shared — exactly the structure Chang's kDC
implementation exploits to scale to million-edge inputs.  When
``config.workers >= 2``, :func:`repro.core.decompose.solve_decomposed` (the
one decomposition driver) hands its anchors to this module's
:mod:`multiprocessing` pool:

* the driver computes the degeneracy ordering once; the adjacency lists, the
  position map and the solver configuration reach each worker via the pool
  initializer (one pickle per worker, not per task);
* the current best *size* is broadcast through shared memory; each worker
  refreshes its local lower bound from it before building every subproblem,
  so an improvement found by any worker immediately tightens the core
  certificate and the candidate filters everywhere else;
* the best *vertices* stay worker-local and travel back to the parent with
  each finished batch, where they are merged into the caller's incumbent;
* each worker solves its ego subproblems with the bitset engine; the
  trail/worklist counters a batch collects are merged into the parent's
  :class:`~repro.core.result.SearchStats` with everything else.

Shared state is deliberately crash-tolerant: the best-size and node-counter
cells are *raw* (lockless) shared values read without any lock, and the
separate locks guarding their read-modify-write updates are only ever taken
with a timeout — a worker SIGKILLed while holding one can therefore stall
peers for at most the timeout, never deadlock them.

Determinism
-----------
Worker scheduling changes which subproblems get pruned by a tightened bound,
so node counts and wall-clock vary between runs — but the returned *size* is
identical for every worker count: each subproblem is an exact search over a
candidate restriction that is sound for any lower bound below the optimum,
and the optimum's anchor subproblem can only be skipped when a solution at
least as large has already been recorded.

Budgets
-------
The wall-clock deadline is shipped to workers as a ``time.monotonic`` value
(system-wide on the platforms we target), polled at every engine node.  The
node budget is enforced against the shared counter: each worker accumulates
a private count, flushes it into the counter every
:data:`_NODE_FLUSH_INTERVAL` nodes (plus a final flush when its batch ends),
and raises as soon as the shared total plus its private count reaches the
limit — the raise does not depend on the flush succeeding, so enforcement
survives even an orphaned counter lock.  A worker that trips a budget
returns its partial result flagged (improvements the engine recorded before
the interrupt are salvaged); the parent drains every already-completed
batch, terminates the pool, and raises
:class:`~repro.exceptions.BudgetExceededError` so the solve reports
``optimal=False`` with the best solution found anywhere.

Worker loss
-----------
``multiprocessing.Pool`` silently respawns a worker that dies abruptly (e.g.
OOM-killed) but the batch it was running is lost and its result never
arrives.  The parent waits with a timeout and watches the pool's own worker
processes for pid turnover (with a generous empty-poll watchdog as the
backstop on runtimes where the pool's worker list is not introspectable).
On a detected loss it drains whatever did complete and retries on a fresh
pool with fresh shared state; any anchors still unaccounted after the pool
rounds go back to the driver, whose in-process loop finishes and journals
them, so the solve stays exact instead of hanging forever.  One subtlety
makes the retry sound: a dying worker may have *published* a best size whose
witness vertices died with it (a "phantom" bound that pruned other
subproblems without any backing solution reaching the parent).  Each round
therefore starts its bound cell from the parent's verified incumbent, and a
round that ends with a bound exceeding what the parent actually holds
re-queues every batch it merged — anything pruned against the unbacked
bound gets re-searched.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .checkpoint import SolveCheckpoint

from ..exceptions import BudgetExceededError
from ..testing import chaos as faults
from .config import SolverConfig
from .decompose import solve_anchor
from .result import SearchStats

__all__: List[str] = []

#: Engine polls between unconditional flushes of a worker's private node
#: count into the shared counter (the limit itself is checked against
#: ``shared + private`` at every poll, independently of flushing).
_NODE_FLUSH_INTERVAL = 64

#: Upper bound on the number of anchors per pool task: big enough to
#: amortise the IPC round-trip, small enough that the shared bound is
#: re-read (and results stream back) frequently.
_MAX_BATCH_SIZE = 64

#: Seconds the parent waits for a result before polling its own budget and
#: checking worker liveness.
_RESULT_POLL_SECONDS = 0.2

#: Timeout for every acquisition of a shared-state lock (parent and worker
#: side): bounds the stall a lock orphaned by a killed process can cause.
#: On failure the update is skipped or retried later — never blocked on.
_LOCK_TIMEOUT_SECONDS = 1.0

#: Pool rounds before the driver's in-process loop takes the remainder: the
#: initial round plus one full-parallelism retry after a worker death.
_MAX_POOL_ROUNDS = 2

#: No-hang backstop when the pool's worker list is not introspectable (pid
#: turnover invisible): consecutive empty result polls before a round is
#: abandoned.  Generous — ~5 minutes — because abandoning early only costs
#: wall-clock (the batches re-run via retry or in-process recovery), while a
#: legitimate batch rarely stays silent this long.
_MAX_BLIND_EMPTY_POLLS = 1500

# Per-worker-process context installed by _init_worker (a module global is
# the standard way to hand pool workers their initializer state).
_CTX: Optional["_WorkerContext"] = None


class _WorkerContext:
    """Read-mostly per-process state shared by every task a worker runs.

    ``best_size`` and ``node_counter`` are raw (lockless) shared values;
    ``best_lock`` / ``counter_lock`` guard their read-modify-write updates
    and are only ever acquired with :data:`_LOCK_TIMEOUT_SECONDS`.
    """

    __slots__ = ("adj", "position", "k", "config", "best_size", "best_lock",
                 "node_counter", "counter_lock", "node_limit", "deadline")

    def __init__(self, adj, position, k, config, best_size, best_lock,
                 node_counter, counter_lock, node_limit, deadline) -> None:
        self.adj = adj
        self.position = position
        self.k = k
        self.config = config
        self.best_size = best_size
        self.best_lock = best_lock
        self.node_counter = node_counter
        self.counter_lock = counter_lock
        self.node_limit = node_limit
        self.deadline = deadline


def _init_worker(
    adj: Dict[int, Tuple[int, ...]],
    position: Dict[int, int],
    k: int,
    config: SolverConfig,
    best_size,
    best_lock,
    node_counter,
    counter_lock,
    node_limit: Optional[int],
    deadline: Optional[float],
) -> None:
    global _CTX
    _CTX = _WorkerContext(adj, position, k, config, best_size, best_lock,
                          node_counter, counter_lock, node_limit, deadline)


def _publish_best(best_size, best_lock, size: int) -> None:
    """Raise the shared best-size cell to ``size`` (best-effort, timed lock).

    Publishing only accelerates pruning elsewhere, so on a lock-acquire
    timeout (e.g. the lock died with a killed worker) the update is simply
    skipped.
    """
    if size > best_size.value and best_lock.acquire(timeout=_LOCK_TIMEOUT_SECONDS):
        try:
            if size > best_size.value:
                best_size.value = size
        finally:
            best_lock.release()


def _make_budget_check(
    ctx: "_WorkerContext",
) -> Tuple[Callable[[], None], Callable[[], None], Callable[[], None]]:
    """Return ``(node_check, poll, flush)`` for one task.

    ``node_check`` is handed to the engine, whose contract is one call per
    branch-and-bound node: it counts the node into the worker's private
    count, raises when the shared total plus the private count reaches the
    limit (independently of any lock), and opportunistically flushes the
    private count every :data:`_NODE_FLUSH_INTERVAL` nodes.  ``poll`` is the
    anchor-loop check: it tests the deadline and the already-spent node
    total without counting anything — mirroring the in-process loop, where
    per-anchor budget checks compare ``stats.nodes`` but only engine nodes
    increment it.  ``flush`` pushes any residual private count into the
    shared counter (called when the batch ends, so small batches cannot
    silently under-report their spend).
    """
    pending = [0]

    def flush() -> None:
        if pending[0] and ctx.counter_lock.acquire(timeout=_LOCK_TIMEOUT_SECONDS):
            try:
                ctx.node_counter.value += pending[0]
                pending[0] = 0
            finally:
                ctx.counter_lock.release()

    def node_check() -> None:
        if ctx.deadline is not None and time.monotonic() > ctx.deadline:
            raise BudgetExceededError("time limit exceeded")
        limit = ctx.node_limit
        if limit is not None:
            pending[0] += 1
            if ctx.node_counter.value + pending[0] >= limit:
                flush()
                raise BudgetExceededError("node limit exceeded")
            if pending[0] >= _NODE_FLUSH_INTERVAL:
                flush()

    def poll() -> None:
        if ctx.deadline is not None and time.monotonic() > ctx.deadline:
            raise BudgetExceededError("time limit exceeded")
        limit = ctx.node_limit
        if limit is not None and ctx.node_counter.value + pending[0] >= limit:
            raise BudgetExceededError("node limit exceeded")

    return node_check, poll, flush


def _solve_batch(task: Tuple[int, Sequence[int]]):
    """Solve one batch of anchor subproblems inside a worker process.

    ``task`` is ``(index, anchors)``; returns ``(index, local_best, stats,
    exceeded)`` where ``local_best`` is the best solution found by this
    batch in instance-graph vertex ids (empty when nothing beat the shared
    bound), ``stats`` carries this batch's counters (including subproblem
    counts), and ``exceeded`` flags a budget interruption (the other fields
    still hold the partial result).
    """
    index, anchors = task
    ctx = _CTX
    assert ctx is not None, "_solve_batch called outside an initialised worker"
    # Chaos fault point: lets the fault-injection harness kill this worker
    # process (plain or after publishing a phantom bound) or delay a batch,
    # deterministically pinned by batch index.  No-op outside chaos tests.
    faults.fire("parallel.batch", index=index, best_size=ctx.best_size)
    stats = SearchStats()
    node_check, poll, flush = _make_budget_check(ctx)
    adj = ctx.adj
    position = ctx.position
    k = ctx.k
    best_size = ctx.best_size
    local_best: List[int] = []
    exceeded = False
    try:
        try:
            for v in anchors:
                poll()
                lb = max(best_size.value, len(local_best))
                # The engine treats the incumbent list as lower bound *and*
                # output.  When another worker owns the current bound, hand
                # the anchor solve a placeholder of that length: its contents
                # are never read (only its length), and it is
                # wholesale-replaced on the first strict improvement.
                incumbent = local_best if len(local_best) >= lb else [-1] * lb
                try:
                    solve_anchor(adj.__getitem__, position, v, k, ctx.config,
                                 stats, node_check, incumbent)
                finally:
                    # The engine records improvements into `incumbent` in
                    # place, so a solution found before a budget interrupt
                    # unwinds the anchor solve must be salvaged, not lost
                    # with the exception.
                    if len(incumbent) > lb:
                        local_best = list(incumbent)
                        _publish_best(best_size, ctx.best_lock, len(local_best))
        finally:
            flush()
    except BudgetExceededError:
        exceeded = True
    return index, local_best, stats, exceeded


def _batched(anchors: List[int], workers: int) -> List[List[int]]:
    """Split ``anchors`` into contiguous batches preserving their order.

    Contiguity keeps the densest anchors (front of the list) in the earliest
    batches, so the shared bound tightens as early as in the in-process
    loop; ~8 batches per worker keeps the pool load-balanced even when a
    few dense batches dominate.
    """
    if not anchors:
        return []
    size = max(1, min(_MAX_BATCH_SIZE, -(-len(anchors) // (workers * 8))))
    return [anchors[i:i + size] for i in range(0, len(anchors), size)]


def _solve_in_pool(
    adj: Dict[int, Tuple[int, ...]],
    position: Mapping[int, int],
    anchors: List[int],
    k: int,
    config: SolverConfig,
    stats: SearchStats,
    check_budget: Callable[[], None],
    incumbent: List[int],
    deadline: Optional[float],
    node_limit: Optional[int],
    checkpoint: Optional["SolveCheckpoint"],
) -> List[int]:
    """Run ``anchors`` through worker-pool rounds; return those no round accounted for.

    The pool half of :func:`repro.core.decompose.solve_decomposed`, which
    has already checked the incumbent, ordered the anchors and dropped the
    ones ``checkpoint`` journaled; it searches the returned remainder
    in-process (lost-worker recovery).  ``adj`` is the worker payload,
    ``deadline`` an absolute ``time.monotonic()`` value and ``node_limit``
    a total node budget counted on top of ``stats.nodes``.  ``checkpoint``
    stays in the parent: a round's merged batches are journaled only when
    the round finished without a budget trip *and* passed the phantom-bound
    audit — a batch interrupted mid-flight or a round whose pruning may
    have leaned on an unbacked bound is never marked done.

    Raises
    ------
    BudgetExceededError
        When any worker (or the parent's ``check_budget``) trips a budget;
        ``incumbent`` and ``stats`` already include every completed result.
    """
    workers = config.workers
    stats.workers = workers
    position = dict(position)
    mp = multiprocessing.get_context()

    def merge(local_best: List[int], batch_stats: SearchStats) -> None:
        stats.merge_from(batch_stats)
        if len(local_best) > len(incumbent):
            incumbent[:] = local_best

    #: Batches not yet merged, by task index; whatever is left after the
    #: pool rounds wind down goes back to the caller (last-resort
    #: lost-worker recovery).
    remaining: Dict[int, List[int]] = dict(enumerate(_batched(anchors, workers)))
    exceeded = False

    def run_pool_round() -> None:
        """Run the unmerged batches through one worker pool.

        Pops batches from ``remaining`` as their results merge.  Returns
        normally on completion, worker turnover, or a budget trip (setting
        ``exceeded``).  Each round gets a fresh pool and fresh shared cells,
        so a retry after a worker death neither receives duplicate results
        from the old round's in-flight tasks nor inherits its possibly
        orphaned locks; and a round that ends with the shared bound above
        the parent's verified incumbent (a phantom bound from a worker that
        died after publishing but before reporting) re-queues the batches it
        merged, because their pruning may have leaned on the unbacked bound.
        """
        nonlocal exceeded
        best_size = mp.Value("q", len(incumbent), lock=False)
        best_lock = mp.Lock()
        node_counter = mp.Value("q", stats.nodes, lock=False)
        counter_lock = mp.Lock()
        merged_this_round: Dict[int, List[int]] = {}
        pool = mp.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(adj, position, k, config, best_size, best_lock,
                      node_counter, counter_lock, node_limit, deadline),
        )
        try:
            results = pool.imap_unordered(_solve_batch, sorted(remaining.items()))
            # Snapshot this pool's worker pids (not process-wide children:
            # an unrelated child — e.g. another concurrent solve's pool —
            # exiting must not look like one of OUR workers dying).  Pool
            # keeps its worker Process objects in the private but
            # long-stable `_pool` attribute; without it, turnover detection
            # degrades to the blind empty-poll watchdog below.
            pool_procs = getattr(pool, "_pool", None)
            worker_pids = {p.pid for p in pool_procs} if pool_procs is not None else None
            empty_polls = 0

            def take(index: int, local_best: List[int], batch_stats: SearchStats) -> None:
                batch = remaining.pop(index, None)
                if batch is not None:
                    merged_this_round[index] = batch
                merge(local_best, batch_stats)

            try:
                while remaining:
                    try:
                        index, local_best, batch_stats, batch_exceeded = results.next(
                            timeout=_RESULT_POLL_SECONDS
                        )
                    except multiprocessing.TimeoutError:
                        # Poll the parent's own budget only while batches
                        # are still outstanding, so a solve whose last merge
                        # lands exactly on the node limit is not spuriously
                        # flagged non-optimal — the in-process loop checks
                        # budgets at node entry, never after the last one.
                        check_budget()
                        # Pool silently respawns dead workers (with new
                        # pids) but their in-flight batch is lost; pid
                        # turnover is the signal to stop waiting.  Without
                        # pid visibility, a long stretch of empty polls is
                        # the (blunter) no-hang backstop — worst case it
                        # abandons a slow round early and the work finishes
                        # via retry or in-process recovery, still exact.
                        if worker_pids is not None:
                            if {p.pid for p in pool_procs} != worker_pids:
                                break
                        else:
                            empty_polls += 1
                            if empty_polls >= _MAX_BLIND_EMPTY_POLLS:
                                break
                        continue
                    except StopIteration:
                        break
                    empty_polls = 0
                    take(index, local_best, batch_stats)
                    _publish_best(best_size, best_lock, len(incumbent))
                    if batch_exceeded:
                        exceeded = True
                        break
            except BudgetExceededError:
                # Parent-side trip: fall through to the same drain as a
                # worker-side trip so completed batches are not discarded.
                exceeded = True
            # Batches that finished while we were deciding to stop may sit
            # in the result queue holding a larger solution; drain whatever
            # is (nearly) ready before terminating the pool.  After a
            # budget trip the other workers trip at their next poll, so
            # this converges fast.
            if remaining:
                while True:
                    try:
                        index, local_best, batch_stats, batch_exceeded = results.next(
                            timeout=0.1
                        )
                    except (StopIteration, multiprocessing.TimeoutError):
                        break
                    take(index, local_best, batch_stats)
                    if batch_exceeded:
                        # A drained batch that tripped a budget left anchors
                        # unsearched; the flag must survive the drain or the
                        # solve would report optimal=True without them.
                        exceeded = True
        finally:
            pool.terminate()
            pool.join()
        # Phantom-bound audit: every published size must by now be backed by
        # a solution merged into the parent's incumbent.  A higher value
        # means its witness died with a worker — conservatively re-queue
        # everything this round merged, since those batches may have pruned
        # subproblems against the unbacked bound.  (On a fully completed
        # healthy round the audit always passes, so this costs nothing.)
        if best_size.value > len(incumbent):
            if not exceeded:
                remaining.update(merged_this_round)
        elif checkpoint is not None and not exceeded and merged_this_round:
            # Journal only audit-clean rounds: a merged batch then provably
            # completed all its anchors with every prune backed by the
            # verified incumbent.  Budget-tripped rounds journal nothing —
            # a batch flagged `exceeded` is partial, and even its clean
            # siblings are cheap to redo compared to marking one started
            # anchor as done.
            for index in sorted(merged_this_round):
                checkpoint.record_batch(merged_this_round[index], incumbent)

    for _ in range(_MAX_POOL_ROUNDS):
        if not remaining or exceeded:
            break
        run_pool_round()
    if exceeded:
        raise BudgetExceededError("budget exceeded during parallel decomposition")
    return [v for _, batch in sorted(remaining.items()) for v in batch]
