"""Long-running solver service: prepare once, answer many queries.

The service layer turns the library's one-shot ``solve(graph, k)`` calls into
a query-serving pipeline built on the compile/execute split of
:mod:`repro.core.prepared`:

* :class:`~repro.service.store.GraphStore` — holds each graph once, keyed by
  its canonical :meth:`~repro.graphs.graph.Graph.content_digest`, and caches
  one :class:`~repro.core.prepared.PreparedInstance` per ``(graph, k,
  prepare-config)`` slot with single-flight deduplication;
* :class:`~repro.service.scheduler.SolverService` — an asynchronous request
  scheduler that batches ``(digest, k, budget)`` queries onto a bounded
  worker pool, coalesces identical in-flight requests, and answers repeated
  queries from a result cache keyed by ``(digest, k, algorithm, backend)``;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — a stdlib
  JSON-lines TCP protocol (``repro serve``) and a :class:`Client` that
  speaks it either in-process (no socket, used by tests) or over a socket.

Every answer carries request-level statistics (``cache_hit``,
``prepare_ms``, ``queue_ms``, ``solve_ms``) in its
:class:`~repro.core.result.SearchStats`.

The layer is hardened for long-lived deployment: end-to-end request
deadlines (typed :class:`~repro.exceptions.DeadlineExceededError`),
admission control with fast-fail shedding
(:class:`~repro.exceptions.ServiceOverloadedError` carrying a
``retry_after`` hint), LRU-bounded caches, graceful drain on shutdown
(``close(drain_timeout=...)``), and client-side retry with exponential
backoff.  The deterministic fault-injection harness behind its chaos suite
lives in :mod:`repro.testing.chaos`.

State is optionally durable: attach a
:class:`~repro.service.persistence.ServicePersistence` (or pass
``state_dir`` to :class:`ServiceServer` / ``repro serve --state-dir``) and
graphs, prepared artifacts and the optimal-result cache survive crashes via
atomic snapshots plus a checksummed write-ahead journal, while decomposed
solves checkpoint per-subproblem progress
(:mod:`repro.core.checkpoint`) so a killed solve resumes instead of
restarting.

Graphs are also *dynamic*: the ``mutate`` op (``Client.mutate``) applies a
validated :class:`~repro.dynamic.delta.EdgeDelta` to a stored graph,
storing the successor under its own digest with a parent link (the chain is
WAL-journaled, so ``--state-dir`` restarts keep it), and the scheduler
answers solves on mutated graphs through an
:class:`~repro.dynamic.incremental.IncrementalSolver` — re-running only the
ego subproblems the deltas can have invalidated, exactly
(``stats()``: ``incremental_hits`` / ``anchors_reused`` /
``anchors_resolved``).
"""

from .client import Client
from .persistence import ServicePersistence
from .scheduler import SolverService
from .server import ServiceServer, handle_request, run_server
from .store import GraphStore

__all__ = [
    "Client",
    "GraphStore",
    "ServicePersistence",
    "ServiceServer",
    "SolverService",
    "handle_request",
    "run_server",
]
