"""JSON-lines TCP front-end for :class:`~repro.service.scheduler.SolverService`.

The wire protocol is deliberately primitive — one JSON object per line, one
JSON reply per line, over a plain TCP socket — so any language (or ``nc``)
can drive a solver service without extra dependencies.  Requests are
dictionaries with an ``"op"`` field:

``{"op": "ping"}``
    Liveness probe; answers ``{"ok": true, "pong": true}``.
``{"op": "add-graph", "edges": [[u, v], ...], "vertices": [...], "name": ...}``
    Register a graph; answers its content ``digest``.  ``vertices`` (for
    isolated vertices) and ``name`` are optional.
``{"op": "mutate", "graph": <digest-or-name>, "adds": [[u, v], ...], "removes": [[u, v], ...], "name": ...}``
    Apply a validated edge delta to a stored graph; answers the successor's
    ``digest`` (plus ``parent``, ``n``, ``m``).  The successor is a
    first-class stored graph with a parent link, so solving it re-uses the
    predecessor's solve incrementally when one is available.  ``name``
    optionally labels the successor.
``{"op": "solve", "digest": ..., "k": ..., "algorithm": ..., "time_limit": ..., "node_limit": ..., "deadline": ...}``
    Solve one query; answers the clique, size, optimality flag and the full
    request-level statistics (``cache_hit``, ``prepare_ms``, ``queue_ms``,
    ``solve_ms``, ...).  ``deadline`` (seconds, end-to-end) bounds queue
    wait + prepare + solve; missing it answers ``{"ok": false, "kind":
    "DeadlineExceededError"}``.
``{"op": "stats"}``
    Service counters.
``{"op": "shutdown"}``
    Acknowledge, then stop the server.

Every reply carries ``"ok"``; failures answer ``{"ok": false, "error":
<message>, "kind": <exception class>}`` — plus ``"retry_after"`` on
overload sheds — and keep the connection (and the server) alive.  The one
exception is a request line longer than 64 MiB: it is answered with an
``InvalidParameterError`` and its connection is closed.  The same
:func:`handle_request` dispatch backs the in-process
:class:`~repro.service.client.Client`, so tests exercise exactly the code
path the socket serves.
"""

from __future__ import annotations

import json
import logging
import socketserver
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, Optional, Tuple

from ..core.config import SolverConfig
from ..exceptions import DeadlineExceededError, InvalidParameterError, ReproError
from ..graphs.graph import Graph
from ..testing import chaos as faults
from .scheduler import SolverService

__all__ = ["ServiceServer", "handle_request", "run_server"]

logger = logging.getLogger("repro.service.server")

#: Extra seconds a reply waits past the request's own deadline before the
#: server gives up on the future — covers scheduling noise only, since the
#: scheduler resolves deadline misses itself.
_DEADLINE_REPLY_GRACE_SECONDS = 5.0

#: Extra seconds a reply waits past a plain ``time_limit`` budget.  Generous,
#: because a time-limited solve still pays unbounded queue wait and prepare
#: time — but no longer *infinite*: a wedged worker thread answers the
#: client with a typed error instead of hanging the connection forever.
_BUDGET_REPLY_GRACE_SECONDS = 30.0

#: Longest request line the server reads, newline included.  The add-graph
#: line of a graph with about a million edges is about 16 MB.  A longer line
#: is answered with an error and its connection closed, so a client that
#: never sends a newline cannot grow the server's memory without limit.
_MAX_LINE_BYTES = 64 * 1024 * 1024


def _reply_timeout(
    deadline: Optional[float], time_limit: Optional[float]
) -> Optional[float]:
    """How long the dispatcher waits on a solve future before typed-failing."""
    if deadline is not None:
        return float(deadline) + _DEADLINE_REPLY_GRACE_SECONDS
    if time_limit is not None:
        return float(time_limit) + _BUDGET_REPLY_GRACE_SECONDS
    return None


def handle_request(service: SolverService, payload: Dict) -> Dict:
    """Dispatch one protocol request against ``service`` and return the reply.

    Never raises: library errors *and* unexpected internal errors come back
    as ``{"ok": False, "kind": <class>, ...}`` replies, so one bad query —
    or one crashing solve — cannot take a shared server (or its connection
    handler) down.
    """
    try:
        if not isinstance(payload, dict):
            raise ReproError("request must be a JSON object")
        op = payload.get("op")
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "add-graph":
            graph = Graph(
                edges=[tuple(edge) for edge in payload.get("edges", [])],
                vertices=payload.get("vertices"),
            )
            digest = service.store.add(graph, name=payload.get("name"))
            return {
                "ok": True,
                "digest": digest,
                "n": graph.num_vertices,
                "m": graph.num_edges,
            }
        if op == "mutate":
            ref = payload.get("graph") or payload.get("digest")
            if not ref:
                raise ReproError("mutate requires 'graph' (a digest or name)")
            reply = service.mutate(
                ref,
                adds=[tuple(edge) for edge in payload.get("adds") or []],
                removes=[tuple(edge) for edge in payload.get("removes") or []],
                name=payload.get("name"),
            )
            return {"ok": True, **reply}
        if op == "solve":
            if "digest" not in payload or "k" not in payload:
                raise ReproError("solve requires 'digest' and 'k'")
            deadline = payload.get("deadline")
            time_limit = payload.get("time_limit")
            future = service.submit(
                payload["digest"],
                payload["k"],
                algorithm=payload.get("algorithm", "kDC"),
                time_limit=time_limit,
                node_limit=payload.get("node_limit"),
                deadline=deadline,
            )
            effective_deadline = (
                deadline if deadline is not None else service.default_deadline
            )
            try:
                result = future.result(
                    timeout=_reply_timeout(effective_deadline, time_limit)
                )
            except FutureTimeoutError as exc:
                # The scheduler should have resolved this future itself; a
                # wait timeout here means a wedged worker.  Fail typed —
                # never leave the connection hanging on .result().
                raise DeadlineExceededError(
                    "the service did not answer within the request budget"
                ) from exc
            return {
                "ok": True,
                "size": result.size,
                "clique": list(result.clique),
                "optimal": result.optimal,
                "algorithm": result.algorithm,
                "k": result.k,
                "stats": result.stats.as_dict(),
            }
        if op == "stats":
            return {"ok": True, "stats": service.stats()}
        raise ReproError(f"unknown op {op!r}")
    except (ReproError, TypeError, ValueError, KeyError) as exc:
        reply = {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            reply["retry_after"] = retry_after
        return reply
    except Exception as exc:  # noqa: BLE001 - the server must always answer
        logger.exception("internal error handling %r", payload.get("op") if isinstance(payload, dict) else payload)
        return {"ok": False, "error": str(exc), "kind": type(exc).__name__}


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: read JSON lines, answer JSON lines."""

    def handle(self) -> None:
        server: "ServiceServer" = self.server  # type: ignore[assignment]
        try:
            while True:
                raw = self.rfile.readline(_MAX_LINE_BYTES + 1)
                if not raw:
                    return
                if len(raw) > _MAX_LINE_BYTES:
                    self._reply({
                        "ok": False,
                        "error": f"request line longer than {_MAX_LINE_BYTES} bytes",
                        "kind": InvalidParameterError.__name__,
                    })
                    return
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as exc:
                    reply = {"ok": False, "error": f"bad JSON: {exc}", "kind": "JSONDecodeError"}
                else:
                    if isinstance(payload, dict) and payload.get("op") == "shutdown":
                        self._reply({"ok": True, "shutting_down": True})
                        # shutdown() joins the serve loop, which waits for this
                        # handler — stop from a helper thread to avoid deadlock.
                        threading.Thread(target=server.shutdown, daemon=True).start()
                        return
                    reply = handle_request(server.service, payload)
                if not self._reply(reply):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            # A client vanishing mid-read is its problem, not the server's.
            logger.debug("connection dropped while reading: %s", exc)

    def _reply(self, reply: Dict) -> bool:
        """Write one reply line; returns ``False`` when the client is gone.

        A client that disconnected between request and reply must cost the
        server nothing but this connection — the handler closes quietly
        instead of unwinding through ``socketserver`` with a stack trace.
        """
        try:
            faults.fire("server.reply", op=reply.get("ok"))
            self.wfile.write(json.dumps(reply).encode("utf-8") + b"\n")
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            logger.debug("client disconnected before reply could be sent: %s", exc)
            return False


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server wrapping one :class:`SolverService`.

    Binding to port 0 picks an ephemeral port; read it back from
    :attr:`address` (the CLI prints it on startup for exactly this reason).

    The hardening knobs (``default_deadline``, ``max_pending``) configure
    the service the server builds when none is passed in;
    ``drain_timeout`` bounds how long :meth:`server_close` waits for
    in-flight solves before cancelling them (``None`` = wait forever, the
    historical behaviour).  ``state_dir`` makes the built service durable:
    graphs, prepared artifacts, optimal results and in-progress solve
    checkpoints persist there across restarts and crashes (see
    :class:`~repro.service.persistence.ServicePersistence`).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[SolverService] = None,
        config: Optional[SolverConfig] = None,
        max_concurrency: int = 4,
        default_deadline: Optional[float] = None,
        max_pending: Optional[int] = None,
        drain_timeout: Optional[float] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        if service is None:
            persistence = None
            if state_dir is not None:
                from .persistence import ServicePersistence

                persistence = ServicePersistence(state_dir)
            service = SolverService(
                config=config,
                max_concurrency=max_concurrency,
                default_deadline=default_deadline,
                max_pending=max_pending,
                persistence=persistence,
            )
        elif state_dir is not None:
            raise InvalidParameterError(
                "pass state_dir only when the server builds its own service; "
                "attach a ServicePersistence to the service you construct instead"
            )
        self.service = service
        self.drain_timeout = drain_timeout
        super().__init__((host, port), _LineHandler)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — the actual port even when 0 was requested."""
        return self.server_address[0], self.server_address[1]

    def handle_error(self, request, client_address) -> None:  # pragma: no cover
        logger.exception("unhandled error serving %s", client_address)

    def server_close(self) -> None:
        super().server_close()
        self.service.close(drain_timeout=self.drain_timeout)


def run_server(server: ServiceServer) -> None:
    """Serve until a ``shutdown`` request (or KeyboardInterrupt), then clean up.

    Prints the bound address first — ``repro serve --port 0`` callers parse
    this line to learn the ephemeral port.
    """
    host, port = server.address
    print(f"repro-serve listening on {host}:{port}", flush=True)
    logger.info("serving on %s:%d", host, port)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        logger.info("shutting down (drain_timeout=%s)", server.drain_timeout)
        server.server_close()
