"""Tests for the solver service: store, scheduler, protocol, client, server."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.core import KDCSolver, SolverConfig, is_k_defective_clique, variant_config
from repro.exceptions import ReproError, ServiceClosedError, ServiceError, UnknownGraphError
from repro.graphs import gnp_random_graph
from repro.graphs.graph import Graph
from repro.service import (
    Client,
    GraphStore,
    ServiceServer,
    SolverService,
    handle_request,
    run_server,
)
from repro.service import server as server_module


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.3, seed=9)


class TestGraphStore:
    def test_add_is_idempotent_by_content(self, graph):
        store = GraphStore()
        digest = store.add(graph, name="g")
        # same graph built in a different insertion order -> same digest slot
        shuffled = Graph()
        for u, v in sorted(graph.iter_edges(), reverse=True):
            shuffled.add_edge(u, v)
        for v in graph:
            shuffled.add_vertex(v)
        assert store.add(shuffled) == digest
        assert len(store) == 1
        assert digest in store
        assert store.graphs() == {digest: "g"}

    def test_store_keeps_its_own_copy(self, graph):
        store = GraphStore()
        digest = store.add(graph)
        graph.add_edge("intruder", "intruder2")
        assert "intruder" not in store.get(digest)

    def test_add_copies_outside_the_lock(self, graph, monkeypatch):
        """A large add must not stall requests for other graphs on the lock."""
        store = GraphStore()
        held = []
        real_copy = Graph.copy

        def spying_copy(g):
            held.append(store._lock.locked())
            return real_copy(g)

        monkeypatch.setattr(Graph, "copy", spying_copy)
        digest = store.add(graph)
        assert store.add(graph) == digest  # the re-add's copy is dropped
        assert held == [False, False]
        assert len(store) == 1 and store.get(digest) is not graph

    def test_prepare_reuses_the_stored_digest(self, graph, monkeypatch):
        store = GraphStore()
        digest = store.add(graph)
        calls = []
        real_digest = Graph.content_digest

        def counting_digest(g):
            calls.append(g)
            return real_digest(g)

        monkeypatch.setattr(Graph, "content_digest", counting_digest)
        assert store.prepared(digest, 2).digest == digest
        assert calls == []

    def test_unknown_digest_raises(self):
        store = GraphStore()
        with pytest.raises(UnknownGraphError):
            store.get("no-such-digest")
        with pytest.raises(UnknownGraphError):
            store.prepared("no-such-digest", 1)

    def test_prepared_slot_is_cached(self, graph):
        store = GraphStore()
        digest = store.add(graph)
        config = SolverConfig()
        first = store.prepared(digest, 1, config)
        assert store.prepared(digest, 1, config) is first
        stats = store.stats()
        assert stats["graphs"] == 1
        assert stats["prepares"] == 1
        assert stats["prepared_hits"] == 1
        assert stats["prepared_artifacts"] == 1
        assert stats["graph_evictions"] == 0
        assert stats["prepared_evictions"] == 0
        # a different k is a different slot
        store.prepared(digest, 2, config)
        assert store.stats()["prepares"] == 2

    def test_prepare_config_keys_the_slot(self, graph):
        store = GraphStore()
        digest = store.add(graph)
        full = store.prepared(digest, 1, SolverConfig())
        bare = store.prepared(digest, 1, variant_config("kDC-t"))
        assert full is not bare
        assert bare.heuristic == ()  # kDC-t prepares without a heuristic
        # execute-side knobs do NOT key the slot
        assert store.prepared(digest, 1, SolverConfig(backend="set", workers=4)) is full

    def test_single_flight_under_concurrency(self, graph):
        store = GraphStore()
        digest = store.add(graph)
        results = []
        barrier = threading.Barrier(4)

        def fetch():
            barrier.wait()
            results.append(store.prepared(digest, 2))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert all(r is results[0] for r in results)
        assert store.stats()["prepares"] == 1

    def test_prepare_failure_propagates_and_is_not_cached(self, graph, monkeypatch):
        """A failing prepare reaches *every* concurrent waiter and is retried.

        The owner of the in-flight slot raises; waiters blocked on the
        shared future receive the same exception (not a hang, not a stale
        artifact), nothing is cached, and the next request runs the prepare
        again.
        """
        store = GraphStore()
        digest = store.add(graph)
        entered = threading.Event()
        release = threading.Event()
        calls = []
        failing = [True]
        from repro.core.prepared import prepare_instance as real_prepare

        def fake_prepare(g, k, config, **kwargs):
            calls.append(1)
            entered.set()
            assert release.wait(10), "test orchestration stalled"
            if failing[0]:
                raise RuntimeError("prepare exploded")
            return real_prepare(g, k, config, **kwargs)

        monkeypatch.setattr("repro.service.store.prepare_instance", fake_prepare)

        errors = []

        def fetch():
            try:
                store.prepared(digest, 2)
            except RuntimeError as exc:
                errors.append(exc)

        owner = threading.Thread(target=fetch)
        owner.start()
        assert entered.wait(10)
        waiters = [threading.Thread(target=fetch) for _ in range(3)]
        for t in waiters:
            t.start()
        time.sleep(0.2)  # let the waiters attach to the in-flight future
        release.set()
        owner.join(10)
        for t in waiters:
            t.join(10)

        assert len(errors) == 4
        assert all("prepare exploded" in str(e) for e in errors)
        # single-flight even on the failure path: one prepare served all four
        assert len(calls) == 1
        # the failure is not cached ...
        assert store.stats()["prepares"] == 0
        # ... so the next request retries, and this time succeeds
        failing[0] = False
        artifact = store.prepared(digest, 2)
        assert artifact is not None
        assert store.stats()["prepares"] == 1
        assert len(calls) == 2


class TestSolverService:
    def test_cache_hit_only_after_first_answer(self, graph):
        with SolverService() as service:
            digest = service.store.add(graph)
            first = service.solve(digest, 1)
            second = service.solve(digest, 1)
            assert not first.stats.cache_hit
            assert second.stats.cache_hit
            assert second.size == first.size
            assert second.stats.solve_ms == 0.0
            counters = service.stats()
            assert counters["solves"] == 1
            assert counters["cache_hits"] == 1

    def test_graph_argument_is_auto_added(self, graph):
        with SolverService() as service:
            result = service.solve(graph, 1)
            assert result.optimal
            assert service.stats()["graphs"] == 1

    def test_per_request_budget(self, graph):
        with SolverService() as service:
            digest = service.store.add(graph)
            limited = service.submit(digest, 3, node_limit=1).result()
            assert not limited.optimal
            # non-optimal answers are never cached
            full = service.submit(digest, 3).result()
            assert full.optimal and not full.stats.cache_hit
            assert full.size >= limited.size

    def test_unknown_digest_and_algorithm_fail_fast(self, graph):
        with SolverService() as service:
            digest = service.store.add(graph)
            with pytest.raises(UnknownGraphError):
                service.submit("bogus", 1)
            with pytest.raises(Exception):
                service.submit(digest, 1, algorithm="not-an-algorithm")

    def test_variant_queries(self, graph):
        with SolverService() as service:
            digest = service.store.add(graph)
            full = service.solve(digest, 1)
            bare = service.solve(digest, 1, algorithm="kDC-t")
            assert bare.algorithm == "kDC-t"
            assert bare.size == full.size  # both exact
            # distinct algorithms have distinct result-cache keys
            assert not bare.stats.cache_hit

    def test_request_timings_recorded(self, graph):
        with SolverService() as service:
            digest = service.store.add(graph)
            result = service.solve(digest, 2)
            assert result.stats.prepare_ms > 0
            assert result.stats.queue_ms >= 0
            assert result.stats.solve_ms >= 0

    def test_cache_survives_caller_mutation(self, graph):
        """Mutating the first answer must not corrupt later cache hits."""
        with SolverService() as service:
            digest = service.store.add(graph)
            first = service.solve(digest, 1)
            expected_size = first.size
            expected_nodes = first.stats.nodes
            expected_reductions = dict(first.stats.reductions)
            # A rude caller trashes everything reachable from its answer.
            first.clique.clear()
            first.stats.nodes = -12345
            first.stats.reductions.clear()
            first.stats.reductions["bogus"] = 99

            second = service.solve(digest, 1)
            assert second.stats.cache_hit
            assert second.size == expected_size
            assert len(second.clique) == expected_size
            assert second.stats.nodes == expected_nodes
            assert second.stats.reductions == expected_reductions
            # cache hits are independent copies too: breaking one does not
            # leak into the next
            second.clique.clear()
            third = service.solve(digest, 1)
            assert third.stats.cache_hit
            assert len(third.clique) == expected_size

    def test_submit_after_close_raises_catchable_error(self, graph):
        service = SolverService()
        digest = service.store.add(graph)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(digest, 1)
        # the error is part of the library hierarchy, so `except ReproError`
        # at the CLI/server boundary catches it
        assert issubclass(ServiceClosedError, ServiceError)

    def test_close_submit_race_is_a_service_error(self, graph):
        """Submits racing close() fail with ServiceClosedError, never with the
        executor's raw RuntimeError."""
        for _ in range(5):
            service = SolverService(max_concurrency=2)
            digest = service.store.add(graph)
            unexpected = []
            closed_errors = []
            start = threading.Event()

            def hammer():
                start.wait(5)
                for _ in range(50):
                    try:
                        service.submit(digest, 1, node_limit=1)
                    except ServiceClosedError as exc:
                        closed_errors.append(exc)
                    except BaseException as exc:  # pragma: no cover - the bug
                        unexpected.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for t in threads:
                t.start()
            start.set()
            time.sleep(0.005)
            service.close()
            for t in threads:
                t.join(10)
            assert not unexpected, f"raw errors escaped: {unexpected!r}"
            assert all(isinstance(e, ReproError) for e in closed_errors)


class TestRetryAfterEstimate:
    """The shed-reply hint must not be held hostage by one stale slow solve."""

    def test_stale_ewma_decays_toward_default(self):
        from repro.service.scheduler import (
            _DEFAULT_SOLVE_ESTIMATE_SECONDS,
            _EWMA_STALE_HALF_LIFE_SECONDS,
        )

        with SolverService(max_concurrency=1) as service:
            with service._lock:
                fresh_now = service._retry_after_locked()
            # One pathologically slow solve finished long ago; no solve has
            # completed since (e.g. because overload is shedding everything).
            service._ewma_solve_seconds = 10.0
            service._ewma_updated = time.monotonic() - 20 * _EWMA_STALE_HALF_LIFE_SECONDS
            with service._lock:
                stale = service._retry_after_locked()
            # The stale measurement has decayed to (essentially) the
            # cold-start default instead of quoting 10s forever.
            assert stale < 2 * _DEFAULT_SOLVE_ESTIMATE_SECONDS
            assert stale == pytest.approx(fresh_now, rel=0.5)

    def test_fresh_ewma_is_quoted_undecayed(self):
        with SolverService(max_concurrency=1) as service:
            service._ewma_solve_seconds = 10.0
            service._ewma_updated = time.monotonic()
            with service._lock:
                assert service._retry_after_locked() == pytest.approx(10.0, rel=0.05)

    def test_completion_refreshes_the_estimate_clock(self, graph):
        with SolverService(max_concurrency=1) as service:
            digest = service.store.add(graph)
            service._ewma_updated = time.monotonic() - 1000.0
            before = service._ewma_updated
            service.solve(digest, 1)
            assert service._ewma_updated > before


class TestConcurrentDifferential:
    """The satellite cell: interleaved service answers == fresh sequential solves."""

    def test_interleaved_requests_match_sequential(self):
        graph_a = gnp_random_graph(40, 0.3, seed=21)
        graph_b = gnp_random_graph(35, 0.35, seed=22)
        graph_c = gnp_random_graph(20, 0.3, seed=23)  # small: kDC-t is unpruned
        # mixed ks, repeated queries (cache hits), several graphs, and a
        # kDC-t request (never decomposes) in the same stream
        stream = [
            (graph_a, 0, "kDC"),
            (graph_a, 1, "kDC"),
            (graph_b, 2, "kDC"),
            (graph_a, 2, "kDC"),
            (graph_a, 1, "kDC"),   # repeat -> cache hit
            (graph_b, 2, "kDC"),   # repeat -> cache hit
            (graph_c, 1, "kDC-t"),
            (graph_b, 0, "kDC"),
            (graph_a, 2, "kDC"),   # repeat -> cache hit
            (graph_a, 0, "kDC"),   # repeat -> cache hit
        ]
        with SolverService(max_concurrency=4) as service:
            digests = {id(g): service.store.add(g) for g in (graph_a, graph_b, graph_c)}
            futures = [
                service.submit(digests[id(g)], k, algorithm=alg) for g, k, alg in stream
            ]
            results = [f.result() for f in futures]
            counters = service.stats()

        for (g, k, alg), result in zip(stream, results):
            solver = KDCSolver(variant_config(alg)) if alg != "kDC" else KDCSolver()
            fresh = solver.solve(g, k)
            assert result.optimal and fresh.optimal
            assert result.size == fresh.size, (k, alg)
            assert is_k_defective_clique(g, result.clique, k)

        # the four repeats never re-entered the engine: answered from the
        # result cache or coalesced onto an identical in-flight request
        assert counters["requests"] == len(stream)
        assert counters["solves"] == len(stream) - 4
        assert counters["cache_hits"] + counters["coalesced"] == 4
        served_cheap = [r for r in results if r.stats.cache_hit]
        assert len(served_cheap) == 4


class TestProtocolAndClient:
    def test_handle_request_ops(self, graph):
        with SolverService() as service:
            assert handle_request(service, {"op": "ping"}) == {"ok": True, "pong": True}
            added = handle_request(
                service, {"op": "add-graph", "edges": [[0, 1], [1, 2], [0, 2]]}
            )
            assert added["ok"] and added["n"] == 3 and added["m"] == 3
            solved = handle_request(
                service, {"op": "solve", "digest": added["digest"], "k": 0}
            )
            assert solved["ok"] and solved["size"] == 3 and solved["optimal"]
            assert solved["stats"]["cache_hit"] is False
            stats = handle_request(service, {"op": "stats"})
            assert stats["ok"] and stats["stats"]["solves"] == 1

    def test_handle_request_errors_do_not_raise(self):
        with SolverService() as service:
            assert handle_request(service, {"op": "wat"})["ok"] is False
            assert handle_request(service, {"op": "solve", "k": 1})["ok"] is False
            reply = handle_request(service, {"op": "solve", "digest": "bogus", "k": 1})
            assert reply["ok"] is False and reply["kind"] == "UnknownGraphError"
            assert handle_request(service, ["not", "a", "dict"])["ok"] is False

    def test_in_process_client(self, graph):
        with SolverService() as service:
            client = Client(service=service)
            assert client.ping()
            digest = client.add_graph(graph)
            assert digest == graph.content_digest()
            first = client.solve(digest, 1)
            second = client.solve(digest, 1)
            assert first["size"] == second["size"]
            assert second["stats"]["cache_hit"] and not first["stats"]["cache_hit"]
            assert client.stats()["solves"] == 1
            with pytest.raises(ServiceError):
                client.solve("bogus", 1)

    def test_client_requires_exactly_one_transport(self):
        with pytest.raises(ServiceError):
            Client()

    def test_socket_server_round_trip(self, graph):
        server = ServiceServer(port=0)
        thread = threading.Thread(target=run_server, args=(server,), daemon=True)
        thread.start()
        host, port = server.address
        try:
            with Client.connect(host, port) as client:
                assert client.ping()
                digest = client.add_graph(graph)
                first = client.solve(digest, 1)
                second = client.solve(digest, 1)
                assert first["size"] == second["size"]
                assert second["stats"]["cache_hit"]
                expected = KDCSolver().solve(graph, 1).size
                assert first["size"] == expected
                assert client.shutdown()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestRequestLineBound:
    def test_oversized_line_is_refused_and_the_server_stays_up(self, monkeypatch):
        monkeypatch.setattr(server_module, "_MAX_LINE_BYTES", 1024)
        server = ServiceServer(port=0)
        thread = threading.Thread(target=run_server, args=(server,), daemon=True)
        thread.start()
        host, port = server.address
        try:
            # A valid ping padded to 4 KiB: the server must not read it whole.
            line = json.dumps({"op": "ping", "pad": "x" * 4096}).encode() + b"\n"
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(line)
                reader = sock.makefile("rb")
                reply = json.loads(reader.readline())
                assert reader.readline() == b""  # the server closed the connection
                reader.close()
            assert reply["ok"] is False
            assert reply["kind"] == "InvalidParameterError"
            with Client.connect(host, port) as client:
                assert client.ping()
                assert client.shutdown()
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
