"""Chaos suite: the service under injected faults.

Every test scripts an exact failure — a slow prepare, a crashing solve, a
dropped socket, a killed pool worker — through
:class:`repro.testing.chaos.FaultInjector` and asserts the hardening
invariants of the service layer:

* every request is *answered*: a result, or a typed error, within its
  deadline — never a hang, never a silently dropped future;
* the server stays serving after each fault (liveness probe + a follow-up
  solve succeed);
* caches are never corrupted: post-chaos answers match a fresh sequential
  solve of the same instance (the differential check).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from concurrent.futures import wait as futures_wait

import pytest

from repro.core import KDCSolver, SolverConfig, is_k_defective_clique
from repro.exceptions import (
    ClientTimeoutError,
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    UnknownGraphError,
)
from repro.graphs import gnp_random_graph
from repro.service import Client, ServiceServer, SolverService
from repro.testing import FaultInjector, InjectedFaultError
from repro.testing import chaos


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Every test starts and ends with no injector installed."""
    chaos.uninstall()
    yield
    chaos.uninstall()


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.3, seed=9)


def sequential_answer(graph, k):
    return KDCSolver(SolverConfig()).solve(graph, k)


def wait_for_queue_drain(service, timeout=5.0):
    """Spin until every submitted request has left the pending queue.

    Shed tests need the blocker *running* (not queued) before they fill the
    queue, or the admission counter would include the blocker itself.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.stats()["queue_depth"] == 0:
            return
        time.sleep(0.01)
    raise AssertionError("pending queue never drained")


class TestFaultInjector:
    """The harness itself must be deterministic and leak-free."""

    def test_fire_is_noop_without_injector(self):
        chaos.fire("nowhere", anything=1)  # must not raise

    def test_times_and_match_script_exact_sequences(self):
        inj = FaultInjector()
        inj.add("p", error="boom", times=2, match={"idx": 1})
        with inj:
            chaos.fire("p", idx=0)  # filtered out by match
            with pytest.raises(InjectedFaultError):
                chaos.fire("p", idx=1)
            with pytest.raises(InjectedFaultError):
                chaos.fire("p", idx=1)
            chaos.fire("p", idx=1)  # budget of 2 exhausted
        assert [point for point, _ in inj.fired] == ["p", "p"]
        chaos.fire("p", idx=1)  # uninstalled on context exit

    def test_exactly_one_action_enforced(self):
        with pytest.raises(ValueError):
            FaultInjector().add("p")
        with pytest.raises(ValueError):
            FaultInjector().add("p", delay=0.1, error="boom")

    def test_injected_error_is_not_a_repro_error(self):
        from repro.exceptions import ReproError

        assert not issubclass(InjectedFaultError, ReproError)


class TestDeadlines:
    def test_deadline_expired_while_queued(self, graph):
        """A queued request past its deadline is cancelled, typed, promptly.

        One worker, blocked by an injected slow solve; the request queued
        behind it carries a deadline shorter than the block and must fail
        with :class:`DeadlineExceededError` *while the blocker still runs* —
        the watchdog cancels it without waiting for a worker.
        """
        with FaultInjector().add("scheduler.solve", delay=1.5, times=1):
            with SolverService(max_concurrency=1) as service:
                digest = service.store.add(graph)
                blocker = service.submit(digest, 1)
                queued = service.submit(digest, 2, deadline=0.2)
                start = time.perf_counter()
                with pytest.raises(DeadlineExceededError):
                    queued.result(timeout=10)
                assert time.perf_counter() - start < 1.0, (
                    "typed failure must not wait for the blocking solve"
                )
                assert "queued" in str(queued.exception())
                # the blocker is unaffected and the service keeps serving
                assert blocker.result(timeout=30).optimal
                assert service.solve(digest, 2).optimal
                assert service.stats()["deadline_expired"] == 1

    def test_deadline_expires_during_preparation(self, graph):
        with FaultInjector().add("store.prepare", delay=0.6, times=1):
            with SolverService(max_concurrency=1) as service:
                digest = service.store.add(graph)
                with pytest.raises(DeadlineExceededError) as info:
                    service.solve(digest, 1, deadline=0.2)
                assert "preparation" in str(info.value)
                # failed prepares are not cached; the slot still works
                assert service.solve(digest, 1).optimal

    def test_deadline_clamps_running_solve_to_typed_error(self):
        hard = gnp_random_graph(200, 0.3, seed=11)
        with SolverService(max_concurrency=1) as service:
            digest = service.store.add(hard)
            start = time.perf_counter()
            with pytest.raises(DeadlineExceededError) as info:
                service.solve(digest, 3, deadline=1.0)
            assert time.perf_counter() - start < 8.0
            assert "best size so far" in str(info.value)

    def test_time_limit_alone_keeps_partial_result_contract(self):
        """``time_limit`` still yields a partial result — only *deadlines* raise."""
        hard = gnp_random_graph(200, 0.3, seed=11)
        with SolverService() as service:
            digest = service.store.add(hard)
            result = service.solve(digest, 3, time_limit=0.2)
            assert not result.optimal
            assert is_k_defective_clique(hard, result.clique, 3)

    def test_default_deadline_applies_when_request_has_none(self, graph):
        with FaultInjector().add("store.prepare", delay=0.8, times=1):
            with SolverService(default_deadline=0.2) as service:
                digest = service.store.add(graph)
                with pytest.raises(DeadlineExceededError):
                    service.solve(digest, 1)

    def test_invalid_deadline_rejected(self, graph):
        from repro.exceptions import InvalidParameterError

        with SolverService() as service:
            digest = service.store.add(graph)
            with pytest.raises(InvalidParameterError):
                service.submit(digest, 1, deadline=0.0)


class TestAdmissionControl:
    def _blocked_service(self, graph, max_pending):
        """A one-worker service whose worker is stuck in an injected slow solve."""
        service = SolverService(max_concurrency=1, max_pending=max_pending)
        digest = service.store.add(graph)
        blocker = service.submit(digest, 1)
        wait_for_queue_drain(service)
        return service, digest, blocker

    def test_shed_storm_fails_fast_with_retry_after(self, graph):
        with FaultInjector().add("scheduler.solve", delay=1.0, times=1):
            service, digest, blocker = self._blocked_service(graph, max_pending=2)
            try:
                fillers = [service.submit(digest, k) for k in (2, 3)]
                start = time.perf_counter()
                with pytest.raises(ServiceOverloadedError) as info:
                    service.submit(digest, 4)
                assert time.perf_counter() - start < 0.2, "shedding must be fast-fail"
                assert info.value.retry_after > 0
                assert info.value.queue_depth == 2
                stats = service.stats()
                assert stats["shed"] == 1
                assert stats["queue_depth"] == 2
                # the storm passes; admitted work completes and new work is accepted
                assert blocker.result(timeout=30).optimal
                assert all(f.result(timeout=30).optimal for f in fillers)
                assert service.solve(digest, 4).optimal
            finally:
                service.close()

    def test_cache_hits_and_coalesced_requests_bypass_admission(self, graph):
        with SolverService(max_concurrency=1, max_pending=1) as service:
            digest = service.store.add(graph)
            warm = service.solve(digest, 1)  # primes the result cache
            with FaultInjector().add("scheduler.solve", delay=1.0, times=1):
                blocker = service.submit(digest, 2)
                wait_for_queue_drain(service)
                filler = service.submit(digest, 3)  # fills the queue
                # identical to the queued request -> coalesces, not shed
                twin = service.submit(digest, 3)
                # already answered optimally -> cache, not shed
                cached = service.submit(digest, 1).result(timeout=5)
                assert cached.stats.cache_hit
                assert cached.size == warm.size
                assert service.stats()["shed"] == 0
                assert blocker.result(timeout=30).optimal
                assert filler.result(timeout=30).size == twin.result(timeout=30).size

    def test_result_cache_lru_eviction(self, graph):
        with SolverService(result_cache_size=2) as service:
            digest = service.store.add(graph)
            for k in (1, 2, 3):
                service.solve(digest, k)
            stats = service.stats()
            assert stats["result_cache_entries"] == 2
            assert stats["result_cache_evictions"] == 1
            # k=1 was evicted (LRU): answering it again is a real solve
            assert not service.solve(digest, 1).stats.cache_hit

    def test_graph_store_lru_eviction(self):
        from repro.service import GraphStore

        store = GraphStore(max_graphs=2)
        digests = [store.add(gnp_random_graph(12, 0.4, seed=s)) for s in range(3)]
        assert store.stats()["graph_evictions"] == 1
        with pytest.raises(UnknownGraphError):
            store.get(digests[0])
        store.get(digests[1])
        store.get(digests[2])

    def test_prepared_cache_lru_eviction(self, graph):
        from repro.service import GraphStore

        store = GraphStore(max_prepared=1)
        digest = store.add(graph)
        store.prepared(digest, 1)
        store.prepared(digest, 2)
        stats = store.stats()
        assert stats["prepared_artifacts"] == 1
        assert stats["prepared_evictions"] == 1


class TestGracefulDrain:
    def test_drain_answers_running_and_cancels_queued(self, graph):
        """Bounded drain: running work answers partially, queued work fails typed."""
        service = SolverService(max_concurrency=1)
        digest = service.store.add(graph)
        with FaultInjector().add("scheduler.solve", delay=0.8, times=1):
            running = service.submit(digest, 1)
            queued = service.submit(digest, 2)
            time.sleep(0.1)  # let the first request enter its solve slot
            start = time.perf_counter()
            service.close(drain_timeout=0.2)
            # close returned promptly (did not wait out the full solve)...
            assert time.perf_counter() - start < 5.0
            # ...yet every request is answered or typed-failed
            done, not_done = futures_wait([running, queued], timeout=10)
            assert not not_done
            partial = running.result()
            assert is_k_defective_clique(graph, partial.clique, 1)
            with pytest.raises(ServiceClosedError) as info:
                queued.result()
            assert "drain" in str(info.value)
            assert service.stats()["drain_cancelled"] == 2
        with pytest.raises(ServiceClosedError):
            service.submit(digest, 3)

    def test_drain_with_idle_service_returns_immediately(self):
        service = SolverService()
        start = time.perf_counter()
        service.close(drain_timeout=30.0)
        assert time.perf_counter() - start < 1.0

    def test_unbounded_close_still_waits_for_everything(self, graph):
        with FaultInjector().add("scheduler.solve", delay=0.3, times=1):
            service = SolverService(max_concurrency=1)
            digest = service.store.add(graph)
            future = service.submit(digest, 1)
            service.close()  # legacy behaviour: wait for completion
            assert future.done()
            assert future.result().optimal


class TestSolveCrashes:
    def test_injected_crash_is_answered_and_not_cached(self, graph):
        """A solve crashing mid-request answers typed, and poisons nothing."""
        with FaultInjector().add("scheduler.solve", error="solver exploded", times=1) as inj:
            with SolverService() as service:
                digest = service.store.add(graph)
                with pytest.raises(InjectedFaultError):
                    service.submit(digest, 1).result(timeout=10)
                assert inj.fired
                # the failure was not cached: the retry really solves, correctly
                retry = service.solve(digest, 1)
                assert retry.optimal and not retry.stats.cache_hit
                assert retry.size == sequential_answer(graph, 1).size

    def test_crash_reaches_coalesced_followers(self, graph):
        with FaultInjector().add("scheduler.solve", delay=0.3, times=1).add(
            "scheduler.solve", error="solver exploded", times=1
        ):
            with SolverService(max_concurrency=1) as service:
                digest = service.store.add(graph)
                primary = service.submit(digest, 1)
                follower = service.submit(digest, 1)
                for fut in (primary, follower):
                    with pytest.raises(InjectedFaultError):
                        fut.result(timeout=10)

    def test_in_process_client_maps_crash_to_service_error(self, graph):
        with FaultInjector().add("scheduler.solve", error="solver exploded", times=1):
            with SolverService() as service:
                client = Client(service=service)
                digest = client.add_graph(graph)
                with pytest.raises(ServiceError, match="InjectedFaultError"):
                    client.solve(digest, 1)
                # the dispatcher answered typed; the service keeps serving
                assert client.ping()
                assert client.solve(digest, 1)["optimal"]


class TestClientRetry:
    def test_retry_honors_retry_after_and_backoff(self, graph):
        """An overload shed is retried with the service's hint as the floor."""
        sleeps = []
        with FaultInjector().add("scheduler.solve", delay=0.6, times=1):
            with SolverService(max_concurrency=1, max_pending=1) as service:
                digest = service.store.add(graph)
                blocker = service.submit(digest, 1)
                wait_for_queue_drain(service)
                filler = service.submit(digest, 2)

                def fake_sleep(seconds):
                    sleeps.append(seconds)
                    # "waiting" drains the backlog, so the retry is admitted
                    futures_wait([blocker, filler], timeout=30)

                client = Client(service=service, max_retries=3, sleep=fake_sleep)
                reply = client.solve(digest, 3)
                assert reply["optimal"]
                assert len(sleeps) == 1
                assert sleeps[0] >= 0.05  # at least the service's retry_after floor
                assert service.stats()["shed"] == 1

    def test_retries_exhausted_raises_typed_overload(self, graph):
        with FaultInjector().add("scheduler.solve", delay=0.6, times=1):
            with SolverService(max_concurrency=1, max_pending=1) as service:
                digest = service.store.add(graph)
                blocker = service.submit(digest, 1)
                wait_for_queue_drain(service)
                filler = service.submit(digest, 2)
                client = Client(service=service, max_retries=2, sleep=lambda _s: None)
                with pytest.raises(ServiceOverloadedError) as info:
                    client.solve(digest, 3)
                assert info.value.retry_after > 0
                futures_wait([blocker, filler], timeout=30)

    def test_no_retries_by_default(self, graph):
        with FaultInjector().add("scheduler.solve", delay=0.6, times=1):
            with SolverService(max_concurrency=1, max_pending=1) as service:
                digest = service.store.add(graph)
                blocker = service.submit(digest, 1)
                wait_for_queue_drain(service)
                filler = service.submit(digest, 2)
                slept = []
                client = Client(service=service, sleep=slept.append)
                with pytest.raises(ServiceOverloadedError):
                    client.solve(digest, 3)
                assert not slept
                futures_wait([blocker, filler], timeout=30)


@pytest.fixture
def live_server():
    """A real socket server on an ephemeral port, torn down after the test."""
    server = ServiceServer(port=0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestSocketFaults:
    def test_client_disconnect_mid_reply_keeps_server_alive(self, live_server):
        host, port = live_server.address
        with FaultInjector().add("server.reply", disconnect=True, times=1):
            with Client.connect(host, port, timeout=5.0) as victim:
                # the injected ConnectionResetError drops this reply; the
                # handler must close this one connection quietly
                with pytest.raises(ServiceError, match="closed the connection"):
                    victim.ping()
        # the server (and its service) survived: a fresh connection works
        with Client.connect(host, port, timeout=5.0) as fresh:
            assert fresh.ping()
            digest = fresh.add_graph(gnp_random_graph(25, 0.3, seed=3))
            assert fresh.solve(digest, 1)["optimal"]

    def test_slow_reply_times_out_typed_and_poisons_client(self, live_server):
        host, port = live_server.address
        with FaultInjector().add("server.reply", delay=1.0, times=1):
            with Client.connect(host, port, timeout=5.0, request_timeout=0.2) as client:
                with pytest.raises(ClientTimeoutError):
                    client.ping()
                # the line protocol is now unsynchronised: the client refuses reuse
                with pytest.raises(ServiceError, match="broken"):
                    client.ping()
        with Client.connect(host, port, timeout=5.0) as fresh:
            assert fresh.ping()

    def test_deadline_travels_the_wire(self, live_server):
        host, port = live_server.address
        with FaultInjector().add("store.prepare", delay=0.8, times=1):
            with Client.connect(host, port, timeout=5.0) as client:
                digest = client.add_graph(gnp_random_graph(25, 0.3, seed=3))
                with pytest.raises(DeadlineExceededError):
                    client.solve(digest, 1, deadline=0.2)
                assert client.solve(digest, 1)["optimal"]

    def test_raw_socket_vanishing_mid_request_is_harmless(self, live_server):
        """A connection dropped without a newline must not wedge a handler."""
        host, port = live_server.address
        sock = socket.create_connection((host, port), timeout=5.0)
        sock.sendall(b'{"op": "ping"')  # no newline, no complete request
        sock.close()
        with Client.connect(host, port, timeout=5.0) as fresh:
            assert fresh.ping()


class TestParallelWorkerFaults:
    """Lost-worker recovery of the process pool, scripted deterministically."""

    K = 2

    @pytest.fixture
    def parallel_graph(self):
        return gnp_random_graph(90, 0.3, seed=7)

    @pytest.fixture
    def parallel_config(self):
        return SolverConfig(backend="bitset", decompose_threshold=1, workers=2)

    def test_killed_worker_recovers_and_stays_exact(self, parallel_graph, parallel_config):
        """SIGKILLing the worker holding batch 0 must not cost exactness.

        The rule is pinned to batch index 0 and re-fires in every fresh pool
        round (each forked worker starts with its own fire budget), so the
        pool rounds exhaust and the sequential fallback finishes the lost
        anchors in the parent — which never runs ``_solve_batch`` and is
        therefore immune to the kill rule.
        """
        expected = sequential_answer(parallel_graph, self.K)
        with FaultInjector().add("parallel.batch", kill=True, times=1, match={"index": 0}):
            result = KDCSolver(parallel_config).solve(parallel_graph, self.K)
        assert result.optimal
        assert result.size == expected.size
        assert is_k_defective_clique(parallel_graph, result.clique, self.K)
        # the degradation is recorded: recovery ran sequentially
        assert result.stats.workers == 1

    def test_lost_worker_remainder_is_journaled(self, tmp_path, parallel_graph, parallel_config):
        """The anchors the pool lost are searched in-process *and* journaled."""
        from repro.core import SolveCheckpoint, checkpoint_meta, prepare_instance

        expected = sequential_answer(parallel_graph, self.K)
        prepared = prepare_instance(parallel_graph, self.K, parallel_config)
        meta = checkpoint_meta("g", self.K, "kDC", parallel_config)
        checkpoint = SolveCheckpoint(str(tmp_path / "c.wal"), meta)
        with FaultInjector().add("parallel.batch", kill=True, times=1, match={"index": 0}):
            result = KDCSolver(parallel_config).solve_prepared(prepared, checkpoint=checkpoint)
        checkpoint.close()
        assert result.optimal
        assert result.size == expected.size
        assert result.stats.workers == 1
        assert set(prepared.ordering) <= checkpoint.completed

    def test_phantom_bound_is_audited_away(self, parallel_graph, parallel_config):
        """A worker publishing an unbacked bound and dying must not shrink the answer.

        The phantom action inflates the shared best-size cell by 5 and kills
        the worker: siblings prune against a bound with no witness solution.
        The round audit must re-queue everything that merged under the
        poisoned bound, and the final answer must still be exact.
        """
        expected = sequential_answer(parallel_graph, self.K)
        with FaultInjector().add(
            "parallel.batch", phantom=5, times=1, match={"index": 0}
        ) as inj:
            result = KDCSolver(parallel_config).solve(parallel_graph, self.K)
        assert result.optimal
        assert result.size == expected.size
        assert is_k_defective_clique(parallel_graph, result.clique, self.K)


class TestCrashRecovery:
    """Durability under crashes: torn publishes, damaged journals, SIGKILL + resume."""

    K = 2
    CONFIG = SolverConfig(backend="bitset", decompose_threshold=1, workers=1)

    @pytest.fixture
    def state_dir(self, tmp_path):
        return str(tmp_path / "state")

    def _persistence(self, state_dir):
        from repro.service import ServicePersistence

        return ServicePersistence(state_dir)

    def _service(self, state_dir, **kwargs):
        return SolverService(
            config=self.CONFIG, persistence=self._persistence(state_dir), **kwargs
        )

    def test_snapshot_write_failure_degrades_to_in_memory(self, graph, state_dir):
        """A crash in the publish window (or any write failure) never fails requests."""
        with FaultInjector().add("persist.write", error="disk died", times=1):
            with self._service(state_dir) as service:
                digest = service.store.add(graph)  # snapshot write fails here
                answer = service.solve(digest, self.K)
                assert answer.optimal  # the request itself is unharmed

        with self._service(state_dir) as warm:
            # The torn graph snapshot was never published, but the result
            # journal (a separate path) survived: re-adding the graph makes
            # the restored cache answer immediately.
            assert warm.store.stats()["restored_graphs"] == 0
            assert warm.stats()["restored_results"] == 1
            hit = warm.solve(graph, self.K)
            assert hit.stats.cache_hit and hit.size == answer.size

    def test_truncated_results_tail_restores_valid_prefix(self, graph, state_dir):
        other = gnp_random_graph(30, 0.3, seed=4)
        with self._service(state_dir) as service:
            first = service.solve(graph, self.K)
            service.solve(other, self.K)
        results_path = self._persistence(state_dir).results_path
        with open(results_path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 9)  # crash mid-append of the last record

        with self._service(state_dir) as warm:
            assert warm.stats()["restored_results"] == 1
            assert warm.solve(graph, self.K).stats.cache_hit
            # the lost entry is simply re-solved — and matches exactly
            redo = warm.solve(other, self.K)
            assert not redo.stats.cache_hit
            assert redo.size == sequential_answer(other, self.K).size
        assert first.size == sequential_answer(graph, self.K).size

    def test_corrupt_checksum_record_discards_damaged_suffix(self, state_dir):
        """Bit rot inside the journal drops everything from the bad record on."""
        from repro.core.checkpoint import read_records

        graphs = [gnp_random_graph(16, 0.4, seed=s) for s in range(3)]
        with self._service(state_dir) as service:
            for g in graphs:
                service.solve(g, self.K)
        results_path = self._persistence(state_dir).results_path
        scan = read_records(results_path)
        assert len(scan.records) == 3
        offset = 8 + len(scan.records[0]) + 8 + 4  # a few bytes into record 2's payload
        with open(results_path, "rb+") as fh:
            fh.seek(offset)
            original = fh.read(2)
            fh.seek(offset)
            fh.write(bytes(b ^ 0xFF for b in original))

        with self._service(state_dir) as warm:
            assert warm.stats()["restored_results"] == 1
            assert warm.solve(graphs[0], self.K).stats.cache_hit
            assert not warm.solve(graphs[1], self.K).stats.cache_hit
        # replay truncated the file back to its valid prefix + the re-solves
        assert not read_records(results_path).damaged

    def test_sigkill_mid_decomposed_solve_resumes_exactly(self, state_dir):
        """The acceptance bar: kill -9 a checkpointing solve, restart, resume.

        A forked child runs the solve with a kill rule pinned to the 31st
        checkpoint append, so it dies with exactly 30 completed anchors
        durable in the journal.  The restarted service must execute only the
        unfinished anchors and still produce the sequential answer
        bit-identically.
        """
        import multiprocessing

        hard = gnp_random_graph(90, 0.3, seed=7)
        digest = hard.content_digest()
        expected = KDCSolver(self.CONFIG).solve(hard, self.K)
        state = state_dir

        def crashing_child():
            FaultInjector().add(
                "checkpoint.append", kill=True, times=1, match={"count": 30}
            ).install()
            service = self._service(state)
            service.solve(hard, self.K)  # never returns: SIGKILL mid-loop

        child = multiprocessing.get_context("fork").Process(target=crashing_child)
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -9, f"child should die by SIGKILL, got {child.exitcode}"

        persistence = self._persistence(state_dir)
        assert os.listdir(persistence.checkpoints_dir), (
            "the killed solve must leave its checkpoint journal behind"
        )

        with self._service(state_dir) as warm:
            # the graph snapshot survived the kill: the digest is known
            assert warm.store.stats()["restored_graphs"] == 1
            resumed = warm.submit(digest, self.K).result(timeout=300)
            assert resumed.optimal
            assert resumed.clique == expected.clique  # bit-identical, not just same size
            assert resumed.stats.subproblems_restored == 30
            # only the unfinished anchors ran; the anchor count is conserved
            assert resumed.stats.subproblems < expected.stats.subproblems
            assert resumed.stats.nodes < expected.stats.nodes
            assert (
                resumed.stats.subproblems_restored
                + resumed.stats.subproblems
                + resumed.stats.subproblems_pruned
                == expected.stats.subproblems + expected.stats.subproblems_pruned
            )
        # the completed solve retired its journal
        assert os.listdir(persistence.checkpoints_dir) == []

    def test_resumed_service_solve_after_clean_interrupt(self, state_dir):
        """A budget-interrupted service solve leaves a journal the retry consumes."""
        hard = gnp_random_graph(90, 0.3, seed=7)
        expected = KDCSolver(self.CONFIG).solve(hard, self.K)
        with self._service(state_dir) as service:
            digest = service.store.add(hard)
            partial = service.solve(digest, self.K, node_limit=expected.stats.nodes // 3)
            assert not partial.optimal
            # the interrupted (non-optimal) solve kept its checkpoint...
            full = service.solve(digest, self.K)
            assert full.optimal
            assert full.clique == expected.clique
            assert full.stats.subproblems_restored > 0


class TestPostChaosDifferential:
    """The acceptance bar: after a storm of faults, answers are still exact."""

    def test_service_answers_match_fresh_sequential_solve_after_chaos(self, graph):
        expected = sequential_answer(graph, 2)
        inj = (
            FaultInjector()
            .add("store.prepare", delay=0.4, times=1)
            .add("scheduler.solve", error="solver exploded", times=1)
            .add("server.reply", disconnect=True, times=1)
        )
        with inj:
            with SolverService(max_concurrency=2, default_deadline=15.0) as service:
                client = Client(service=service)
                digest = client.add_graph(graph)
                outcomes = []
                for _ in range(6):
                    try:
                        outcomes.append(client.solve(digest, 2))
                    except ServiceError as exc:
                        outcomes.append(exc)
                # every request was answered or typed-failed, never dropped
                assert len(outcomes) == 6
                # and at least one clean answer came through the storm
                replies = [o for o in outcomes if isinstance(o, dict)]
                assert replies
                for reply in replies:
                    assert reply["size"] == expected.size
                    assert is_k_defective_clique(graph, reply["clique"], 2)
        # post-chaos, with no injector installed: the cached answer is sane
        with SolverService() as fresh_service:
            digest = fresh_service.store.add(graph)
            post = fresh_service.solve(digest, 2)
            assert post.optimal
            assert post.size == expected.size
