"""Chaos suite for the dynamic-graph subsystem.

Scripts exact failures through :class:`repro.testing.chaos.FaultInjector`
at the two dynamic fault points and asserts the crash-safety contract:

* ``dynamic.apply`` — a crash mid-mutation publishes *nothing*: the store
  keeps serving the predecessor digest, no torn state lands on disk, and a
  restart sees only the predecessor;
* ``dynamic.resolve`` — a crash in the incremental route degrades to a
  correct full solve (the route is an accelerator, never a correctness
  dependency);
* ``checkpoint.append`` — a killed incremental re-solve resumes from its
  carry-over checkpoint: the retry skips every journaled anchor instead of
  restarting, and still answers exactly;
* ``persist.write`` — a successor's periodic snapshot fails: the mutation
  still succeeds on its delta WAL record, the next successor takes the
  snapshot instead, and a restart restores the chain tip.

Both faults strike after the delta went into the epoch's relabeled graph in
place, so they also pin the undo: a later, different delta is answered
against the predecessor, not against a graph still carrying the failed one.
"""

from __future__ import annotations

import os

import pytest

from repro.core import KDCSolver, SolverConfig
from repro.dynamic import EdgeDelta, IncrementalSolver, apply_delta
from repro.dynamic import incremental
from repro.graphs import gnp_random_graph
from repro.service import Client, GraphStore, ServicePersistence, SolverService
from repro.service.store import SNAPSHOT_INTERVAL
from repro.testing import FaultInjector, InjectedFaultError
from repro.testing import chaos

CONFIG = SolverConfig(backend="bitset", decompose_threshold=1, workers=1)
K = 1


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    chaos.uninstall()
    yield
    chaos.uninstall()


@pytest.fixture
def incremental_route(monkeypatch):
    """No delta falls back for touching too many anchors."""
    monkeypatch.setattr(incremental, "MAX_AFFECTED_FRACTION", 1.0)


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.15, seed=12)


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


def absent_edges(graph, count):
    out = []
    for u in sorted(graph.vertex_set()):
        for v in sorted(graph.vertex_set()):
            if u < v and not graph.has_edge(u, v):
                out.append((u, v))
                if len(out) == count:
                    return out
    raise AssertionError("graph too dense for the requested delta")


class TestDynamicApplyFault:
    def test_crash_mid_mutation_leaves_store_serving_predecessor(
        self, graph, state_dir
    ):
        store = GraphStore(persistence=ServicePersistence(state_dir))
        digest = store.add(graph, name="g")
        delta = EdgeDelta(adds=absent_edges(graph, 1))

        with FaultInjector().add("dynamic.apply", error="crash mid-mutation"):
            with pytest.raises(InjectedFaultError):
                store.apply_delta(digest, delta, name="g")

        # nothing observable happened: predecessor served, no links, no count
        assert store.resolve("g") == digest
        assert store.get(digest).content_digest() == digest
        assert store.stats()["mutations"] == 0
        _, succ_digest = apply_delta(graph, delta)
        assert succ_digest not in store
        assert store.parent_digest(succ_digest) is None
        store._persistence.close()

        # ... and nothing landed on disk: a restart serves the predecessor only
        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert restored.resolve("g") == digest
        assert succ_digest not in restored
        assert restored.stats()["restored_deltas"] == 0

        # the same delta applies cleanly once the fault is gone
        assert restored.apply_delta(digest, delta, name="g") == succ_digest

    def test_service_answers_typed_error_and_stays_alive(self, graph):
        with SolverService(config=CONFIG) as service:
            client = Client(service=service)
            client.add_graph(graph, name="g")
            from repro.exceptions import ServiceError

            with FaultInjector().add("dynamic.apply", error="boom") as injector:
                with pytest.raises(ServiceError) as excinfo:
                    client.mutate("g", adds=absent_edges(graph, 1))
                assert "InjectedFaultError" in str(excinfo.value)
                assert [p for p, _ in injector.fired] == ["dynamic.apply"]

            # the connection and the service survive; the mutate now works
            assert client.ping()
            reply = client.mutate("g", adds=absent_edges(graph, 1))
            assert reply["ok"]


class TestSnapshotFault:
    def test_failed_periodic_snapshot_is_retried_by_next_successor(self, graph, state_dir):
        persistence = ServicePersistence(state_dir)
        store = GraphStore(persistence=persistence)
        digest = store.add(graph, name="g")
        current, chain = graph, []
        for step in range(1, SNAPSHOT_INTERVAL + 2):
            delta = EdgeDelta(adds=absent_edges(current, 1))
            if step == SNAPSHOT_INTERVAL:  # the first periodic snapshot fails
                with FaultInjector().add("persist.write", error="disk full") as injector:
                    digest = store.apply_delta(digest, delta, name="g")
                assert [p for p, _ in injector.fired] == ["persist.write"]
            else:
                digest = store.apply_delta(digest, delta, name="g")
            current, _ = apply_delta(current, delta)
            chain.append(digest)
        assert store.stats()["mutations"] == SNAPSHOT_INTERVAL + 1
        snapshotted = [os.path.exists(persistence._graph_path(d)) for d in chain]
        assert snapshotted == [False] * SNAPSHOT_INTERVAL + [True]
        persistence.close()

        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert restored.resolve("g") == digest
        assert restored.get(digest) == current
        assert restored.stats()["restored_graphs"] == SNAPSHOT_INTERVAL + 2

    def test_root_without_snapshot_hands_it_to_first_successor(self, graph, state_dir):
        persistence = ServicePersistence(state_dir)
        store = GraphStore(persistence=persistence)
        with FaultInjector().add("persist.write", error="disk full") as injector:
            root = store.add(graph, name="g")
        assert injector.fired
        child = store.apply_delta(root, EdgeDelta(adds=absent_edges(graph, 1)), name="g")
        assert os.path.exists(persistence._graph_path(child))
        persistence.close()

        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert restored.resolve("g") == child and root not in restored

    def test_unjournaled_successor_is_snapshotted(self, graph, state_dir, monkeypatch):
        persistence = ServicePersistence(state_dir)
        store = GraphStore(persistence=persistence)
        root = store.add(graph)

        def full_disk(*_args):
            raise OSError("disk full")

        monkeypatch.setattr(persistence, "append_delta", full_disk)
        child = store.apply_delta(root, EdgeDelta(adds=absent_edges(graph, 1)))
        assert os.path.exists(persistence._graph_path(child))
        persistence.close()

        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert restored.get(child).content_digest() == child


class TestDynamicResolveFault:
    def test_service_falls_back_to_full_solve(self, graph):
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph)
            assert service.solve(digest, K).optimal
            delta = EdgeDelta(adds=absent_edges(graph, 1))
            child = service.mutate(digest, adds=delta.adds)["digest"]

            with FaultInjector().add("dynamic.resolve", error="boom") as injector:
                answer = service.solve(child, K)
                assert [p for p, _ in injector.fired] == ["dynamic.resolve"]

            successor, _ = apply_delta(graph, delta)
            reference = KDCSolver(CONFIG).solve(successor, K)
            assert answer.optimal and answer.size == reference.size
            stats = service.stats()
            assert stats["incremental_hits"] == 0  # the route never completed

    @pytest.mark.usefixtures("incremental_route")
    def test_incremental_solver_retry_after_fault_is_exact(self):
        # sparse enough that the single add stays under the affected-fraction
        # guard (the fault point fires only on the incremental route)
        graph = gnp_random_graph(120, 0.04, seed=5)
        tracker = IncrementalSolver(CONFIG)
        tracker.solve(graph, K)
        delta = EdgeDelta(adds=absent_edges(graph, 1))

        with FaultInjector().add("dynamic.resolve", error="boom") as injector:
            with pytest.raises(InjectedFaultError):
                tracker.apply(delta)
            assert injector.fired

        # no state was committed: still tracking the predecessor
        assert tracker.digest == graph.content_digest()
        report = tracker.apply(delta)
        successor, succ_digest = apply_delta(graph, delta)
        assert report.digest == succ_digest
        assert report.result.size == KDCSolver(CONFIG).solve(successor, K).size


class TestEpochUndo:
    @pytest.mark.parametrize("point", ["dynamic.resolve", "checkpoint.append"])
    @pytest.mark.usefixtures("incremental_route")
    def test_failed_resolve_leaves_epoch_on_predecessor(self, point):
        graph = gnp_random_graph(60, 0.25, seed=21)
        edges = absent_edges(graph, 3)
        failed, other = EdgeDelta(adds=edges[:2]), EdgeDelta(adds=edges[2:])
        tracker = IncrementalSolver(CONFIG)
        tracker.solve(graph, K)
        relabeled, to_int, _ = graph.relabel()

        with FaultInjector().add(point, error="boom") as injector:
            with pytest.raises(InjectedFaultError):
                tracker.apply(failed)
            assert [p for p, _ in injector.fired] == [point]
        assert tracker._epoch.graph == relabeled

        report = tracker.apply(other)
        successor, succ_digest = apply_delta(graph, other)
        assert report.incremental, report.fallback_reason
        assert report.digest == succ_digest
        assert report.result.size == KDCSolver(CONFIG).solve(successor, K).size
        assert tracker._epoch.graph == successor.relabel()[0]


class TestCheckpointResume:
    @pytest.mark.usefixtures("incremental_route")
    def test_killed_incremental_resolve_resumes_from_checkpoint(
        self, tmp_path
    ):
        """Twin-solver resume: fault one mid-re-solve, retry, observe the
        journaled anchors restored instead of re-searched."""
        dense = gnp_random_graph(60, 0.25, seed=21)
        delta = EdgeDelta(adds=absent_edges(dense, 3))

        # the unfaulted twin tells us the affected/unaffected split
        twin = IncrementalSolver(CONFIG)
        twin.solve(dense, K)
        twin_report = twin.apply(delta)
        assert twin_report.incremental, twin_report.fallback_reason
        assert twin_report.anchors_affected >= 2, (
            "resume scenario needs at least two affected anchors"
        )
        n_unaffected = twin_report.anchors_reused

        tracker = IncrementalSolver(CONFIG, checkpoint_dir=str(tmp_path / "ckpt"))
        tracker.solve(dense, K)
        # the first affected anchor journals at count == n_unaffected (the
        # carried-over anchors are merged in memory, never journaled), so
        # this rule crashes the re-solve after exactly one affected anchor
        # became durable.
        injector = FaultInjector().add(
            "checkpoint.append", error="killed mid-re-solve",
            match={"count": n_unaffected + 1},
        )
        with injector:
            with pytest.raises(InjectedFaultError):
                tracker.apply(delta)
        assert [p for p, _ in injector.fired] == ["checkpoint.append"]
        assert tracker.digest == dense.content_digest()  # nothing committed

        # retry the same delta: resumes from the journal and answers exactly
        report = tracker.apply(delta)
        assert report.incremental
        assert report.digest == twin_report.digest
        assert report.result.size == twin_report.result.size
        restored = report.result.stats.subproblems_restored
        assert restored > n_unaffected, (
            f"expected the journaled affected anchor to be restored "
            f"(restored={restored}, unaffected={n_unaffected})"
        )

    @pytest.mark.usefixtures("incremental_route")
    def test_memory_carry_resumes_without_checkpoint_dir(self):
        """The in-memory carry keeps a failed apply's progress for a retry."""
        dense = gnp_random_graph(60, 0.25, seed=21)
        delta = EdgeDelta(adds=absent_edges(dense, 3))

        twin = IncrementalSolver(CONFIG)
        twin.solve(dense, K)
        twin_report = twin.apply(delta)
        assert twin_report.incremental
        n_unaffected = twin_report.anchors_reused

        # no checkpoint_dir: the in-memory carry
        tracker = IncrementalSolver(CONFIG)
        tracker.solve(dense, K)
        injector = FaultInjector().add(
            "checkpoint.append", error="boom", match={"count": n_unaffected + 1}
        )
        with injector:
            with pytest.raises(InjectedFaultError):
                tracker.apply(delta)
        assert injector.fired

        report = tracker.apply(delta)
        assert report.incremental
        assert report.result.size == twin_report.result.size
        assert report.result.stats.subproblems_restored > n_unaffected
