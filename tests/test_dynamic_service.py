"""Dynamic graphs through the service layer: store, scheduler, wire, disk.

Covers the digest chain in :class:`~repro.service.store.GraphStore`
(``apply_delta`` / ``parent_digest`` / ``delta_chain`` / name resolution),
the scheduler's ``mutate`` op and incremental solve routing
(``incremental_hits`` / ``anchors_reused`` / ``anchors_resolved``), the
JSON-lines protocol surface, and the delta WAL in
:class:`~repro.service.persistence.ServicePersistence` — including a
kill/restart cycle that must keep the chain intact and rebuild successors
whose snapshots are missing.
"""

from __future__ import annotations

import pytest

from repro.core import KDCSolver, SolverConfig
from repro.dynamic import EdgeDelta, apply_delta
from repro.exceptions import (
    EdgeNotFoundError,
    InvalidParameterError,
    ServiceClosedError,
    UnknownGraphError,
)
from repro.graphs import gnp_random_graph
from repro.service import Client, GraphStore, ServicePersistence, SolverService

CONFIG = SolverConfig(backend="bitset", decompose_threshold=1, workers=1)
K = 1


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.15, seed=12)


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


def valid_delta(graph, adds=1, removes=0):
    """A small delta valid against ``graph``: absent adds, present removes."""
    vertices = sorted(graph.vertex_set())
    add_edges = []
    for u in vertices:
        for v in vertices:
            if u < v and not graph.has_edge(u, v) and (u, v) not in add_edges:
                add_edges.append((u, v))
                if len(add_edges) == adds:
                    break
        if len(add_edges) == adds:
            break
    remove_edges = [tuple(sorted(e)) for e in list(graph.iter_edges())[:removes]]
    return EdgeDelta(adds=add_edges, removes=remove_edges)


def mutate_chain(store, digest, graph, steps, name=None):
    """Apply ``steps`` one-edge deltas from ``digest``; return the successor digests."""
    digests = []
    for _ in range(steps):
        delta = valid_delta(graph)
        digest = store.apply_delta(digest, delta, name=name)
        graph, _ = apply_delta(graph, delta)
        digests.append(digest)
    return digests


# --------------------------------------------------------------------------- #
# GraphStore digest chain
# --------------------------------------------------------------------------- #
class TestGraphStoreDeltas:
    def test_apply_delta_links_parent_and_keeps_predecessor(self, graph):
        store = GraphStore()
        digest = store.add(graph, name="g")
        delta = valid_delta(graph)
        child = store.apply_delta(digest, delta, name="g")
        assert child != digest
        assert store.parent_digest(child) == digest
        assert store.parent_digest(digest) is None
        # predecessor still stored and unmodified
        assert store.get(digest).content_digest() == digest
        expected, expected_digest = apply_delta(graph, delta)
        assert child == expected_digest
        assert store.get(child).content_digest() == child
        assert store.stats()["mutations"] == 1

    def test_delta_chain_walks_multiple_steps(self, graph):
        store = GraphStore()
        root = store.add(graph)
        digests, current_graph, current = [root], graph, root
        for _ in range(3):
            delta = valid_delta(current_graph)
            current = store.apply_delta(current, delta)
            current_graph, _ = apply_delta(current_graph, delta)
            digests.append(current)
        chain = store.delta_chain(root, digests[-1])
        assert [d for d, _ in chain] == digests[1:]
        # middle of the chain works too
        assert len(store.delta_chain(digests[1], digests[-1])) == 2
        # equal endpoints: the empty chain
        assert store.delta_chain(root, root) == []
        # unrelated digest: no path
        assert store.delta_chain(digests[-1], root) is None

    def test_delta_chain_respects_max_steps(self, graph):
        store = GraphStore()
        current_graph, current = graph, store.add(graph)
        root = current
        for _ in range(3):
            delta = valid_delta(current_graph)
            current = store.apply_delta(current, delta)
            current_graph, _ = apply_delta(current_graph, delta)
        assert store.delta_chain(root, current, max_steps=2) is None
        assert store.delta_chain(root, current, max_steps=3) is not None

    def test_resolve_prefers_digest_then_latest_name(self, graph):
        store = GraphStore()
        digest = store.add(graph, name="stream")
        child = store.apply_delta(digest, valid_delta(graph), name="stream")
        assert store.resolve(digest) == digest
        assert store.resolve("stream") == child  # latest bearer wins
        with pytest.raises(UnknownGraphError):
            store.resolve("no-such-graph")

    def test_apply_delta_unknown_digest(self):
        store = GraphStore()
        with pytest.raises(UnknownGraphError):
            store.apply_delta("0" * 64, EdgeDelta(adds=[(0, 1)]))

    def test_invalid_transition_rejected_and_store_unchanged(self, graph):
        store = GraphStore()
        digest = store.add(graph)
        with pytest.raises(EdgeNotFoundError):
            store.apply_delta(digest, EdgeDelta(removes=[(0, 999)]))
        assert store.stats()["mutations"] == 0
        assert len(store) == 1

    def test_mutation_purges_predecessor_prepared_artifacts(self, graph):
        store = GraphStore(max_prepared=8)
        digest = store.add(graph)
        store.prepared(digest, K, CONFIG)
        assert store.stats()["prepared_artifacts"] == 1
        store.apply_delta(digest, valid_delta(graph))
        assert store.stats()["prepared_artifacts"] == 0

    def test_pickle_round_trip_keeps_chain(self, graph):
        import pickle

        store = GraphStore()
        digest = store.add(graph, name="g")
        child = store.apply_delta(digest, valid_delta(graph), name="g")
        clone = pickle.loads(pickle.dumps(store))
        assert clone.parent_digest(child) == digest
        assert clone.delta_chain(digest, child) is not None
        assert clone.stats()["mutations"] == 1


# --------------------------------------------------------------------------- #
# SolverService mutate + incremental routing
# --------------------------------------------------------------------------- #
class TestServiceMutate:
    def test_mutate_reply_shape(self, graph):
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph, name="g")
            delta = valid_delta(graph, adds=2, removes=1)
            reply = service.mutate("g", adds=delta.adds, removes=delta.removes)
            assert reply["parent"] == digest
            assert reply["adds"] == 2 and reply["removes"] == 1
            successor = service.store.get(reply["digest"])
            assert reply["n"] == successor.num_vertices
            assert reply["m"] == successor.num_edges

    def test_solve_after_mutate_routes_incrementally(self, graph):
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph)
            first = service.solve(digest, K)
            assert first.optimal

            current_graph, current = graph, digest
            for _ in range(2):
                delta = valid_delta(current_graph)
                reply = service.mutate(current, adds=delta.adds, removes=delta.removes)
                current = reply["digest"]
                current_graph, _ = apply_delta(current_graph, delta)
                answer = service.solve(current, K)
                reference = KDCSolver(CONFIG).solve(current_graph, K)
                assert answer.optimal and answer.size == reference.size

            stats = service.stats()
            assert stats["incremental_hits"] == 2
            assert stats["mutations"] == 2
            assert stats["anchors_reused"] > 0

    def test_mutate_and_solve_step_makes_no_full_digest(self, monkeypatch):
        """A step derives the successor's digest and copies the graph once."""
        from repro.graphs.graph import Graph

        # sparse enough that one add stays under the affected-fraction guard
        graph = gnp_random_graph(120, 0.04, seed=5)
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph)
            witness = set(service.solve(digest, K).clique)
            # a removal that keeps the previous optimum valid, so the solve
            # stays on the incremental route
            removed = next(e for e in graph.iter_edges() if not set(e) <= witness)
            delta = EdgeDelta(adds=valid_delta(graph).adds, removes=[removed])
            calls = []
            for name in ("content_digest", "copy"):
                real = getattr(Graph, name)
                monkeypatch.setattr(
                    Graph, name, lambda g, real=real, name=name: calls.append(name) or real(g)
                )
            child = service.mutate(digest, adds=delta.adds, removes=delta.removes)["digest"]
            answer = service.solve(child, K)
            assert service.stats()["anchors_reused"] > 0
            assert calls == ["copy"]
            successor, succ_digest = apply_delta(graph, delta)
            assert child == succ_digest
            assert answer.size == KDCSolver(CONFIG).solve(successor, K).size

    def test_incremental_answer_lands_in_result_cache(self, graph):
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph)
            service.solve(digest, K)
            delta = valid_delta(graph)
            child = service.mutate(digest, adds=delta.adds, removes=delta.removes)["digest"]
            first = service.solve(child, K)
            again = service.solve(child, K)
            assert again.size == first.size
            assert again.stats.cache_hit
            assert service.stats()["incremental_hits"] == 1  # the repeat was a cache hit

    def test_mutate_without_prior_solve_then_solve_full(self, graph):
        """No epoch yet: the successor's solve takes the ordinary path."""
        with SolverService(config=CONFIG) as service:
            digest = service.store.add(graph)
            delta = valid_delta(graph)
            child = service.mutate(digest, adds=delta.adds, removes=delta.removes)["digest"]
            answer = service.solve(child, K)
            successor, _ = apply_delta(graph, delta)
            assert answer.size == KDCSolver(CONFIG).solve(successor, K).size
            assert service.stats()["incremental_hits"] == 0

    def test_mutate_after_close_rejected(self, graph):
        service = SolverService(config=CONFIG)
        digest = service.store.add(graph)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.mutate(digest, adds=[(0, 999)])


# --------------------------------------------------------------------------- #
# Protocol surface (in-process Client -> handle_request)
# --------------------------------------------------------------------------- #
class TestMutateProtocol:
    def test_mutate_round_trip(self, graph):
        with SolverService(config=CONFIG) as service:
            client = Client(service=service)
            digest = client.add_graph(graph, name="g")
            delta = valid_delta(graph)
            reply = client.mutate("g", adds=delta.adds, removes=delta.removes, name="g2")
            assert reply["ok"] and reply["parent"] == digest
            answer = client.solve(reply["digest"], K)
            successor, _ = apply_delta(graph, delta)
            assert answer["size"] == KDCSolver(CONFIG).solve(successor, K).size

    def test_mutate_requires_graph_ref(self, graph):
        with SolverService(config=CONFIG) as service:
            from repro.service import handle_request

            reply = handle_request(service, {"op": "mutate", "adds": [[0, 1]]})
            assert not reply["ok"]
            assert "graph" in reply["error"]

    def test_mutate_bad_delta_answers_typed_error(self, graph):
        with SolverService(config=CONFIG) as service:
            client = Client(service=service)
            client.add_graph(graph, name="g")
            from repro.exceptions import ServiceError

            with pytest.raises(ServiceError) as excinfo:
                client.mutate("g", removes=[(0, 999)])
            assert "EdgeNotFoundError" in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                client.mutate("g")  # empty delta
            assert "InvalidParameterError" in str(excinfo.value)

    def test_mutate_unknown_ref(self, graph):
        with SolverService(config=CONFIG) as service:
            client = Client(service=service)
            from repro.exceptions import ServiceError

            with pytest.raises(ServiceError) as excinfo:
                client.mutate("missing", adds=[(0, 1)])
            assert "UnknownGraphError" in str(excinfo.value)


# --------------------------------------------------------------------------- #
# Persistence: the delta WAL
# --------------------------------------------------------------------------- #
class TestDeltaPersistence:
    def test_delta_wal_replay_round_trip(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        delta = valid_delta(graph)
        persistence.append_delta("parent-d", "child-d", "g", delta)
        persistence.close()
        records = ServicePersistence(state_dir).replay_deltas()
        assert records == [
            ("parent-d", "child-d", "g", tuple(delta.adds), tuple(delta.removes))
        ]

    def test_restart_restores_chain(self, state_dir, graph):
        store = GraphStore(persistence=ServicePersistence(state_dir))
        root = store.add(graph, name="g")
        digests, current_graph, current = [root], graph, root
        for _ in range(3):
            delta = valid_delta(current_graph)
            current = store.apply_delta(current, delta, name="g")
            current_graph, _ = apply_delta(current_graph, delta)
            digests.append(current)
        store._persistence.close()  # simulate an abrupt stop (no clean close path needed)

        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert restored.stats()["restored_deltas"] == 3
        for parent, child in zip(digests, digests[1:]):
            assert restored.parent_digest(child) == parent
        chain = restored.delta_chain(root, digests[-1])
        assert [d for d, _ in chain] == digests[1:]
        assert restored.resolve("g") == digests[-1]

    def test_restart_counts_every_restored_graph(self, state_dir, graph):
        store = GraphStore(persistence=ServicePersistence(state_dir))
        digests = [store.add(graph, name="g")]
        digests += mutate_chain(store, digests[0], graph, 40, name="g")
        store._persistence.close()

        # snapshots and successors rebuilt from the WAL alike
        restored = GraphStore(persistence=ServicePersistence(state_dir))
        stats = restored.stats()
        assert stats["restored_graphs"] == 41 and stats["restored_deltas"] == 40
        assert set(restored.graphs()) == set(digests)
        assert all(restored.get(d).content_digest() == d for d in digests)
        assert restored.resolve("g") == digests[-1]

    def test_restart_resumes_the_snapshot_cadence(self, state_dir, graph):
        import os

        from repro.service.store import SNAPSHOT_INTERVAL

        store = GraphStore(persistence=ServicePersistence(state_dir))
        tip = mutate_chain(store, store.add(graph), graph, 20)[-1]
        store._persistence.close()

        persistence = ServicePersistence(state_dir)
        restored = GraphStore(persistence=persistence)
        later = mutate_chain(restored, tip, restored.get(tip), SNAPSHOT_INTERVAL - 20)
        snapshotted = [os.path.exists(persistence._graph_path(d)) for d in later]
        assert snapshotted == [False] * (SNAPSHOT_INTERVAL - 21) + [True]

    def test_capped_restart_keeps_both_chain_tips(self, state_dir, graph):
        other = gnp_random_graph(40, 0.15, seed=13)
        store = GraphStore(persistence=ServicePersistence(state_dir))
        tips = {"a": store.add(graph, name="a"), "b": store.add(other, name="b")}
        current = {"a": graph, "b": other}
        for _ in range(40):  # interleaved, past the snapshot interval
            for name in ("a", "b"):
                delta = valid_delta(current[name])
                tips[name] = store.apply_delta(tips[name], delta, name=name)
                current[name], _ = apply_delta(current[name], delta)
        store._persistence.close()

        restored = GraphStore(max_graphs=2, persistence=ServicePersistence(state_dir))
        assert len(restored) == 2
        for name in ("a", "b"):
            assert restored.resolve(name) == tips[name]
            assert restored.get(tips[name]) == current[name]

    def test_restart_rebuilds_missing_snapshot_from_wal(self, state_dir, graph):
        import os

        persistence = ServicePersistence(state_dir)
        store = GraphStore(persistence=persistence)
        root = store.add(graph)
        delta = valid_delta(graph)
        child = store.apply_delta(root, delta)
        persistence.close()
        # a successor this near its root is durable by its delta alone: no
        # snapshot of its own, so the WAL must rebuild it from the parent
        assert os.path.exists(persistence._graph_path(root))
        assert not os.path.exists(persistence._graph_path(child))

        restored = GraphStore(persistence=ServicePersistence(state_dir))
        assert child in restored
        assert restored.get(child).content_digest() == child
        assert restored.parent_digest(child) == root

    def test_service_restart_keeps_serving_the_chain(self, state_dir, graph):
        """The acceptance scenario: mutate, kill, restart, chain intact."""
        service = SolverService(config=CONFIG, persistence=ServicePersistence(state_dir))
        digest = service.store.add(graph, name="g")
        first = service.solve(digest, K)
        delta = valid_delta(graph)
        child = service.mutate("g", adds=delta.adds, removes=delta.removes, name="g")["digest"]
        answer = service.solve(child, K)
        service.close()

        revived = SolverService(config=CONFIG, persistence=ServicePersistence(state_dir))
        try:
            assert revived.store.parent_digest(child) == digest
            assert revived.store.resolve("g") == child
            replay = revived.solve(child, K)
            assert replay.size == answer.size
            assert replay.stats.cache_hit  # restored from the results WAL
            # the chain still extends after restart
            successor_graph, _ = apply_delta(graph, delta)
            delta2 = valid_delta(successor_graph)
            grandchild = revived.mutate("g", adds=delta2.adds, removes=delta2.removes)["digest"]
            assert revived.store.parent_digest(grandchild) == child
            final = revived.solve(grandchild, K)
            expected, _ = apply_delta(successor_graph, delta2)
            assert final.size == KDCSolver(CONFIG).solve(expected, K).size
        finally:
            revived.close()

    def test_damaged_wal_tail_truncated(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        persistence.append_delta("p1", "c1", None, valid_delta(graph))
        persistence.append_delta("p2", "c2", None, valid_delta(graph))
        persistence.close()
        with open(ServicePersistence(state_dir).deltas_path, "ab") as fh:
            fh.write(b"\x00garbage-tail")
        records = ServicePersistence(state_dir).replay_deltas()
        assert [r[1] for r in records] == ["c1", "c2"]
