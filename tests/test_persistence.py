"""Durable service state: snapshots, the results journal, and warm restart.

Exercises :class:`~repro.service.persistence.ServicePersistence` directly
(snapshot/journal round trips, damaged-tail and unreadable-entry handling,
the active-checkpoint guard) and through the service layer (GraphStore and
SolverService restarted against the same state directory restore their
graphs, prepared artifacts and optimal-result cache).  Also covers the
GraphStore pickle round trip, which the snapshot layer relies on, and the
upgrade of a state directory written under the previous digest format.
"""

from __future__ import annotations

import copy
import hashlib
import logging
import os
import pickle

import pytest

from repro.core.config import SolverConfig
from repro.core.prepared import prepare_instance
from repro.dynamic import EdgeDelta, apply_delta
from repro.exceptions import UnknownGraphError
from repro.graphs import Graph, gnp_random_graph
from repro.service import GraphStore, ServicePersistence, SolverService
from repro.testing.chaos import FaultInjector, InjectedFaultError

CONFIG = SolverConfig(backend="bitset", decompose_threshold=1, workers=1)
K = 2


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    """Chaos rules must never leak between tests (or into workers via env)."""
    from repro.testing import chaos

    chaos.uninstall()
    yield
    chaos.uninstall()


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.3, seed=2)


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path / "state")


class TestSnapshots:
    def test_graph_snapshot_round_trip(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        digest = graph.content_digest()
        persistence.save_graph(digest, "toy", graph)
        persistence.save_graph(digest, "ignored-second-write", graph)  # idempotent

        loaded = list(ServicePersistence(state_dir).load_graphs())
        assert len(loaded) == 1
        got_digest, name, got = loaded[0]
        assert got_digest == digest and name == "toy"
        assert got.content_digest() == digest

    def test_prepared_snapshot_round_trip(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        digest = graph.content_digest()
        key = (digest, K, CONFIG.initial_heuristic, CONFIG.use_rr5, CONFIG.use_rr6)
        artifact = prepare_instance(graph, K, CONFIG)
        persistence.save_prepared(key, artifact)

        loaded = list(ServicePersistence(state_dir).load_prepared())
        assert len(loaded) == 1
        got_key, got = loaded[0]
        assert got_key == key
        assert got.digest == artifact.digest
        assert got.heuristic == artifact.heuristic
        assert got.working_adj == artifact.working_adj

    def test_unreadable_snapshot_skipped_with_warning(self, state_dir, graph, caplog):
        persistence = ServicePersistence(state_dir)
        persistence.save_graph(graph.content_digest(), None, graph)
        with open(os.path.join(persistence.graphs_dir, "junk.pkl"), "wb") as fh:
            fh.write(b"not a pickle")
        with open(os.path.join(persistence.prepared_dir, "wrongtype.pkl"), "wb") as fh:
            fh.write(pickle.dumps((("key",), "not a PreparedInstance")))
        with caplog.at_level(logging.WARNING, logger="repro.service.persistence"):
            graphs = list(persistence.load_graphs())
            prepared = list(persistence.load_prepared())
        assert len(graphs) == 1 and prepared == []
        messages = [r.message for r in caplog.records]
        assert any("unreadable graph snapshot" in m for m in messages)
        assert any("unreadable prepared snapshot" in m for m in messages)

    def test_crash_in_publish_window_leaves_old_content(self, state_dir, graph):
        """A fault between the temp fsync and the rename never tears the snapshot."""
        persistence = ServicePersistence(state_dir)
        digest = graph.content_digest()
        with FaultInjector().add("persist.write", error="crash before rename"):
            with pytest.raises(InjectedFaultError):
                persistence.save_graph(digest, None, graph)
        # No destination file was published; the stale temp file is ignored.
        assert list(persistence.load_graphs()) == []
        leftovers = os.listdir(persistence.graphs_dir)
        assert leftovers and all(".tmp." in name for name in leftovers)
        # Retrying the publish succeeds despite the stale temp file.
        persistence.save_graph(digest, None, graph)
        assert [d for d, _, _ in persistence.load_graphs()] == [digest]


class TestResultsJournal:
    def _solve(self, graph):
        from repro.core.solver import KDCSolver

        return KDCSolver(CONFIG).solve_prepared(prepare_instance(graph, K, CONFIG), K)

    def test_append_replay_round_trip(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        result = self._solve(graph)
        key = (graph.content_digest(), K, "kDC", "bitset")
        persistence.append_result(key, result)
        persistence.append_result(key + ("other",), result)
        persistence.close()

        entries = ServicePersistence(state_dir).replay_results()
        assert [k for k, _ in entries] == [key, key + ("other",)]
        assert all(r.size == result.size for _, r in entries)

    def test_truncated_tail_discarded_and_truncated(self, state_dir, graph, caplog):
        persistence = ServicePersistence(state_dir)
        result = self._solve(graph)
        persistence.append_result(("a",), result)
        persistence.append_result(("b",), result)
        persistence.close()
        size = os.path.getsize(persistence.results_path)
        with open(persistence.results_path, "rb+") as fh:
            fh.truncate(size - 7)

        fresh = ServicePersistence(state_dir)
        with caplog.at_level(logging.WARNING):
            entries = fresh.replay_results()
        assert [k for k, _ in entries] == [("a",)]
        assert any("truncated or corrupt tail" in r.message for r in caplog.records)
        # The damaged tail was physically truncated: appends land on a clean
        # boundary and the lost record never resurfaces.
        fresh.append_result(("c",), result)
        fresh.close()
        assert [k for k, _ in ServicePersistence(state_dir).replay_results()] == [("a",), ("c",)]

    def test_append_validates_tail_even_without_prior_replay(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        result = self._solve(graph)
        persistence.append_result(("a",), result)
        persistence.close()
        with open(persistence.results_path, "ab") as fh:
            fh.write(b"\xff\xff")  # crash residue

        fresh = ServicePersistence(state_dir)
        fresh.append_result(("b",), result)  # no replay_results() first
        fresh.close()
        scan_entries = ServicePersistence(state_dir).replay_results()
        assert [k for k, _ in scan_entries] == [("a",), ("b",)]

    def test_unreadable_record_within_valid_prefix_skipped(self, state_dir, graph, caplog):
        from repro.core.checkpoint import append_record

        persistence = ServicePersistence(state_dir)
        result = self._solve(graph)
        persistence.append_result(("a",), result)
        persistence.close()
        with open(persistence.results_path, "ab") as fh:
            append_record(fh, pickle.dumps((("bad",), "not a SolveResult")))

        with caplog.at_level(logging.WARNING, logger="repro.service.persistence"):
            entries = ServicePersistence(state_dir).replay_results()
        assert [k for k, _ in entries] == [("a",)]
        assert any("unreadable results-journal record" in r.message for r in caplog.records)

    def test_rewrite_compacts(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        result = self._solve(graph)
        for i in range(4):
            persistence.append_result(("dup",), result)
        persistence.rewrite_results([(("dup",), result)])
        persistence.append_result(("tail",), result)  # journal still appendable
        persistence.close()
        assert [k for k, _ in ServicePersistence(state_dir).replay_results()] == [
            ("dup",), ("tail",),
        ]

    def test_closed_persistence_drops_appends(self, state_dir, graph):
        persistence = ServicePersistence(state_dir)
        persistence.close()
        persistence.append_result(("a",), self._solve(graph))  # silent no-op
        assert ServicePersistence(state_dir).replay_results() == []


class TestCheckpointGuard:
    def test_second_open_of_same_identity_returns_none(self, state_dir):
        persistence = ServicePersistence(state_dir)
        first = persistence.open_checkpoint("d", K, "kDC", CONFIG)
        assert first is not None
        assert persistence.open_checkpoint("d", K, "kDC", CONFIG) is None
        # A different identity is unaffected.
        other = persistence.open_checkpoint("d", K + 1, "kDC", CONFIG)
        assert other is not None
        other.complete()
        first.close()  # releases the guard...
        reopened = persistence.open_checkpoint("d", K, "kDC", CONFIG)
        assert reopened is not None  # ...so the identity can be reopened
        reopened.complete()

    def test_closed_persistence_refuses_checkpoints(self, state_dir):
        persistence = ServicePersistence(state_dir)
        persistence.close()
        assert persistence.open_checkpoint("d", K, "kDC", CONFIG) is None


class TestGraphStoreRestart:
    def test_store_warm_restart(self, state_dir, graph):
        store = GraphStore(persistence=ServicePersistence(state_dir))
        digest = store.add(graph, name="toy")
        store.prepared(digest, K, CONFIG)

        warm = GraphStore(persistence=ServicePersistence(state_dir))
        stats = warm.stats()
        assert stats["restored_graphs"] == 1
        assert stats["restored_prepared"] == 1
        assert warm.graphs() == {digest: "toy"}
        # The restored artifact answers without a rebuild.
        warm.prepared(digest, K, CONFIG)
        assert warm.stats()["prepares"] == 0
        assert warm.stats()["prepared_hits"] == 1

    def test_orphaned_prepared_snapshot_skipped(self, state_dir, graph):
        """A prepared artifact whose graph snapshot is missing is not restored."""
        persistence = ServicePersistence(state_dir)
        artifact = prepare_instance(graph, K, CONFIG)
        persistence.save_prepared(("missing-digest", K, "degen-opt", True, True), artifact)

        warm = GraphStore(persistence=ServicePersistence(state_dir))
        stats = warm.stats()
        assert stats["restored_graphs"] == 0
        assert stats["restored_prepared"] == 0
        assert stats["prepared_artifacts"] == 0

    def test_restore_respects_lru_caps(self, state_dir):
        persistence = ServicePersistence(state_dir)
        store = GraphStore(persistence=persistence)
        for seed in range(3):
            store.add(gnp_random_graph(12, 0.4, seed=seed))
        warm = GraphStore(max_graphs=2, persistence=ServicePersistence(state_dir))
        assert warm.stats()["graphs"] == 2


class TestGraphStorePickle:
    def test_pickle_round_trip(self, graph):
        store = GraphStore()
        digest = store.add(graph, name="toy")
        store.prepared(digest, K, CONFIG)

        clone = pickle.loads(pickle.dumps(store))
        assert clone.graphs() == {digest: "toy"}
        assert clone.stats()["prepared_artifacts"] == 1
        # The clone has fresh synchronisation state and is fully usable.
        clone.prepared(digest, K, CONFIG)
        assert clone.stats()["prepared_hits"] == 1
        other = gnp_random_graph(10, 0.5, seed=9)
        clone.add(other)
        assert clone.stats()["graphs"] == 2

    def test_unpickled_graphs_share_no_writable_rows(self, graph):
        # One pickle memoizes the rows a successor shares with its parent,
        # so the unpickled graphs share them too; a write to one must not
        # reach the other.
        store = GraphStore()
        root = store.add(graph)
        delta = EdgeDelta(adds=[next((0, v) for v in range(1, 40) if not graph.has_edge(0, v))])
        child = store.apply_delta(root, delta)
        u, v = next((u, v) for u, v in graph.iter_edges() if not {u, v} & {0, delta.adds[0][1]})
        expected, _ = apply_delta(graph, delta)

        clone = pickle.loads(pickle.dumps(store))
        clone.get(root).remove_edge(u, v)
        assert clone.get(child) == expected
        assert clone.get(child).content_digest() == child

        source_clone, copy_clone = copy.deepcopy([graph, graph.copy()])
        source_clone.remove_edge(u, v)
        assert copy_clone == graph
        assert copy_clone.content_digest() == root

    def test_pickle_excludes_live_state(self, graph):
        store = GraphStore(persistence=None)
        store.add(graph)
        state = store.__getstate__()
        assert "_lock" not in state and "_inflight" not in state and "_persistence" not in state


class TestServiceWarmRestart:
    def test_results_and_store_survive_restart(self, state_dir, graph):
        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as service:
            digest = service.store.add(graph)
            cold = service.solve(digest, K)
            assert cold.optimal and not cold.stats.cache_hit

        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as warm:
            stats = warm.stats()
            assert stats["restored_results"] == 1
            assert warm.store.stats()["restored_graphs"] == 1
            assert warm.store.stats()["restored_prepared"] == 1
            # Same query answered from the restored cache, graph known by digest.
            hit = warm.solve(digest, K)
            assert hit.stats.cache_hit
            assert hit.optimal and hit.size == cold.size and hit.clique == cold.clique

    def test_non_optimal_results_never_restored(self, state_dir):
        hard = gnp_random_graph(80, 0.4, seed=11)
        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as service:
            partial = service.solve(hard, K, node_limit=5)
            assert not partial.optimal

        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as warm:
            assert warm.stats()["restored_results"] == 0

    def test_oversized_journal_trimmed_and_compacted(self, state_dir):
        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as service:
            for seed in range(3):
                service.solve(gnp_random_graph(14, 0.4, seed=seed), K)

        warm = SolverService(
            config=CONFIG, result_cache_size=2, persistence=ServicePersistence(state_dir)
        )
        try:
            assert warm.stats()["restored_results"] == 2
        finally:
            warm.close()
        # The trim was compacted back to disk: the next restart sees 2 entries.
        assert len(ServicePersistence(state_dir).replay_results()) == 2

    def test_engine_keyed_results_journal_restores(self, state_dir, graph):
        """A journal written when the result key ended in the engine name restores."""
        from repro.core.solver import KDCSolver

        digest = graph.content_digest()
        result = KDCSolver(CONFIG).solve(graph, K)
        result.stats.engine = "trail"  # a SearchStats field at the time
        persistence = ServicePersistence(state_dir)
        persistence.save_graph(digest, None, graph)
        persistence.append_result((digest, K, "kDC", CONFIG.backend, "trail"), result)
        persistence.close()

        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as warm:
            assert warm.stats()["restored_results"] == 1
            hit = warm.solve(digest, K)
            assert hit.stats.cache_hit
            assert hit.optimal and hit.size == result.size
        # The journal was compacted to the current key format.
        entries = ServicePersistence(state_dir).replay_results()
        assert [key for key, _ in entries] == [(digest, K, "kDC", CONFIG.backend)]

    def test_engine_named_checkpoint_starts_fresh(self, state_dir, graph):
        """A checkpoint whose identity names the engine is a mismatch, never resumed."""
        from repro.core.checkpoint import SolveCheckpoint, checkpoint_meta, checkpoint_token

        digest = graph.content_digest()
        meta = checkpoint_meta(digest, K, "kDC", CONFIG)
        old_meta = dict(meta, engine="trail")
        persistence = ServicePersistence(state_dir)
        persistence.save_graph(digest, None, graph)
        old_path = os.path.join(persistence.checkpoints_dir, f"{checkpoint_token(old_meta)}.wal")
        old = SolveCheckpoint(old_path, old_meta)
        old.record(0, [])
        old.close()
        persistence.close()

        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as service:
            result = service.solve(digest, K)
            assert result.optimal and result.stats.subproblems_restored == 0

        reopened = SolveCheckpoint(old_path, meta)
        try:
            assert reopened.completed == set()
        finally:
            reopened.close()

    def test_replay_failure_starts_cold(self, state_dir, graph, caplog):
        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as service:
            service.solve(graph, K)

        with FaultInjector().add(
            "persist.replay", error="disk flaked during replay", times=None
        ):
            with caplog.at_level(logging.WARNING, logger="repro.service"):
                cold = SolverService(config=CONFIG, persistence=ServicePersistence(state_dir))
                cold.close()
        assert cold.stats()["restored_results"] == 0
        assert any("starting cold" in r.message for r in caplog.records)


# --------------------------------------------------------------------------- #
# Upgrade from the previous digest format
# --------------------------------------------------------------------------- #
#: ``pickle.dumps(g, protocol=5)`` of ``Graph(edges=LEGACY_EDGES)`` plus the
#: isolated vertex 7, written by the release whose digest sorted and hashed
#: every edge (before graphs carried a digest sum).
LEGACY_EDGES = [(0, 1), (1, 2), (0, 2), (2, 3), (3, "x")]
LEGACY_PICKLE = bytes.fromhex(
    "8005957d000000000000008c12726570726f2e6772617068732e6772617068948c0547"
    "726170689493942981944e7d94288c045f61646a947d94284b008f94284b014b02904b"
    "018f94284b004b02904b028f94284b004b014b03904b038f94284b028c01789490680b"
    "8f94284b03904b078f94758c0a5f6e756d5f6564676573944b05758694622e"
)
#: That release's ``content_digest()`` of the same graph.
LEGACY_DIGEST = "960efc402e97224fe73eb621a3594c18141fd29ae2716688105b4264912df30b"


def legacy_digest(graph):
    """The previous format: SHA-256 over sorted vertex tokens, then sorted edges."""

    def token(v):
        return f"{type(v).__name__}:{v!r}"

    h = hashlib.sha256()
    for t in sorted(token(v) for v in graph):
        h.update(t.encode("utf-8"))
        h.update(b"\x00")
    h.update(b"\x01")
    edges = []
    for u, v in graph.iter_edges():
        a, b = token(u), token(v)
        edges.append((a, b) if a <= b else (b, a))
    for a, b in sorted(edges):
        h.update(a.encode("utf-8"))
        h.update(b"\x1f")
        h.update(b.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


class TestDigestFormatUpgrade:
    def test_legacy_pickled_graph_loads_and_digests(self):
        graph = pickle.loads(LEGACY_PICKLE)
        graph.validate()
        expected = Graph(edges=LEGACY_EDGES, vertices=[7])
        assert graph == expected
        assert legacy_digest(graph) == LEGACY_DIGEST  # the inline copy is faithful
        assert graph.content_digest() == expected.content_digest() != LEGACY_DIGEST
        assert pickle.loads(pickle.dumps(graph)).content_digest() == graph.content_digest()

    @pytest.mark.parametrize("successor_snapshot", [True, False])
    def test_legacy_state_dir_serves_under_current_digests(
        self, state_dir, graph, successor_snapshot
    ):
        from repro.core.solver import KDCSolver

        absent = next((0, v) for v in range(1, 40) if not graph.has_edge(0, v))
        delta = EdgeDelta(adds=[absent], removes=[next(graph.iter_edges())])
        successor, child = apply_delta(graph, delta)
        root = graph.content_digest()
        old_root, old_child = legacy_digest(graph), legacy_digest(successor)
        answer = KDCSolver(CONFIG).solve(successor, K)

        # What the previous release left behind: snapshots named by old
        # digests (the successor's may have been cut off by a crash), the
        # mutation's WAL link, one cached answer, a prepared snapshot and a
        # checkpoint journal of an interrupted solve.
        persistence = ServicePersistence(state_dir)
        persistence.save_graph(old_root, "g", graph)
        if successor_snapshot:
            persistence.save_graph(old_child, "g", successor)
        persistence.append_delta(old_root, old_child, "g", delta)
        persistence.append_result((old_child, K, "kDC", CONFIG.backend), answer)
        persistence.save_prepared(
            (old_root, K, CONFIG.initial_heuristic, CONFIG.use_rr5, CONFIG.use_rr6),
            prepare_instance(graph, K, CONFIG, digest=old_root),
        )
        checkpoint = persistence.open_checkpoint(old_root, K, "kDC", CONFIG)
        checkpoint.record(0, [])
        checkpoint.close()
        old_checkpoint = checkpoint.path
        persistence.close()

        with SolverService(config=CONFIG, persistence=ServicePersistence(state_dir)) as warm:
            store = warm.store
            assert store.graphs() == {root: "g", child: "g"}
            for old in (old_root, old_child):
                with pytest.raises(UnknownGraphError):
                    store.get(old)
            assert store.get(child) == successor
            assert store.parent_digest(child) == root
            assert store.resolve("g") == child
            assert store.stats()["migrated_digests"] == 2
            assert store.stats()["restored_prepared"] == 1
            hit = warm.solve(child, K)
            assert hit.stats.cache_hit
            assert hit.size == answer.size and hit.clique == answer.clique
            fresh = warm.solve(root, K)
            assert fresh.optimal and fresh.stats.subproblems_restored == 0
            assert store.stats()["prepares"] == 0  # the re-keyed artifact served

        # On disk, everything is keyed by the current digests now.
        reopened = ServicePersistence(state_dir)
        assert sorted(d for d, _, _ in reopened.load_graphs()) == sorted(
            [root, child] if successor_snapshot else [root]
        )
        assert [(p, c) for p, c, *_ in reopened.replay_deltas()] == [(root, child)]
        assert {key[0] for key, _ in reopened.replay_results()} == {child, root}
        assert [key[0] for key, _ in reopened.load_prepared()] == [root]
        assert not os.path.exists(old_checkpoint)
        again = GraphStore(persistence=reopened)
        assert again.stats()["migrated_digests"] == 0
        assert again.graphs() == {root: "g", child: "g"}
