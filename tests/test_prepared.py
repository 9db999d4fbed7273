"""Tests for the compile/execute split: PreparedInstance + solve_prepared."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core import (
    KDCSolver,
    PreparedInstance,
    SolverConfig,
    is_k_defective_clique,
    prepare_instance,
    variant_config,
)
from repro.exceptions import InvalidParameterError
from repro.graphs import gnp_random_graph
from repro.graphs.graph import Graph


@pytest.fixture
def graph():
    return gnp_random_graph(40, 0.3, seed=4)


class TestPrepareInstance:
    def test_fields(self, graph):
        prepared = prepare_instance(graph, 2)
        assert prepared.k == 2
        assert prepared.digest == graph.content_digest()
        assert prepared.n_original == graph.num_vertices
        assert 0 < prepared.working_n <= graph.num_vertices
        assert prepared.lower_bound == len(prepared.heuristic) > 0
        assert prepared.prepare_seconds > 0
        # the decomposition covers exactly the working vertices
        ordering, position = prepared.decomposition()
        assert sorted(ordering) == sorted(prepared.working_adj)
        assert all(position[v] == i for i, v in enumerate(ordering))
        # adjacency is symmetric and sorted
        for v, nbrs in prepared.working_adj.items():
            assert list(nbrs) == sorted(nbrs)
            for u in nbrs:
                assert v in prepared.working_adj[u]

    def test_digest_skippable(self, graph):
        prepared = prepare_instance(graph, 1, compute_digest=False)
        assert prepared.digest == ""

    def test_immutable(self, graph):
        prepared = prepare_instance(graph, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.k = 3

    def test_pickle_round_trip(self, graph):
        prepared = prepare_instance(graph, 2)
        prepared.packed_adjacency()  # populate the lazy cache before pickling
        clone = pickle.loads(pickle.dumps(prepared))
        assert clone.working_adj == prepared.working_adj
        assert clone.heuristic == prepared.heuristic
        assert clone.ordering == prepared.ordering
        assert clone.digest == prepared.digest
        result = KDCSolver().solve_prepared(clone)
        assert result.size == KDCSolver().solve(graph, 2).size

    def test_packed_adjacency_is_cached_and_consistent(self, graph):
        prepared = prepare_instance(graph, 1)
        first = prepared.packed_adjacency()
        assert prepared.packed_adjacency() is first
        to_global, rows = first
        index = {v: i for i, v in enumerate(to_global)}
        for v, nbrs in prepared.working_adj.items():
            expected = 0
            for u in nbrs:
                expected |= 1 << index[u]
            assert rows[index[v]] == expected

    def test_working_graph_round_trip(self, graph):
        prepared = prepare_instance(graph, 1)
        rebuilt = prepared.working_graph()
        assert rebuilt.num_vertices == prepared.working_n
        assert rebuilt.num_edges == prepared.working_num_edges
        for v in rebuilt:
            assert tuple(sorted(rebuilt.neighbors(v))) == prepared.working_adj[v]


class TestSolvePrepared:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_fresh_solve(self, graph, k):
        solver = KDCSolver()
        fresh = solver.solve(graph, k)
        prepared = prepare_instance(graph, k, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.optimal and fresh.optimal
        assert result.size == fresh.size
        assert is_k_defective_clique(graph, result.clique, k)

    def test_artifact_is_reusable(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 2, solver.config)
        sizes = {solver.solve_prepared(prepared).size for _ in range(3)}
        assert len(sizes) == 1

    def test_string_labels(self):
        g = Graph()
        for u, v in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")]:
            g.add_edge(u, v)
        solver = KDCSolver()
        prepared = prepare_instance(g, 1, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.size == solver.solve(g, 1).size
        assert set(result.clique) <= g.vertex_set()

    def test_k_defaults_to_prepared_k_and_mismatch_raises(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 2, solver.config)
        assert solver.solve_prepared(prepared).k == 2
        with pytest.raises(InvalidParameterError):
            solver.solve_prepared(prepared, 3)

    def test_config_mismatch_raises(self, graph):
        prepared = prepare_instance(graph, 1)  # default kDC prepare config
        theoretical = KDCSolver(variant_config("kDC-t"))
        with pytest.raises(InvalidParameterError):
            theoretical.solve_prepared(prepared)

    def test_execute_side_knobs_share_one_artifact(self, graph):
        # backend/workers are execute-side: one artifact serves them all
        prepared = prepare_instance(graph, 2)
        expected = KDCSolver().solve(graph, 2).size
        for config in (
            SolverConfig(backend="set"),
            SolverConfig(backend="bitset", decompose_threshold=1),
            SolverConfig(backend="bitset", decompose_threshold=10**9),
        ):
            result = KDCSolver(config).solve_prepared(prepared)
            assert result.optimal and result.size == expected, config

    def test_budget_override_interrupts_without_harming_artifact(self, graph):
        solver = KDCSolver()
        prepared = prepare_instance(graph, 3, solver.config)
        full = solver.solve_prepared(prepared)
        assert full.optimal and full.stats.nodes > 1
        limited = solver.solve_prepared(prepared, node_limit=1)
        assert not limited.optimal
        assert limited.size >= prepared.lower_bound  # partial incumbent kept
        again = solver.solve_prepared(prepared)
        assert again.optimal and again.size == full.size

    def test_seeded_stats_match_fresh(self, graph):
        solver = KDCSolver()
        fresh = solver.solve(graph, 2)
        prepared = prepare_instance(graph, 2, solver.config)
        result = solver.solve_prepared(prepared)
        assert result.stats.initial_solution_size == fresh.stats.initial_solution_size
        assert (
            result.stats.preprocess_removed_vertices
            == fresh.stats.preprocess_removed_vertices
        )
        assert result.stats.backend == fresh.stats.backend

    def test_phase_timings(self, graph):
        solver = KDCSolver()
        fresh = solver.solve(graph, 2)
        assert fresh.stats.prepare_ms > 0
        assert fresh.stats.solve_ms >= 0
        assert fresh.stats.queue_ms == 0.0
        assert not fresh.stats.cache_hit
        prepared = prepare_instance(graph, 2, solver.config)
        result = solver.solve_prepared(prepared)
        # a bare solve_prepared paid no prepare cost of its own
        assert result.stats.prepare_ms == 0.0

    def test_empty_graph_artifact(self):
        prepared = prepare_instance(Graph(), 1)
        result = KDCSolver().solve_prepared(prepared)
        assert result.optimal and result.size == 0
