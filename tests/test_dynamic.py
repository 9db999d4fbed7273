"""Dynamic-graph subsystem: deltas, temporal replay, incremental exactness.

The load-bearing suite here is the differential block: after *every* step
of a seeded random delta sequence — including deltas engineered to shrink
the optimum — the :class:`~repro.dynamic.incremental.IncrementalSolver`
must agree exactly with a from-scratch solve of the same snapshot, across
backend × workers cells.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core import KDCSolver, SolverConfig, is_k_defective_clique
from repro.dynamic import (
    EdgeDelta,
    IncrementalSolver,
    TemporalGraph,
    affected_anchors,
    apply_delta,
)
from repro.exceptions import (
    BudgetExceededError,
    EdgeNotFoundError,
    InvalidParameterError,
    SelfLoopError,
)
from repro.graphs import Graph, gnp_random_graph
from repro.graphs.degeneracy import degeneracy_ordering


# --------------------------------------------------------------------------- #
# EdgeDelta
# --------------------------------------------------------------------------- #
class TestEdgeDelta:
    def test_canonicalization_orders_and_dedupes(self):
        delta = EdgeDelta(adds=[(2, 1), (1, 2), (3, 0)], removes=[(5, 4)])
        assert delta.adds == ((3, 0), (1, 2)) or delta.adds == ((0, 3), (1, 2))
        # endpoint order within an edge is deterministic, duplicates dropped
        assert len(delta.adds) == 2
        assert delta.removes == ((4, 5),)
        assert len(delta) == 3
        assert delta == EdgeDelta(adds=[(1, 2), (0, 3)], removes=[(4, 5)])

    def test_vertices(self):
        delta = EdgeDelta(adds=[(1, 2)], removes=[(3, 4)])
        assert delta.vertices() == {1, 2, 3, 4}

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            EdgeDelta(adds=[(1, 1)])

    def test_empty_delta_rejected(self):
        with pytest.raises(InvalidParameterError):
            EdgeDelta()

    def test_add_remove_overlap_rejected(self):
        with pytest.raises(InvalidParameterError):
            EdgeDelta(adds=[(1, 2)], removes=[(2, 1)])

    def test_malformed_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            EdgeDelta(adds=[(1, 2, 3)])

    def test_payload_round_trip(self):
        delta = EdgeDelta(adds=[(1, 2), (0, 5)], removes=[(3, 4)])
        assert EdgeDelta.from_payload(delta.as_payload()) == delta

    def test_relabel_raises_on_unknown_vertex(self):
        delta = EdgeDelta(adds=[(1, 99)])
        with pytest.raises(KeyError):
            delta.relabel({1: 0, 2: 1})


class TestApplyDelta:
    def test_builds_successor_without_mutating_input(self):
        graph = Graph(edges=[(0, 1), (1, 2)])
        successor, digest = apply_delta(
            graph, EdgeDelta(adds=[(0, 2)], removes=[(1, 2)])
        )
        assert graph.has_edge(1, 2) and not graph.has_edge(0, 2)
        assert successor.has_edge(0, 2) and not successor.has_edge(1, 2)
        assert digest == successor.content_digest()
        assert digest != graph.content_digest()

    def test_adding_existing_edge_rejected(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(InvalidParameterError):
            apply_delta(graph, EdgeDelta(adds=[(0, 1)]))

    def test_removing_absent_edge_rejected(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            apply_delta(graph, EdgeDelta(removes=[(0, 2)]))

    def test_adds_may_grow_the_vertex_set(self):
        graph = Graph(edges=[(0, 1)])
        successor, _ = apply_delta(graph, EdgeDelta(adds=[(1, 7)]))
        assert 7 in successor.vertex_set()


# --------------------------------------------------------------------------- #
# affected_anchors
# --------------------------------------------------------------------------- #
class TestAffectedAnchors:
    def test_removal_only_delta_affects_nothing(self):
        graph = gnp_random_graph(30, 0.2, seed=1)
        edge = next(iter(graph.iter_edges()))
        delta = EdgeDelta(removes=[edge])
        successor, _ = apply_delta(graph, delta)
        position = degeneracy_ordering(successor).position
        assert affected_anchors(successor, position, delta, 1) == set()

    def test_anchors_are_in_both_2_balls_and_rank_bounded(self):
        graph = gnp_random_graph(60, 0.08, seed=3)
        u, v = next(
            (a, b)
            for a in sorted(graph.vertex_set())
            for b in sorted(graph.vertex_set())
            if a < b and not graph.has_edge(a, b)
        )
        delta = EdgeDelta(adds=[(u, v)])
        successor, _ = apply_delta(graph, delta)
        position = degeneracy_ordering(successor).position
        anchors = affected_anchors(successor, position, delta, 1)
        cutoff = min(position[u], position[v])

        def ball2(x):
            ball = {x} | set(successor.neighbors(x))
            for w in tuple(ball - {x}):
                ball |= set(successor.neighbors(w))
            return ball

        expected = {
            w for w in ball2(u) & ball2(v) if position[w] <= cutoff
        }
        assert anchors == expected
        assert anchors  # at least the added edge's lower endpoint region

    def test_negative_k_rejected(self):
        graph = Graph(edges=[(0, 1)])
        delta = EdgeDelta(adds=[(0, 2)])
        successor, _ = apply_delta(graph, delta)
        with pytest.raises(InvalidParameterError):
            affected_anchors(successor, {0: 0, 1: 1, 2: 2}, delta, -1)


# --------------------------------------------------------------------------- #
# TemporalGraph
# --------------------------------------------------------------------------- #
class TestTemporalGraph:
    def test_steps_replay_and_digest(self):
        base = Graph(edges=[(0, 1), (1, 2)])
        temporal = TemporalGraph(
            base,
            [(1, EdgeDelta(adds=[(0, 2)])), (2, EdgeDelta(removes=[(1, 2)]))],
        )
        steps = list(temporal.steps())
        assert [s.timestamp for s in steps] == [1, 2]
        assert steps[0].graph.has_edge(0, 2)
        assert not steps[1].graph.has_edge(1, 2)
        assert steps[1].digest == steps[1].graph.content_digest()
        # base is untouched and copies are independent
        assert not base.has_edge(0, 2)
        assert temporal.snapshot_at(2).num_edges == steps[1].graph.num_edges

    def test_non_increasing_timestamps_rejected(self):
        base = Graph(edges=[(0, 1)])
        with pytest.raises(InvalidParameterError):
            TemporalGraph(
                base,
                [(2, EdgeDelta(adds=[(0, 2)])), (2, EdgeDelta(adds=[(1, 2)]))],
            )

    def test_from_events_batches_same_timestamp(self):
        temporal = TemporalGraph.from_events(
            [
                (1, "add", 0, 1),
                (1, "+", 1, 2),
                (2, "add", 0, 2),
                (3, "remove", 1, 2),
            ]
        )
        assert len(temporal) == 3
        assert temporal.timestamps() == (1, 2, 3)
        final = list(temporal.steps())[-1].graph
        assert final.has_edge(0, 1) and final.has_edge(0, 2)
        assert not final.has_edge(1, 2)

    def test_from_events_unknown_op_rejected(self):
        with pytest.raises(InvalidParameterError):
            TemporalGraph.from_events([(1, "frobnicate", 0, 1)])

    def test_inconsistent_step_raises_at_replay(self):
        base = Graph(edges=[(0, 1)])
        temporal = TemporalGraph(base, [(1, EdgeDelta(removes=[(5, 6)]))])
        with pytest.raises(EdgeNotFoundError):
            list(temporal.steps())

    def test_snapshot_at_unknown_timestamp(self):
        base = Graph(edges=[(0, 1)])
        temporal = TemporalGraph(base, [(1, EdgeDelta(adds=[(0, 2)]))])
        with pytest.raises(InvalidParameterError):
            temporal.snapshot_at(99)


# --------------------------------------------------------------------------- #
# IncrementalSolver
# --------------------------------------------------------------------------- #
def random_delta(graph, rng, n_adds, n_removes):
    """A valid delta for ``graph``: ``n_adds`` absent edges + ``n_removes`` present."""
    vertices = sorted(graph.vertex_set())
    adds = set()
    while len(adds) < n_adds:
        u, v = rng.sample(vertices, 2)
        edge = (min(u, v), max(u, v))
        if not graph.has_edge(u, v):
            adds.add(edge)
    edges = [tuple(sorted(e)) for e in graph.iter_edges()]
    removes = set(rng.sample(edges, min(n_removes, len(edges)))) - adds
    return EdgeDelta(adds=sorted(adds), removes=sorted(removes))


def optimum_shrinking_delta(graph, clique):
    """Remove every edge inside the current optimum witness — the optimum
    must drop (or at least the witness must break)."""
    removes = [
        (u, v)
        for i, u in enumerate(clique)
        for v in clique[i + 1:]
        if graph.has_edge(u, v)
    ]
    assert removes, "witness had no internal edges to remove"
    return EdgeDelta(removes=removes)


CELLS = [
    ("set", 1),
    ("bitset", 1),
    ("bitset", 2),
]


class TestIncrementalSolverDifferential:
    @pytest.mark.parametrize("backend,workers", CELLS)
    def test_matches_scratch_after_every_step(self, backend, workers):
        """The acceptance invariant, across backend/workers cells."""
        config = SolverConfig(backend=backend, workers=workers, decompose_threshold=1)
        rng = random.Random(hash((backend, workers)) & 0xFFFF)
        graph = gnp_random_graph(45, 0.15, seed=11)
        k = 1

        tracker = IncrementalSolver(config)
        scratch = KDCSolver(config)
        first = tracker.solve(graph, k)
        assert first.optimal

        incremental_steps = 0
        for step in range(6):
            delta = random_delta(graph, rng, n_adds=2, n_removes=1)
            report = tracker.apply(delta)
            graph, digest = apply_delta(graph, delta)
            assert report.digest == digest
            reference = scratch.solve(graph, k)
            assert report.result.optimal and reference.optimal
            assert report.result.size == reference.size, f"step {step}"
            assert is_k_defective_clique(graph, report.result.clique, k)
            incremental_steps += bool(report.incremental)

        # the point of the subsystem: at least some steps avoided a full solve
        assert incremental_steps > 0

        # now an optimum-shrinking delta: break the current witness
        delta = optimum_shrinking_delta(graph, tracker.last_result.clique)
        report = tracker.apply(delta)
        graph, _ = apply_delta(graph, delta)
        reference = scratch.solve(graph, k)
        assert report.result.optimal and report.result.size == reference.size
        assert is_k_defective_clique(graph, report.result.clique, k)

    def test_witness_breaking_removal_falls_back(self):
        graph = gnp_random_graph(40, 0.25, seed=5)
        tracker = IncrementalSolver(SolverConfig())
        result = tracker.solve(graph, 1)
        delta = optimum_shrinking_delta(graph, result.clique)
        report = tracker.apply(delta)
        assert not report.incremental
        assert report.fallback_reason in ("witness-broken", "incumbent-below-k+1")
        successor, _ = apply_delta(graph, delta)
        reference = KDCSolver(SolverConfig()).solve(successor, 1)
        assert report.result.size == reference.size

    def test_new_vertex_falls_back(self):
        graph = gnp_random_graph(30, 0.2, seed=6)
        tracker = IncrementalSolver(SolverConfig())
        tracker.solve(graph, 1)
        report = tracker.apply(EdgeDelta(adds=[(0, 1000)]))
        assert not report.incremental
        assert report.fallback_reason == "new-vertex"
        assert 1000 in tracker.graph().vertex_set()
        assert report.result.optimal

    def test_zero_affected_fraction_still_exact(self):
        """max_affected_fraction=0 forces the fallback on every add — the
        guard must never cost exactness, only speed."""
        graph = gnp_random_graph(35, 0.2, seed=7)
        tracker = IncrementalSolver(SolverConfig(), max_affected_fraction=0.0)
        tracker.solve(graph, 1)
        rng = random.Random(2)
        delta = random_delta(graph, rng, n_adds=1, n_removes=0)
        report = tracker.apply(delta)
        assert not report.incremental
        assert report.fallback_reason.startswith("affected-")
        successor, _ = apply_delta(graph, delta)
        assert report.result.size == KDCSolver(SolverConfig()).solve(successor, 1).size

    def test_full_solve_fallback_honours_apply_budget(self):
        # The full-solve fallback (forced by max_affected_fraction=0) is a
        # ~1 s solve here; apply()'s time_limit must cut it short and leave
        # the tracker on the predecessor, as a trip in the incremental
        # route does.
        graph = gnp_random_graph(120, 0.3, seed=5)
        tracker = IncrementalSolver(SolverConfig(), max_affected_fraction=0.0)
        tracker.solve(graph, 2)
        before = tracker.digest
        delta = random_delta(graph, random.Random(1), n_adds=1, n_removes=0)
        started = time.monotonic()
        with pytest.raises(BudgetExceededError):
            tracker.apply(delta, time_limit=0.05)
        assert time.monotonic() - started < 0.5
        assert tracker.digest == before

    def test_removal_only_delta_is_pure_reuse(self):
        """A removal that spares the witness re-solves zero anchors."""
        graph = gnp_random_graph(50, 0.1, seed=9)
        tracker = IncrementalSolver(SolverConfig())
        result = tracker.solve(graph, 1)
        witness = set(result.clique)
        edge = next(
            e for e in graph.iter_edges() if not set(e) <= witness
        )
        report = tracker.apply(EdgeDelta(removes=[edge]))
        if report.incremental:  # witness might graze the removed edge
            assert report.anchors_resolved == 0
            assert report.anchors_reused == report.anchors_total
        successor, _ = apply_delta(graph, EdgeDelta(removes=[edge]))
        assert report.result.size == KDCSolver(SolverConfig()).solve(successor, 1).size

    def test_apply_without_solve_rejected(self):
        tracker = IncrementalSolver(SolverConfig())
        with pytest.raises(InvalidParameterError):
            tracker.apply(EdgeDelta(adds=[(0, 1)]))

    def test_seed_adopts_existing_result(self):
        graph = gnp_random_graph(30, 0.2, seed=4)
        result = KDCSolver(SolverConfig()).solve(graph, 1)
        tracker = IncrementalSolver(SolverConfig())
        tracker.seed(graph, 1, result)
        assert tracker.digest == graph.content_digest()
        rng = random.Random(3)
        delta = random_delta(graph, rng, n_adds=1, n_removes=0)
        report = tracker.apply(delta)
        successor, _ = apply_delta(graph, delta)
        assert report.result.size == KDCSolver(SolverConfig()).solve(successor, 1).size

    def test_seed_rejects_non_optimal(self):
        graph = gnp_random_graph(20, 0.2, seed=4)
        result = KDCSolver(SolverConfig()).solve(graph, 1)
        result.optimal = False
        tracker = IncrementalSolver(SolverConfig())
        with pytest.raises(InvalidParameterError):
            tracker.seed(graph, 1, result)

    def test_invalid_max_affected_fraction(self):
        with pytest.raises(InvalidParameterError):
            IncrementalSolver(SolverConfig(), max_affected_fraction=1.5)


def delta_stream(graph, rng, steps, delta_size, add_fraction=0.7):
    """``steps`` valid deltas of ``delta_size`` edges each against the evolving
    graph: each edge is an add with probability ``add_fraction``, else a remove."""
    working = graph.copy()
    deltas = []
    vertices = sorted(working.vertex_set())
    for _ in range(steps):
        adds, removes = set(), set()
        while len(adds) + len(removes) < delta_size:
            if rng.random() < add_fraction or working.num_edges <= delta_size:
                u, v = rng.sample(vertices, 2)
                edge = (min(u, v), max(u, v))
                if not working.has_edge(u, v) and edge not in adds:
                    adds.add(edge)
            else:
                edge = tuple(sorted(rng.choice(list(working.iter_edges()))))
                if edge not in removes and edge not in adds:
                    removes.add(edge)
        delta = EdgeDelta(adds=sorted(adds), removes=sorted(removes))
        for u, v in delta.removes:
            working.remove_edge(u, v)
        for u, v in delta.adds:
            working.add_edge(u, v)
        deltas.append(delta)
    return deltas


def resolved_fractions(graph, k, deltas):
    """Drive one stream, asserting every step equals a from-scratch solve;
    returns the re-solved anchor fraction of each incremental step."""
    tracker = IncrementalSolver(SolverConfig())
    scratch = KDCSolver(SolverConfig())
    tracker.solve(graph, k)
    fractions = []
    for step, delta in enumerate(deltas):
        report = tracker.apply(delta)
        reference = scratch.solve(tracker.graph(), k)
        assert report.result.optimal and reference.optimal
        assert report.result.size == reference.size, f"step {step}"
        if report.incremental:
            fractions.append(report.anchors_resolved / max(1, report.anchors_total))
    return fractions


class TestDeltaStreams:
    """Seeded G(n, p) streams with a 70/30 add/remove mix, against scratch."""

    def test_single_edge_stream_resolves_a_small_fraction(self):
        """1,000 vertices under 50 one-edge deltas: exact at every step, and
        the mean share of anchors re-solved stays under 30% (about 0.5%)."""
        graph = gnp_random_graph(1000, 0.008, seed=42)
        deltas = delta_stream(graph, random.Random(42), steps=50, delta_size=1)
        fractions = resolved_fractions(graph, 1, deltas)
        assert fractions, "no step was incremental"
        assert sum(fractions) / len(fractions) < 0.30

    @pytest.mark.parametrize("delta_size", [1, 4, 16])
    def test_larger_deltas_stay_exact(self, delta_size):
        graph = gnp_random_graph(600, 0.012, seed=100 + delta_size)
        rng = random.Random(100 + delta_size)
        resolved_fractions(graph, 1, delta_stream(graph, rng, steps=12, delta_size=delta_size))
