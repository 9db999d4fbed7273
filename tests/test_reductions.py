"""Tests for the reduction rules RR1–RR6 and the preprocessing step."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_maximum_defective_clique
from repro.core import SearchState, SolverConfig
from repro.core.reductions import (
    apply_reductions,
    apply_rr1,
    apply_rr2,
    apply_rr3,
    apply_rr4,
    apply_rr5,
    preprocess_graph,
)
from repro.core.result import SearchStats
from repro.graphs import Graph, complete_graph, cycle_graph, gnp_random_graph, star_graph


def _adjacency(graph):
    return [set(graph.neighbors(v)) for v in range(graph.num_vertices)]


def _state(graph, k):
    return SearchState.initial(_adjacency(graph), k)


def _rows(graph):
    """A copy of ``graph``'s adjacency rows, for the in-place preprocessing."""
    return {v: set(graph.neighbors(v)) for v in graph}


class TestRR1:
    def test_removes_over_budget_candidates(self):
        # S = {0, 1} non-adjacent; with k = 1 a candidate with another missing
        # edge towards S must be dropped.
        g = Graph(edges=[(0, 2), (1, 2), (0, 3)], vertices=[0, 1, 2, 3])
        state = _state(g, k=1)
        state.add_to_solution(0)
        state.add_to_solution(1)  # S misses (0,1): budget used up
        removed = apply_rr1(state)
        # vertex 3 misses the edge to 1 -> would exceed k; vertex 2 is adjacent to both.
        assert removed == 1
        assert 3 not in state.candidates
        assert 2 in state.candidates

    def test_no_removal_when_budget_remains(self):
        g = complete_graph(4)
        state = _state(g, k=1)
        state.add_to_solution(0)
        assert apply_rr1(state) == 0

    def test_stats_counted(self):
        g = Graph(edges=[(0, 2), (1, 2)], vertices=[0, 1, 2, 3])
        stats = SearchStats()
        state = _state(g, k=0)
        state.add_to_solution(0)
        apply_rr1(state, stats)
        assert stats.reductions.get("RR1", 0) >= 1


class TestRR2:
    def test_adds_universal_vertex(self):
        g = complete_graph(4)
        state = _state(g, k=0)
        moved = apply_rr2(state)
        assert moved == 4
        assert not state.candidates
        assert state.missing_in_solution == 0

    def test_adds_vertex_with_one_non_neighbour(self):
        g = complete_graph(4)
        g.remove_edge(0, 1)
        state = _state(g, k=1)
        moved = apply_rr2(state)
        # Every vertex has degree >= n - 2, so all are moved and S misses one edge.
        assert moved == 4
        assert state.missing_in_solution == 1

    def test_does_not_add_invalid_vertex(self):
        # With k = 0, a vertex whose addition would create a missing edge must stay.
        g = complete_graph(4)
        g.remove_edge(0, 1)
        state = _state(g, k=0)
        state.add_to_solution(0)
        apply_rr2(state)
        assert 1 in state.candidates  # adding 1 would violate k = 0

    def test_respects_lemma_3_3(self):
        """After RR1+RR2 exhaust, every remaining candidate has >= 2 non-neighbours in g."""
        for seed in range(6):
            g = gnp_random_graph(14, 0.5, seed=seed)
            state = _state(g, k=2)
            config = SolverConfig(use_rr3=False, use_rr4=False, use_rr5=False, use_ub1=False,
                                  use_ub2=False, use_ub3=False, use_rr6=False,
                                  initial_heuristic="none")
            pruned = apply_reductions(state, config, lower_bound=0)
            assert not pruned
            if state.is_defective_clique():
                continue
            size = state.graph_size
            for v in state.candidates:
                # Lemma 3.3: d_g(v) < |V(g)| - 2, i.e. at least two non-neighbours in g.
                assert state.degree_in_graph[v] < size - 2


class TestRR3:
    def test_removes_hopeless_candidate(self):
        # Star graph: leaves pairwise non-adjacent.  With S = {centre, leaf}
        # and lb large, far-away leaves cannot help.
        g = star_graph(5)
        state = _state(g, k=1)
        state.add_to_solution(0)
        state.add_to_solution(1)
        removed = apply_rr3(state, lower_bound=3)
        # keeping one additional leaf is possible (k = 1), but any candidate
        # beyond the reserved cheapest one whose cost exceeds the leftover
        # budget is dropped.
        assert removed >= 1

    def test_noop_when_lb_small(self):
        g = complete_graph(5)
        state = _state(g, k=1)
        assert apply_rr3(state, lower_bound=0) == 0

    def test_never_removes_optimal_solution_vertices(self):
        for seed in range(8):
            g = gnp_random_graph(11, 0.5, seed=seed)
            k = 2
            optimum = brute_force_maximum_defective_clique(g, k)
            state = _state(g, k=k)
            lb = len(optimum) - 1  # a legitimate incumbent
            apply_rr3(state, lower_bound=lb)
            remaining = state.candidates | set(state.solution)
            # After removals, a maximum solution must still exist within the instance.
            best_remaining = brute_force_maximum_defective_clique(g.subgraph(remaining), k)
            assert len(best_remaining) == len(optimum)


class TestRR4:
    def test_requires_last_added(self):
        g = complete_graph(4)
        state = _state(g, k=0)
        assert apply_rr4(state, lower_bound=10) == 0

    def test_removes_candidate_with_poor_second_order_bound(self):
        # Path 0-1-2-3: with S = {0} (last added 0) and lb = 3, vertex 3
        # shares nothing with 0, so the pairwise bound cannot reach 4.
        g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        state = _state(g, k=1)
        state.add_to_solution(0)
        removed = apply_rr4(state, lower_bound=3)
        assert removed >= 1
        assert 3 not in state.candidates

    def test_preserves_optimum(self):
        for seed in range(8):
            g = gnp_random_graph(11, 0.5, seed=seed)
            k = 2
            optimum = brute_force_maximum_defective_clique(g, k)
            state = _state(g, k=k)
            # put one vertex of the optimum into S so last_added is set
            state.add_to_solution(sorted(optimum)[0]) if optimum else None
            apply_rr4(state, lower_bound=len(optimum) - 1)
            remaining = state.candidates | set(state.solution)
            best_remaining = brute_force_maximum_defective_clique(g.subgraph(remaining), k)
            # The maximum solution containing the chosen vertex may differ from
            # the global optimum, but RR4 with lb = |opt|-1 must leave room for
            # *some* solution of the optimal size that contains S.
            assert len(best_remaining) >= len(optimum) - 1


class TestRR5:
    def test_removes_low_degree_candidates(self):
        g = star_graph(5)
        state = _state(g, k=1)
        removed, prune = apply_rr5(state, lower_bound=4)
        assert not prune
        # leaves have degree 1 < lb - k = 3 and must go; the centre then follows.
        assert removed >= 5

    def test_prunes_when_solution_vertex_fails(self):
        g = star_graph(4)
        state = _state(g, k=0)
        state.add_to_solution(1)  # a leaf with degree 1
        removed, prune = apply_rr5(state, lower_bound=5)
        assert prune

    def test_noop_for_small_lb(self):
        g = star_graph(4)
        state = _state(g, k=3)
        removed, prune = apply_rr5(state, lower_bound=2)
        assert removed == 0 and not prune


class TestApplyReductions:
    def test_full_pipeline_keeps_optimum(self):
        for seed in range(10):
            g = gnp_random_graph(12, 0.5, seed=seed)
            k = 2
            optimum = brute_force_maximum_defective_clique(g, k)
            state = _state(g, k=k)
            config = SolverConfig()
            pruned = apply_reductions(state, config, lower_bound=len(optimum) - 1)
            if pruned:
                continue
            remaining = state.candidates | set(state.solution)
            best_remaining = brute_force_maximum_defective_clique(g.subgraph(remaining), k)
            assert len(best_remaining) == len(optimum)

    def test_kdc_t_configuration_only_uses_rr1_rr2(self):
        g = star_graph(6)
        state = _state(g, k=0)
        config = SolverConfig(
            use_ub1=False, use_ub2=False, use_ub3=False,
            use_rr3=False, use_rr4=False, use_rr5=False, use_rr6=False,
            initial_heuristic="none",
        )
        stats = SearchStats()
        pruned = apply_reductions(state, config, lower_bound=100, stats=stats)
        assert not pruned
        assert "RR3" not in stats.reductions
        assert "RR5" not in stats.reductions


class TestPreprocessing:
    def test_core_and_truss_reduction(self):
        g = complete_graph(6)
        for leaf in range(6, 12):
            g.add_edge(0, leaf)  # pendant vertices
        rows = _rows(g)
        stats = SearchStats()
        preprocess_graph(rows, k=1, lower_bound=5, use_rr5=True, use_rr6=True, stats=stats)
        assert len(rows) == 6
        assert stats.preprocess_removed_vertices == 6

    def test_preserves_solutions_larger_than_lb(self):
        for seed in range(6):
            g = gnp_random_graph(14, 0.4, seed=seed)
            k = 1
            optimum = brute_force_maximum_defective_clique(g, k)
            rows = _rows(g)
            preprocess_graph(rows, k, lower_bound=len(optimum) - 1)
            if not rows:
                # Everything was pruned: only valid if nothing can beat lb,
                # i.e. the optimum is exactly lb + ... — not allowed here.
                raise AssertionError("preprocessing removed an optimal solution")
            best_remaining = brute_force_maximum_defective_clique(Graph.from_adjacency(rows), k)
            assert len(best_remaining) == len(optimum)

    def test_disabled_rules_do_nothing(self):
        g = star_graph(5)
        rows = _rows(g)
        preprocess_graph(rows, k=1, lower_bound=4, use_rr5=False, use_rr6=False)
        assert len(rows) == g.num_vertices
        assert rows == _rows(g)


class TestPreprocessingBudget:
    def test_budget_check_raised_before_work(self):
        from repro.exceptions import BudgetExceededError

        def firing_budget():
            raise BudgetExceededError("deadline")

        rows = _rows(gnp_random_graph(30, 0.4, seed=3))
        import pytest

        with pytest.raises(BudgetExceededError):
            preprocess_graph(rows, k=1, lower_bound=6, budget_check=firing_budget)

    def test_budget_check_polled_between_phases(self):
        from repro.exceptions import BudgetExceededError

        calls = []

        def counting_budget():
            calls.append(None)

        rows = _rows(gnp_random_graph(30, 0.4, seed=4))
        preprocess_graph(rows, k=1, lower_bound=6, budget_check=counting_budget)
        assert len(calls) >= 2  # before the core phase and before the truss phase

    def test_no_budget_check_still_works(self):
        g = complete_graph(8)
        rows = _rows(g)
        preprocess_graph(rows, k=1, lower_bound=5)
        assert len(rows) == 8
        assert sum(map(len, rows.values())) // 2 == g.num_edges
