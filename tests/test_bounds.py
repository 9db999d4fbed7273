"""Tests for the upper bounds UB1, UB2, UB3 and the Eq. (2) baseline bound."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import brute_force_maximum_defective_clique
from repro.core import SearchState
from repro.core.bounds import (
    best_upper_bound,
    color_candidates,
    eq2_original_coloring,
    ub1_improved_coloring,
    ub2_min_degree,
    ub3_degree_sequence,
)
from repro.datasets import all_collections
from repro.graphs import Graph, complete_graph, complete_multipartite_graph, gnp_random_graph


def _adjacency(graph):
    return [set(graph.neighbors(v)) for v in range(graph.num_vertices)]


def _ub1_gaps(state):
    """How far Eq. (2) and UB3 sit above UB1 on ``state`` (one shared coloring)."""
    classes = color_candidates(state)
    ub1 = ub1_improved_coloring(state, classes)
    return eq2_original_coloring(state, classes) - ub1, ub3_degree_sequence(state) - ub1


def _figure5_state(k: int = 3) -> SearchState:
    """Rebuild the paper's Figure 5 instance: S = two isolated vertices, rest a 3-partite clique."""
    g = complete_multipartite_graph([3, 3, 3])
    g.add_vertex(9)
    g.add_vertex(10)
    state = SearchState.initial(_adjacency(g), k=k)
    state.add_to_solution(9)
    state.add_to_solution(10)
    return state


class TestFigure5Example:
    def test_eq2_bound_matches_example_3_6(self):
        state = _figure5_state(k=3)
        # Example 3.6: |S| + 3 * 3 = 11.
        assert eq2_original_coloring(state) == 11

    def test_ub1_matches_example_3_7(self):
        state = _figure5_state(k=3)
        # Example 3.7: the improved bound evaluates to 3.
        assert ub1_improved_coloring(state) == 3

    def test_ub1_is_much_tighter_than_eq2(self):
        state = _figure5_state(k=3)
        assert ub1_improved_coloring(state) < eq2_original_coloring(state)


class TestColorCandidates:
    def test_classes_are_independent_sets(self):
        g = gnp_random_graph(20, 0.4, seed=3)
        state = SearchState.initial(_adjacency(g), k=2)
        classes = color_candidates(state)
        seen = set()
        for cls in classes:
            for i, u in enumerate(cls):
                seen.add(u)
                for v in cls[i + 1:]:
                    assert not g.has_edge(u, v)
        assert seen == state.candidates

    def test_complete_graph_uses_singleton_classes(self):
        g = complete_graph(5)
        state = SearchState.initial(_adjacency(g), k=0)
        classes = color_candidates(state)
        assert len(classes) == 5
        assert all(len(cls) == 1 for cls in classes)


class TestSimpleBounds:
    def test_ub2_on_empty_solution_is_vacuous(self):
        g = complete_graph(4)
        state = SearchState.initial(_adjacency(g), k=1)
        assert ub2_min_degree(state) == 4

    def test_ub2_uses_min_degree_of_solution(self):
        g = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
        state = SearchState.initial(_adjacency(g), k=1)
        state.add_to_solution(1)  # degree 2 in g
        assert ub2_min_degree(state) == 2 + 1 + 1

    def test_ub3_on_clique(self):
        g = complete_graph(5)
        state = SearchState.initial(_adjacency(g), k=1)
        assert ub3_degree_sequence(state) == 5

    def test_ub3_respects_budget(self):
        # Star: centre adjacent to all leaves; leaves mutually non-adjacent.
        g = Graph(edges=[(0, 1), (0, 2), (0, 3)])
        state = SearchState.initial(_adjacency(g), k=1)
        state.add_to_solution(1)
        state.add_to_solution(0)
        # candidates 2, 3 each have one non-neighbour (vertex 1) in S
        assert ub3_degree_sequence(state) == 2 + 1

    def test_best_upper_bound_disabled_returns_graph_size(self):
        g = complete_graph(6)
        state = SearchState.initial(_adjacency(g), k=0)
        assert best_upper_bound(state, use_ub1=False, use_ub2=False, use_ub3=False) == 6

    def test_best_upper_bound_accepts_shared_classes(self):
        # A caller evaluating eq2 alongside best_upper_bound colours once and
        # shares the classes; the value must match the recolour-internally path.
        g = gnp_random_graph(14, 0.4, seed=3)
        state = SearchState.initial(_adjacency(g), k=2)
        classes = color_candidates(state)
        assert best_upper_bound(state, classes=classes) == best_upper_bound(state)
        assert eq2_original_coloring(state, classes) == eq2_original_coloring(state)


class TestSoundnessProperties:
    @given(st.integers(min_value=1, max_value=11), st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_bounds_dominate_optimum(self, n, p, seed, k):
        """Every upper bound must be >= the true maximum size (soundness)."""
        g = gnp_random_graph(n, p, seed=seed)
        optimum = len(brute_force_maximum_defective_clique(g, k))
        state = SearchState.initial(_adjacency(g), k=k)
        assert ub1_improved_coloring(state) >= optimum
        assert ub2_min_degree(state) >= optimum
        assert ub3_degree_sequence(state) >= optimum
        assert eq2_original_coloring(state) >= optimum
        assert best_upper_bound(state) >= optimum

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.1, max_value=0.9),
           st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_ub1_no_looser_than_eq2_and_ub3(self, n, p, seed, k):
        """UB1 is tighter than both the Eq. (2) coloring bound and UB3 (paper Section 3.2.1)."""
        g = gnp_random_graph(n, p, seed=seed)
        gap_eq2, gap_ub3 = _ub1_gaps(SearchState.initial(_adjacency(g), k=k))
        assert gap_eq2 >= 0 and gap_ub3 >= 0

    def test_ub1_no_looser_at_the_collection_roots(self):
        """The same check at the root of every tiny collection instance (k = 3),
        where UB1 must also beat Eq. (2) strictly at least once."""
        gaps = []
        for instances in all_collections(scale="tiny").values():
            for inst in instances:
                relabeled, _, _ = inst.graph.relabel()
                gaps.append(_ub1_gaps(SearchState.initial(_adjacency(relabeled), k=3)))
        assert all(gap_eq2 >= 0 and gap_ub3 >= 0 for gap_eq2, gap_ub3 in gaps)
        assert any(gap_eq2 > 0 for gap_eq2, _ in gaps)

    @given(st.integers(min_value=2, max_value=10), st.floats(min_value=0.2, max_value=0.9),
           st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_bounds_sound_with_partial_solution(self, n, p, seed, k):
        """Bounds remain sound for instances with a non-empty partial solution S."""
        g = gnp_random_graph(n, p, seed=seed)
        state = SearchState.initial(_adjacency(g), k=k)
        # Greedily build a small valid S.
        for v in sorted(state.candidates):
            if state.missing_if_added(v) <= k:
                state.add_to_solution(v)
            if len(state.solution) >= 2:
                break
        solution = set(state.solution)
        # Optimum among k-defective cliques containing S.
        best = len(solution)
        from itertools import combinations

        others = [v for v in g.vertices() if v not in solution]
        for size in range(len(others), 0, -1):
            for extra in combinations(others, size):
                cand = list(solution) + list(extra)
                if g.count_missing_edges(cand) <= k:
                    best = max(best, len(cand))
                    break
            if best > len(solution):
                break
        assert ub1_improved_coloring(state) >= best
        assert ub3_degree_sequence(state) >= best
        assert ub2_min_degree(state) >= best
