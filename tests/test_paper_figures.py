"""Tests checking the example graphs against the claims made in the paper's text."""

from __future__ import annotations

from repro.baselines import brute_force_maximum_size
from repro.core import find_maximum_defective_clique, is_k_defective_clique
from repro.extensions import enumerate_maximal_defective_cliques
from repro.graphs import figure5_partition


class TestFigure1:
    """Figure 1: maximum clique 4; maximum k-defective clique 4 + k for k <= 4."""

    def test_maximum_clique_size(self, fig1):
        assert brute_force_maximum_size(fig1, 0) == 4

    def test_defective_clique_sizes(self, fig1):
        for k in range(0, 5):
            assert find_maximum_defective_clique(fig1, k).size == 4 + k

    def test_entire_graph_is_4_defective(self, fig1):
        assert is_k_defective_clique(fig1, fig1.vertices(), 4)

    def test_removing_any_vertex_gives_3_defective(self, fig1):
        for v in fig1.vertices():
            rest = [u for u in fig1.vertices() if u != v]
            assert is_k_defective_clique(fig1, rest, 3)


class TestFigure2:
    """Figure 2: the 12-vertex running example."""

    def test_maximum_clique_is_right_block(self, fig2):
        cliques = [set(c) for c in enumerate_maximal_defective_cliques(fig2, 0)]
        omega = max(len(c) for c in cliques)
        assert omega == 5
        assert [c for c in cliques if len(c) == omega] == [{8, 9, 10, 11, 12}]

    def test_maximum_1_defective_size(self, fig2):
        assert find_maximum_defective_clique(fig2, 1).size == 5

    def test_named_1_defective_cliques(self, fig2):
        assert is_k_defective_clique(fig2, [1, 2, 3, 4, 6], 1)
        assert is_k_defective_clique(fig2, [1, 2, 3, 5, 6], 1)
        assert is_k_defective_clique(fig2, [8, 9, 10, 11, 12], 1)

    def test_maximum_2_defective_clique(self, fig2):
        result = find_maximum_defective_clique(fig2, 2)
        assert result.size == 6
        assert set(result.clique) == {1, 2, 3, 4, 5, 6}

    def test_left_block_misses_exactly_two_edges(self, fig2):
        assert fig2.count_missing_edges([1, 2, 3, 4, 5, 6]) == 2
        assert not fig2.has_edge(2, 4)
        assert not fig2.has_edge(1, 5)


class TestFigure4:
    """Figure 4: the Algorithm 1 running example (Example 3.2)."""

    def test_v1_adjacent_to_everything(self, fig4):
        assert fig4.degree(1) == 8

    def test_full_bipartite_connection(self, fig4):
        for u in (2, 3, 4, 5):
            for v in (6, 7, 8, 9):
                assert fig4.has_edge(u, v)

    def test_inner_blocks_miss_two_edges_each(self, fig4):
        assert fig4.count_missing_edges([2, 3, 4, 5]) == 2
        assert fig4.count_missing_edges([6, 7, 8, 9]) == 2

    def test_example_3_2_rr1_trigger(self, fig4):
        # S2 = {v1..v6, v8} contains three non-edges, as stated in Example 3.2.
        assert fig4.count_missing_edges([1, 2, 3, 4, 5, 6, 8]) == 3

    def test_maximum_3_defective_size(self, fig4):
        # With k = 3 one can take {v1} ∪ g1 plus three mutually compatible
        # vertices of g2 (2 + 1 = 3 missing edges); the whole graph misses 4
        # edges, so the maximum 3-defective clique has 8 of the 9 vertices.
        result = find_maximum_defective_clique(fig4, 3)
        assert result.size == 8
        assert find_maximum_defective_clique(fig4, 4).size == 9


class TestFigure5:
    """Figure 5: the upper-bound running example (Examples 3.6 and 3.7)."""

    def test_structure(self, fig5):
        assert fig5.num_vertices == 11
        assert fig5.num_edges == 27
        s, parts = figure5_partition()
        for label in s:
            assert fig5.degree(label) == 0
        for part in parts:
            for i, u in enumerate(part):
                for v in part[i + 1:]:
                    assert not fig5.has_edge(u, v)

    def test_maximum_3_defective_containing_s(self, fig5):
        # Example 3.6: the largest 3-defective clique containing the two
        # isolated vertices of S has size 3.
        s, _ = figure5_partition()
        best = 0
        for v in fig5.vertices():
            if v in s:
                continue
            candidate = list(s) + [v]
            if is_k_defective_clique(fig5, candidate, 3):
                best = max(best, len(candidate))
        assert best == 3


class TestFigure6:
    """Figure 6: the initial-solution example (Example 3.8)."""

    def test_v1_neighbourhood_is_1_defective(self, fig6):
        assert is_k_defective_clique(fig6, [1, 2, 3, 4], 1)

    def test_maximum_1_defective_size_is_4(self, fig6):
        assert find_maximum_defective_clique(fig6, 1).size == 4

    def test_triangle_exists(self, fig6):
        assert fig6.is_clique([4, 6, 7])
