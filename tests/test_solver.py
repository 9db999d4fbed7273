"""Tests for the kDC solver (correctness, variants, budgets, edge cases)."""

from __future__ import annotations

import pytest

from repro.baselines import brute_force_maximum_defective_clique
from repro.core import (
    KDCSolver,
    SolverConfig,
    find_maximum_defective_clique,
    is_k_defective_clique,
    is_maximal_k_defective_clique,
    maximum_defective_clique_size,
    variant_config,
)
from repro.datasets import get_collection
from repro.extensions import enumerate_maximal_defective_cliques
from repro.exceptions import InvalidParameterError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    planted_defective_clique_graph,
    star_graph,
)


class TestBasicCases:
    def test_empty_graph(self):
        result = find_maximum_defective_clique(Graph(), 2)
        assert result.size == 0
        assert result.optimal

    def test_single_vertex(self):
        result = find_maximum_defective_clique(Graph(vertices=["a"]), 0)
        assert result.clique == ["a"]

    def test_complete_graph(self):
        for k in (0, 1, 5):
            result = find_maximum_defective_clique(complete_graph(6), k)
            assert result.size == 6

    def test_edgeless_graph(self):
        g = Graph(vertices=range(5))
        assert find_maximum_defective_clique(g, 0).size == 1
        assert find_maximum_defective_clique(g, 1).size == 2
        assert find_maximum_defective_clique(g, 3).size == 3

    def test_k0_equals_maximum_clique(self):
        g = gnp_random_graph(20, 0.4, seed=1)
        omega = max(len(c) for c in enumerate_maximal_defective_cliques(g, 0))
        assert find_maximum_defective_clique(g, 0).size == omega

    def test_star_graph(self):
        g = star_graph(6)
        assert find_maximum_defective_clique(g, 0).size == 2
        assert find_maximum_defective_clique(g, 1).size == 3
        assert find_maximum_defective_clique(g, 3).size == 4

    def test_cycle(self):
        g = cycle_graph(6)
        assert find_maximum_defective_clique(g, 1).size == 3
        # Any four vertices of C6 span at most three edges, so k = 2 cannot
        # reach size 4 but k = 3 can.
        assert find_maximum_defective_clique(g, 2).size == 3
        assert find_maximum_defective_clique(g, 3).size == 4

    def test_result_is_valid_and_maximal(self):
        g = gnp_random_graph(25, 0.3, seed=7)
        for k in (1, 2, 4):
            result = find_maximum_defective_clique(g, k)
            assert is_k_defective_clique(g, result.clique, k)
            assert is_maximal_k_defective_clique(g, result.clique, k)

    def test_string_labels_preserved(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        result = find_maximum_defective_clique(g, 0)
        assert set(result.clique) == {"a", "b", "c"}

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            find_maximum_defective_clique(complete_graph(3), -1)

    def test_planted_solution_recovered(self):
        g = planted_defective_clique_graph(80, 12, 3, background_p=0.04, seed=5)
        result = find_maximum_defective_clique(g, 3)
        assert result.size >= 12
        assert is_k_defective_clique(g, result.clique, 3)


class TestCorrectnessAgainstBruteForce:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_random_graphs(self, k):
        for seed in range(12):
            g = gnp_random_graph(11, 0.35 + 0.05 * (seed % 4), seed=seed)
            expected = len(brute_force_maximum_defective_clique(g, k))
            result = find_maximum_defective_clique(g, k)
            assert result.optimal
            assert result.size == expected
            assert is_k_defective_clique(g, result.clique, k)

    @pytest.mark.parametrize("variant", ["kDC", "kDC-t", "kDC/UB1", "kDC/RR3&4", "kDC/UB1&RR3&4", "kDC-Degen"])
    def test_all_variants_agree(self, variant):
        for seed in range(8):
            g = gnp_random_graph(12, 0.4, seed=100 + seed)
            k = seed % 4
            expected = len(brute_force_maximum_defective_clique(g, k))
            result = find_maximum_defective_clique(g, k, variant=variant)
            assert result.size == expected, f"{variant} failed on seed {seed}"

    def test_monotone_in_k(self):
        g = gnp_random_graph(18, 0.3, seed=11)
        sizes = [find_maximum_defective_clique(g, k).size for k in range(0, 5)]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        # each extra unit of k can add at most one vertex beyond... (no strict
        # bound in general, but sizes must stay <= n)
        assert sizes[-1] <= g.num_vertices


class TestConfigurationAndVariants:
    def test_variant_config_names(self):
        for name in ("kDC", "kDC-t", "kDC/UB1", "kDC/RR3&4", "kDC-Degen"):
            config = variant_config(name)
            assert isinstance(config, SolverConfig)
        with pytest.raises(InvalidParameterError):
            variant_config("kDC-bogus")

    def test_kdc_t_has_no_practical_techniques(self):
        config = variant_config("kDC-t")
        assert not config.uses_practical_techniques

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(initial_heuristic="bogus")
        with pytest.raises(InvalidParameterError):
            SolverConfig(time_limit=-1.0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(node_limit=0)

    def test_config_with_budget(self):
        config = SolverConfig().with_budget(time_limit=2.0, node_limit=50)
        assert config.time_limit == 2.0
        assert config.node_limit == 50

    def test_cannot_pass_config_and_variant(self):
        with pytest.raises(InvalidParameterError):
            find_maximum_defective_clique(complete_graph(3), 1, config=SolverConfig(), variant="kDC")

    def test_solver_name_defaults(self):
        assert KDCSolver().name == "kDC"
        assert KDCSolver(variant_config("kDC-t")).name == "kDC-t"
        assert KDCSolver(name="custom").name == "custom"

    def test_solver_reusable(self):
        solver = KDCSolver()
        a = solver.solve(complete_graph(4), 1)
        b = solver.solve(cycle_graph(5), 1)
        assert a.size == 4
        assert b.size == 3

    def test_kdc_explores_no_more_nodes_than_kdc_t(self):
        """The practical techniques of Algorithm 2 (kDC) only cut the tree of
        the bare O*(γ_k^n) framework (Algorithm 1, kDC-t); both are exact."""
        for inst in get_collection("real_world_like", scale="tiny")[:3]:
            full = find_maximum_defective_clique(inst.graph, 2, variant="kDC")
            bare = find_maximum_defective_clique(
                inst.graph, 2, variant="kDC-t", node_limit=200_000
            )
            assert full.optimal, inst.name
            if bare.optimal:
                assert bare.size == full.size, inst.name
                assert full.stats.nodes <= bare.stats.nodes, inst.name
            else:
                assert bare.size <= full.size, inst.name


class TestBudgets:
    def test_node_limit_interrupts(self):
        g = gnp_random_graph(60, 0.4, seed=3)
        config = SolverConfig(node_limit=3)
        result = KDCSolver(config).solve(g, 3)
        assert not result.optimal
        # the heuristic initial solution is still returned
        assert is_k_defective_clique(g, result.clique, 3)

    def test_time_limit_interrupts(self):
        g = gnp_random_graph(120, 0.3, seed=4)
        config = SolverConfig(time_limit=0.01)
        result = KDCSolver(config).solve(g, 5)
        assert is_k_defective_clique(g, result.clique, 5)
        # with such a small budget the search is almost certainly interrupted,
        # but either way the result must be well-formed
        assert result.size >= 1

    def test_budget_result_never_worse_than_heuristic(self):
        g = gnp_random_graph(80, 0.3, seed=5)
        config = SolverConfig(node_limit=2)
        result = KDCSolver(config).solve(g, 2)
        assert result.size >= result.stats.initial_solution_size

    def test_time_limit_enforced_during_pre_search_phases(self):
        """A deadline that fires before the search starts must yield optimal=False.

        The limit is small enough that it expires inside the initial
        heuristic / preprocessing on this dense instance, which the seed
        implementation ignored entirely (the deadline was only checked
        inside the branch-and-bound recursion).
        """
        import time

        g = gnp_random_graph(150, 0.5, seed=9)
        config = SolverConfig(time_limit=1e-6)
        start = time.perf_counter()
        result = KDCSolver(config).solve(g, 3)
        elapsed = time.perf_counter() - start
        assert not result.optimal
        assert is_k_defective_clique(g, result.clique, 3)
        # Far below what a full solve of this instance would need.
        assert elapsed < 10.0

    def test_time_limit_pre_search_keeps_partial_heuristic(self):
        g = gnp_random_graph(120, 0.4, seed=10)
        result = KDCSolver(SolverConfig(time_limit=1e-6)).solve(g, 2)
        # degen runs to completion before the first budget poll, so an
        # interrupted solve still returns a non-trivial valid solution.
        assert result.size >= 1
        assert not result.optimal


class TestStatistics:
    def test_stats_populated(self):
        g = gnp_random_graph(30, 0.4, seed=8)
        result = find_maximum_defective_clique(g, 2)
        stats = result.stats
        assert stats.nodes >= 1 or stats.initial_solution_size == result.size
        assert stats.elapsed_seconds >= 0.0
        assert stats.initial_solution_size >= 1
        as_dict = stats.as_dict()
        assert "nodes" in as_dict and "elapsed_seconds" in as_dict

    def test_summary_string(self):
        result = find_maximum_defective_clique(complete_graph(4), 1)
        text = result.summary()
        assert "kDC" in text and "|C|=4" in text

    def test_maximum_defective_clique_size_helper(self):
        assert maximum_defective_clique_size(complete_graph(5), 2) == 5
