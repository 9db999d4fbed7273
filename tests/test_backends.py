"""Tests for backend selection, the decomposition driver, and backend wiring."""

from __future__ import annotations

import time

import pytest

from repro.bench.harness import make_solver, run_instance
from repro.core import (
    BACKEND_NAMES,
    KDCSolver,
    SolverConfig,
    is_k_defective_clique,
    prepare_instance,
    solve_decomposed,
    variant_config,
)
from repro.core.result import SearchStats
from repro.exceptions import BudgetExceededError, InvalidParameterError
from repro.graphs import Graph, complete_graph, gnp_random_graph, planted_defective_clique_graph


class TestConfig:
    def test_backend_names(self):
        assert set(BACKEND_NAMES) == {"auto", "set", "bitset"}

    def test_default_backend_is_auto(self):
        assert SolverConfig().backend == "auto"

    def test_invalid_backend_rejected(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(backend="gpu")

    def test_invalid_decompose_threshold_rejected(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(decompose_threshold=0)

    def test_variants_accept_backend_override(self):
        from dataclasses import replace

        for name in ("kDC", "kDC-t"):
            config = replace(variant_config(name), backend="bitset")
            assert config.backend == "bitset"


class TestDispatch:
    def test_explicit_backends_agree(self):
        g = gnp_random_graph(60, 0.3, seed=1)
        for k in (0, 2, 4):
            set_result = KDCSolver(SolverConfig(backend="set")).solve(g, k)
            bit_result = KDCSolver(SolverConfig(backend="bitset")).solve(g, k)
            assert set_result.size == bit_result.size
            assert set_result.stats.backend == "set"
            assert bit_result.stats.backend == "bitset"

    def test_auto_uses_bitset_on_large_instances(self):
        g = gnp_random_graph(120, 0.2, seed=2)
        result = KDCSolver(SolverConfig(backend="auto")).solve(g, 2)
        assert result.stats.backend == "bitset"

    def test_auto_uses_bitset_on_tiny_instances(self):
        g = gnp_random_graph(24, 0.5, seed=3)
        config = SolverConfig(backend="auto")
        prepared = prepare_instance(g, 2, config)
        assert 0 < prepared.working_n < 32
        result = KDCSolver(config).solve_prepared(prepared)
        assert result.stats.backend == "bitset"
        assert result.size == KDCSolver(SolverConfig(backend="set")).solve(g, 2).size

    def test_planted_clique_recovered_by_bitset(self):
        g = planted_defective_clique_graph(90, 12, 3, background_p=0.05, seed=3)
        result = KDCSolver(SolverConfig(backend="bitset")).solve(g, 3)
        assert result.size >= 12
        assert is_k_defective_clique(g, result.clique, 3)

    def test_string_labels_roundtrip_through_bitset(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        result = KDCSolver(SolverConfig(backend="bitset")).solve(g, 0)
        assert set(result.clique) == {"a", "b", "c"}


class TestDecomposition:
    def test_forced_decomposition_matches_set_backend(self):
        for seed in range(5):
            g = gnp_random_graph(50, 0.25, seed=seed)
            k = seed % 3
            expected = KDCSolver(SolverConfig(backend="set")).solve(g, k).size
            result = KDCSolver(
                SolverConfig(backend="bitset", decompose_threshold=1)
            ).solve(g, k)
            assert result.size == expected
            assert is_k_defective_clique(g, result.clique, k)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solve_decomposed_requires_usable_incumbent(self, workers):
        g = gnp_random_graph(30, 0.3, seed=9)
        relabeled, _, _ = g.relabel()
        with pytest.raises(ValueError):
            solve_decomposed(
                relabeled, k=3, config=SolverConfig(workers=workers), stats=SearchStats(),
                check_budget=lambda: None, incumbent=[0],
            )

    def test_small_incumbent_falls_back_to_whole_graph(self):
        # With the heuristic disabled the incumbent starts empty, so the
        # solver must not decompose even above the threshold.
        g = gnp_random_graph(40, 0.2, seed=4)
        config = SolverConfig(
            backend="bitset", decompose_threshold=1, initial_heuristic="none"
        )
        expected = KDCSolver(SolverConfig(backend="set")).solve(g, 5).size
        assert KDCSolver(config).solve(g, 5).size == expected

    def test_huge_undecomposable_instance_routed_to_set_backend(self, monkeypatch):
        # When the decomposition cannot engage (empty incumbent) the
        # whole-graph bitset search would allocate O(n^2/8) bytes; above the
        # cap the solver must route to the set backend instead.
        from repro.core import solver as solver_module

        monkeypatch.setattr(solver_module, "_BITSET_WHOLE_GRAPH_MAX_VERTICES", 10)
        g = gnp_random_graph(40, 0.2, seed=4)
        config = SolverConfig(backend="bitset", initial_heuristic="none")
        result = KDCSolver(config).solve(g, 3)
        assert result.stats.backend == "set"
        expected = KDCSolver(SolverConfig(backend="set")).solve(g, 3).size
        assert result.size == expected


class TestBudgetsOnBitset:
    def test_node_limit_interrupts(self):
        g = gnp_random_graph(70, 0.4, seed=5)
        config = SolverConfig(backend="bitset", node_limit=3)
        result = KDCSolver(config).solve(g, 3)
        assert not result.optimal
        assert is_k_defective_clique(g, result.clique, 3)

    def test_result_never_worse_than_heuristic(self):
        g = gnp_random_graph(80, 0.3, seed=6)
        config = SolverConfig(backend="bitset", node_limit=2)
        result = KDCSolver(config).solve(g, 2)
        assert result.size >= result.stats.initial_solution_size


@pytest.mark.slow
class TestBackendSpeed:
    def test_bitset_is_at_least_3x_faster_than_set(self):
        """G(200, .15) at k = 3: the bitset backend took 0.40 s against the set
        backend's 2.97 s (7.4x) on 2 vCPUs; the bar sits well below that."""
        graph = gnp_random_graph(200, 0.15, seed=1)
        results, elapsed = {}, {}
        for backend in ("set", "bitset"):
            start = time.perf_counter()
            results[backend] = KDCSolver(SolverConfig(backend=backend, time_limit=120.0)).solve(graph, 3)
            elapsed[backend] = time.perf_counter() - start
        assert results["set"].optimal and results["bitset"].optimal
        assert results["set"].size == results["bitset"].size
        assert results["bitset"].stats.backend == "bitset"
        assert elapsed["set"] >= 3.0 * elapsed["bitset"], elapsed


class TestHarnessWiring:
    def test_make_solver_backend_override(self):
        solver = make_solver("kDC", backend="bitset")
        assert solver.config.backend == "bitset"

    def test_make_solver_rejects_backend_for_baselines(self):
        for name in ("KDBB", "MADEC"):
            with pytest.raises(InvalidParameterError):
                make_solver(name, backend="bitset")

    def test_run_instance_records_backend(self):
        g = gnp_random_graph(40, 0.3, seed=7)
        record = run_instance("kDC", g, 2, time_limit=10.0, backend="bitset")
        assert record.backend == "bitset"
        assert record.as_dict()["backend"] == "bitset"

    def test_run_instance_records_trail_counters(self):
        g = gnp_random_graph(60, 0.3, seed=7)
        record = run_instance("kDC", g, 2, time_limit=10.0, backend="bitset")
        assert record.trail_pushes == record.trail_pops > 0
        data = record.as_dict()
        for key in ("trail_pushes", "trail_pops", "dirty_drained",
                    "recolor_full", "recolor_repair"):
            assert key in data
        set_record = run_instance("kDC", g, 2, time_limit=10.0, backend="set")
        assert set_record.trail_pushes == 0
        assert record.size == set_record.size

    def test_run_instance_baseline_backend_set(self):
        # The baselines run kDC's set-backend branch-and-bound.
        record = run_instance("KDBB", complete_graph(5), 1, time_limit=10.0)
        assert record.backend == "set"


class TestCLI:
    def test_solve_with_backend_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs import write_edge_list

        g = gnp_random_graph(40, 0.3, seed=8)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        sizes = {}
        for backend in ("set", "bitset"):
            assert main(["solve", str(path), "-k", "2", "--backend", backend]) == 0
            out = capsys.readouterr().out
            assert "|C|=" in out
            sizes[backend] = out
        assert sizes["set"].split("|C|=")[1][:2] == sizes["bitset"].split("|C|=")[1][:2]

    def test_solve_with_engine_and_stats_flags(self, tmp_path, capsys):
        """The bitset backend has one engine: ``--engine`` is rejected, ``--stats`` shows its counters."""
        from repro.cli import main
        from repro.graphs import write_edge_list

        g = gnp_random_graph(60, 0.3, seed=9)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", str(path), "-k", "2", "--engine", "trail"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(["solve", str(path), "-k", "2", "--backend", "bitset", "--stats"]) == 0
        out = capsys.readouterr().out
        for counter in ("nodes:", "trail_pushes:", "dirty_drained:",
                        "recolor_full:", "recolor_repair:"):
            assert counter in out
        assert "engine:" not in out
