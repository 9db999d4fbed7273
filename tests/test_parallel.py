"""Tests for the decomposition's worker pool: budgets, wiring, re-entrancy."""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.bench.harness import make_solver, run_instance
from repro.cli import main as cli_main
from repro.core import (
    KDCSolver,
    SolverConfig,
    build_ego_subproblem,
    is_k_defective_clique,
)
from repro.exceptions import InvalidParameterError
from repro.graphs import gnp_random_graph, write_edge_list


class TestConfig:
    def test_default_workers_is_one(self):
        assert SolverConfig().workers == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(workers=-2)


class TestBudgetPropagation:
    """Time/node budgets must reach the workers and interrupt cleanly."""

    def test_time_limit_interrupts_parallel_decomposition(self):
        graph = gnp_random_graph(250, 0.25, seed=2)
        config = SolverConfig(
            backend="bitset", decompose_threshold=1, workers=2, time_limit=0.2
        )
        start = time.perf_counter()
        result = KDCSolver(config).solve(graph, 3)
        elapsed = time.perf_counter() - start
        assert not result.optimal
        # Must neither hang nor grossly overrun: generous headroom for pool
        # startup/teardown on slow machines, but nowhere near the full solve.
        assert elapsed < 10.0
        assert is_k_defective_clique(graph, result.clique, 3)

    def test_node_limit_interrupts_parallel_decomposition(self):
        graph = gnp_random_graph(250, 0.25, seed=2)
        config = SolverConfig(
            backend="bitset", decompose_threshold=1, workers=2, node_limit=150
        )
        result = KDCSolver(config).solve(graph, 3)
        assert not result.optimal
        assert result.stats.workers == 2
        assert is_k_defective_clique(graph, result.clique, 3)

    def test_interrupted_parallel_solve_keeps_best_found(self):
        graph = gnp_random_graph(200, 0.3, seed=4)
        config = SolverConfig(
            backend="bitset", decompose_threshold=1, workers=2, time_limit=0.2
        )
        result = KDCSolver(config).solve(graph, 2)
        # The heuristic incumbent is computed before the decomposition, so
        # even an interrupted parallel solve can never return less.
        assert result.size >= result.stats.initial_solution_size

    def test_unbudgeted_parallel_solve_is_optimal(self):
        graph = gnp_random_graph(80, 0.3, seed=3)
        config = SolverConfig(backend="bitset", decompose_threshold=1, workers=2)
        result = KDCSolver(config).solve(graph, 2)
        assert result.optimal
        assert result.stats.workers == 2

    def test_budget_interrupt_salvages_improvement_found_mid_engine(self):
        # Regression: an improvement the engine has already recorded into the
        # placeholder incumbent must survive a BudgetExceededError that
        # unwinds engine.run, and travel back with the batch result.
        import multiprocessing

        from repro.core import parallel as parallel_module
        from repro.graphs.degeneracy import degeneracy_ordering

        graph = gnp_random_graph(40, 0.5, seed=3)
        relabeled, _, _ = graph.relabel()
        decomposition = degeneracy_ordering(relabeled)
        adj = {v: tuple(relabeled.neighbors(v)) for v in relabeled}
        position = dict(decomposition.position)
        best_size = multiprocessing.Value("q", 3, lock=False)  # k + 1: decomposition-legal
        node_counter = multiprocessing.Value("q", 0, lock=False)
        # node_limit=25 trips mid-engine, after the engine's first incumbent
        # improvements on this dense instance.
        parallel_module._init_worker(
            adj, position, 2, SolverConfig(), best_size, multiprocessing.Lock(),
            node_counter, multiprocessing.Lock(), node_limit=25, deadline=None,
        )
        try:
            anchors = list(reversed(decomposition.ordering))
            index, local_best, stats, exceeded = parallel_module._solve_batch((0, anchors))
        finally:
            parallel_module._CTX = None
        assert index == 0
        assert exceeded
        assert len(local_best) > 3, "improvement found before the interrupt was lost"
        assert is_k_defective_clique(relabeled, local_best, 2)
        assert best_size.value == len(local_best)

    def test_node_limit_enforced_tightly_across_workers(self):
        # Regression: small batches used to discard their unflushed private
        # poll counts, letting a parallel solve overrun node_limit by an
        # order of magnitude.  The budget must now bind within the
        # workers * flush-interval race margin.
        graph = gnp_random_graph(150, 0.2, seed=1)
        config = SolverConfig(
            backend="bitset", decompose_threshold=1, workers=2, node_limit=100
        )
        result = KDCSolver(config).solve(graph, 2)
        assert not result.optimal
        margin = 2 * 64
        assert result.stats.nodes <= 100 + margin, result.stats.nodes


class TestWorkerLoss:
    @pytest.mark.slow
    def test_killed_worker_recovers_and_stays_exact(self):
        # A pool worker dying abruptly must not hang the solve or lose its
        # batch: the parent detects child turnover and re-solves unmerged
        # batches in-process, so the result stays optimal.
        import multiprocessing
        import os
        import signal
        import threading

        graph = gnp_random_graph(180, 0.25, seed=3)
        expected = KDCSolver(SolverConfig(backend="bitset")).solve(graph, 2).size

        config = SolverConfig(backend="bitset", decompose_threshold=1, workers=2)
        outcome = {}

        def run():
            outcome["result"] = KDCSolver(config).solve(graph, 2)

        thread = threading.Thread(target=run)
        thread.start()
        victim = None
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline and victim is None:
            children = multiprocessing.active_children()
            if children:
                victim = children[0]
            else:
                time.sleep(0.02)
        assert victim is not None, "pool workers never appeared"
        time.sleep(0.2)  # let it pick up a batch
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already finished: the solve simply completes normally
        thread.join(timeout=120)
        assert not thread.is_alive(), "solve hung after a worker was killed"
        result = outcome["result"]
        assert result.optimal
        assert result.size == expected


class TestReentrancy:
    """Per-solve state is local: one shared solver instance cannot corrupt."""

    def test_sequential_reuse_is_clean(self):
        solver = KDCSolver(SolverConfig(backend="bitset", decompose_threshold=1))
        g1 = gnp_random_graph(50, 0.3, seed=1)
        g2 = gnp_random_graph(50, 0.2, seed=2)
        first = solver.solve(g1, 2)
        second = solver.solve(g2, 2)
        again = solver.solve(g1, 2)
        assert first.size == again.size
        assert first.stats is not second.stats

    def test_concurrent_solves_on_shared_instance(self):
        # Regression for the former per-instance _best/_stats fields: two
        # interleaved solves on one instance must not cross-contaminate
        # incumbents or statistics.
        solver = KDCSolver(SolverConfig())
        graphs = [gnp_random_graph(45, 0.3, seed=s) for s in range(6)]
        expected = [KDCSolver(SolverConfig()).solve(g, 2).size for g in graphs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda g: solver.solve(g, 2), graphs))
        assert [r.size for r in results] == expected
        assert all(r.optimal for r in results)


class TestEgoSubproblemBuilder:
    def test_size_cap_returns_none(self):
        graph = gnp_random_graph(30, 0.2, seed=0)
        relabeled, _, _ = graph.relabel()
        from repro.graphs.degeneracy import degeneracy_ordering

        decomposition = degeneracy_ordering(relabeled)
        v = decomposition.ordering[0]  # lowest-degeneracy anchor: tiny ego net
        sub = build_ego_subproblem(
            relabeled.neighbors, decomposition.position, v,
            lower_bound=relabeled.num_vertices + 1, k=1,
        )
        assert sub is None

    def test_anchor_is_local_zero(self):
        graph = gnp_random_graph(30, 0.4, seed=1)
        relabeled, _, _ = graph.relabel()
        from repro.graphs.degeneracy import degeneracy_ordering

        decomposition = degeneracy_ordering(relabeled)
        position = decomposition.position
        # Anchor with the most higher-ranked neighbours, so the ego net is
        # guaranteed to clear the incumbent size cap.
        v = max(
            relabeled,
            key=lambda u: sum(1 for w in relabeled.neighbors(u) if position[w] > position[u]),
        )
        sub = build_ego_subproblem(
            relabeled.neighbors, decomposition.position, v, lower_bound=2, k=1
        )
        assert sub is not None
        local_vertices, adj_bits = sub
        assert local_vertices[0] == v
        assert len(adj_bits) == len(local_vertices)
        # Local adjacency must be symmetric.
        for i, row in enumerate(adj_bits):
            for j in range(len(local_vertices)):
                assert bool((row >> j) & 1) == bool((adj_bits[j] >> i) & 1)


class TestWiring:
    def test_make_solver_workers_override(self):
        solver = make_solver("kDC", workers=4)
        assert solver.config.workers == 4

    def test_make_solver_rejects_workers_for_baselines(self):
        for name in ("KDBB", "MADEC"):
            with pytest.raises(InvalidParameterError):
                make_solver(name, workers=2)

    def test_run_instance_records_workers(self):
        graph = gnp_random_graph(60, 0.3, seed=6)
        record = run_instance(
            "kDC", graph, 2, time_limit=30.0, backend="bitset", workers=2
        )
        # decompose_threshold (128) exceeds n=60, so the decomposition does
        # not engage and the record reports no decomposition workers.
        assert record.workers == 0
        assert record.as_dict()["workers"] == 0

    @pytest.mark.slow
    def test_run_instance_records_workers_when_decomposed(self):
        # Dense enough that RR5/RR6 preprocessing keeps the reduced instance
        # above the default decompose_threshold, so the pool really engages.
        graph = gnp_random_graph(180, 0.25, seed=6)
        record = run_instance(
            "kDC", graph, 2, time_limit=120.0, backend="bitset", workers=2
        )
        assert record.workers == 2

    def test_cli_workers_flag(self, tmp_path, capsys):
        graph = gnp_random_graph(60, 0.3, seed=8)
        path = tmp_path / "g.edges"
        write_edge_list(graph, path)
        sizes = {}
        for workers in ("1", "2"):
            code = cli_main([
                "solve", str(path), "-k", "2", "--backend", "bitset", "--workers", workers,
            ])
            assert code == 0
            out = capsys.readouterr().out
            assert "|C|=" in out
            sizes[workers] = out.split("|C|=")[1].split(" ")[0]
        assert sizes["1"] == sizes["2"]

    def test_workers_config_survives_variant_replace(self):
        config = replace(SolverConfig(), workers=3)
        assert config.workers == 3


class TestScaling:
    @pytest.mark.slow
    def test_four_workers_speed_up_a_decomposed_solve(self):
        """G(400, .1) at k = 3 with 1, 2 and 4 workers: one size, the pool and
        the decomposition engaged at every count, and at least 1.5x at four
        workers wherever four CPUs exist to run them."""
        graph = gnp_random_graph(400, 0.1, seed=2)
        sizes, elapsed = {}, {}
        for workers in (1, 2, 4):
            config = SolverConfig(backend="bitset", workers=workers, time_limit=600.0)
            start = time.perf_counter()
            result = KDCSolver(config).solve(graph, 3)
            elapsed[workers] = time.perf_counter() - start
            assert result.optimal
            assert result.stats.workers == workers
            assert result.stats.subproblems > 0
            sizes[workers] = result.size
        assert len(set(sizes.values())) == 1, sizes
        if (os.cpu_count() or 1) >= 4:
            assert elapsed[1] >= 1.5 * elapsed[4], elapsed
