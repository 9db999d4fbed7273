"""Seeded randomized differential suite across the full backend matrix.

Every cell of the backend x decomposition x workers matrix implements the
same exact algorithm, so on any instance all cells must return the *same
optimal size* (the witness clique may differ, but each returned witness
must be a valid k-defective clique of its size).  The matrix:

* ``set``               — dict/set :class:`SearchState` backend;
* ``bitset-whole``      — bitset backend, decomposition disabled;
* ``bitset-decomposed`` — degeneracy decomposition forced;
* ``workers-2/4``       — forced decomposition across 2/4 worker
  processes;
* kDC-t variants               — the bare theoretical Algorithm 1 on both
  backends (exact as well, merely slower).

The instances are seeded G(n, p) graphs, so failures reproduce exactly.
Tier-1 runs a compact sweep; the ``slow`` marker widens it (more seeds,
larger n, the full worker matrix) for deep local runs:
``pytest tests/test_differential.py -m slow``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    KDCSolver,
    SolverConfig,
    is_k_defective_clique,
    prepare_instance,
    variant_config,
)
from repro.graphs import gnp_random_graph

#: Sequential matrix cells: name -> config factory.
SEQUENTIAL_CELLS = {
    "set": lambda: SolverConfig(backend="set"),
    "bitset-whole": lambda: SolverConfig(backend="bitset", decompose_threshold=10**9),
    "bitset-decomposed": lambda: SolverConfig(backend="bitset", decompose_threshold=1),
}

#: kDC-t (Algorithm 1) cells: exact but unpruned, so exponential on all but
#: the smallest instances — compared on those only.
KDC_T_CELLS = {
    "kDC-t-set": lambda: replace(variant_config("kDC-t"), backend="set"),
    "kDC-t-bitset": lambda: replace(variant_config("kDC-t"), backend="bitset"),
}

#: Parallel matrix cells (forced decomposition + worker pool).
WORKER_CELLS = {
    "workers-2": lambda: SolverConfig(backend="bitset", decompose_threshold=1, workers=2),
    "workers-4": lambda: SolverConfig(backend="bitset", decompose_threshold=1, workers=4),
}


def _solve_size(graph, k, config):
    result = KDCSolver(config).solve(graph, k)
    assert result.optimal, "differential instances must be solved to optimality"
    assert is_k_defective_clique(graph, result.clique, k)
    assert result.size == len(result.clique)
    return result.size


class TestSequentialMatrix:
    """All sequential cells agree on seeded G(n, p) instances, k in 0..4."""

    @pytest.mark.parametrize("n,p,seed", [
        (30, 0.25, 0),
        (30, 0.40, 1),
        (45, 0.30, 2),
        (60, 0.20, 3),
    ])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_all_cells_agree(self, n, p, seed, k):
        graph = gnp_random_graph(n, p, seed=seed)
        sizes = {name: _solve_size(graph, k, factory())
                 for name, factory in SEQUENTIAL_CELLS.items()}
        assert len(set(sizes.values())) == 1, f"cells disagree: {sizes}"


class TestWorkerMatrix:
    """Worker pools return the same optimal size as the sequential cells."""

    @pytest.mark.parametrize("n,p,seed", [(60, 0.30, 0), (70, 0.25, 1)])
    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_workers_match_set_backend(self, n, p, seed, k):
        graph = gnp_random_graph(n, p, seed=seed)
        expected = _solve_size(graph, k, SolverConfig(backend="set"))
        for name, factory in WORKER_CELLS.items():
            assert _solve_size(graph, k, factory()) == expected, name

    def test_worker_count_does_not_change_size_across_repeats(self):
        # Worker scheduling is nondeterministic; the returned size must not be.
        graph = gnp_random_graph(55, 0.35, seed=7)
        config = SolverConfig(backend="bitset", decompose_threshold=1, workers=4)
        sizes = {_solve_size(graph, 2, config) for _ in range(3)}
        assert len(sizes) == 1

    def test_worker_solve_records_decomposition_stats(self):
        graph = gnp_random_graph(60, 0.30, seed=5)
        config = SolverConfig(backend="bitset", decompose_threshold=1, workers=2)
        result = KDCSolver(config).solve(graph, 2)
        assert result.stats.workers == 2
        assert result.stats.subproblems + result.stats.subproblems_pruned > 0


class TestPreparedMatrix:
    """``solve_prepared`` joins the matrix: prepare-once-solve-twice per cell.

    For every sequential and worker cell, one artifact is prepared and
    executed twice, and both executes must return the same optimal size as
    two fresh ``solve`` calls — pinning the compile/execute split to the
    classic path across backends, decomposition and worker pools.
    """

    @pytest.mark.parametrize("k", [1, 3])
    def test_prepared_agrees_with_fresh_in_every_cell(self, k):
        graph = gnp_random_graph(45, 0.30, seed=13)
        for name, factory in {**SEQUENTIAL_CELLS, **WORKER_CELLS}.items():
            config = factory()
            solver = KDCSolver(config)
            fresh = [_solve_size(graph, k, config) for _ in range(2)]
            prepared = prepare_instance(graph, k, config)
            repeated = []
            for _ in range(2):
                result = solver.solve_prepared(prepared)
                assert result.optimal, name
                assert is_k_defective_clique(graph, result.clique, k), name
                repeated.append(result.size)
            assert set(fresh) == set(repeated) and len(set(fresh)) == 1, (
                f"{name}: fresh {fresh} vs prepared {repeated}"
            )

    def test_prepared_kdc_t_matches(self):
        graph = gnp_random_graph(25, 0.35, seed=11)
        for name, factory in KDC_T_CELLS.items():
            config = factory()
            expected = _solve_size(graph, 2, config)
            prepared = prepare_instance(graph, 2, config)
            result = KDCSolver(config).solve_prepared(prepared)
            assert result.optimal and result.size == expected, name
            assert is_k_defective_clique(graph, result.clique, 2), name


class TestKdcTVariants:
    """kDC-t (Algorithm 1) is exact too: same sizes, on both backends."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_kdc_t_matches_full_kdc(self, k):
        graph = gnp_random_graph(25, 0.35, seed=11)
        full = _solve_size(graph, k, SolverConfig())
        for name, factory in KDC_T_CELLS.items():
            assert _solve_size(graph, k, factory()) == full, name


@pytest.mark.slow
class TestDeepDifferentialSweep:
    """Wider seeded fuzz tier: more seeds, larger n, full worker matrix."""

    @pytest.mark.parametrize("seed", list(range(8)))
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_full_matrix_agrees(self, seed, k):
        n = 40 + 10 * (seed % 5)
        p = 0.15 + 0.05 * (seed % 4)
        graph = gnp_random_graph(n, p, seed=seed)
        sizes = {name: _solve_size(graph, k, factory())
                 for name, factory in {**SEQUENTIAL_CELLS, **WORKER_CELLS}.items()}
        assert len(set(sizes.values())) == 1, f"n={n} p={p} seed={seed} k={k}: {sizes}"

    @pytest.mark.parametrize("seed", list(range(5)))
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_kdc_t_sweep(self, seed, k):
        graph = gnp_random_graph(20 + 2 * seed, 0.30 + 0.03 * seed, seed=seed)
        expected = _solve_size(graph, k, SolverConfig(backend="set"))
        for name, factory in KDC_T_CELLS.items():
            assert _solve_size(graph, k, factory()) == expected, name

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_decomposed_instances_agree(self, seed):
        graph = gnp_random_graph(160, 0.15, seed=seed)
        expected = _solve_size(graph, 3, SolverConfig(backend="set"))
        decomposed_cells = {"bitset-decomposed": SEQUENTIAL_CELLS["bitset-decomposed"]}
        for name, factory in {**WORKER_CELLS, **decomposed_cells}.items():
            assert _solve_size(graph, 3, factory()) == expected, name
