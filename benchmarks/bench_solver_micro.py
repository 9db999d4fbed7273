"""Micro-benchmarks of the solver and its substrates on a fixed reference graph.

These are conventional pytest-benchmark timings (multiple rounds) for the
pieces whose per-call cost determines the practical performance discussed in
Section 3.2.3: the full solve, the initial-solution heuristics, the
preprocessing reductions and the decomposition substrates.
"""

from __future__ import annotations

from repro.core import KDCSolver, SolverConfig, degen, degen_opt
from repro.core.reductions import preprocess_graph
from repro.graphs import degeneracy_ordering, greedy_coloring, k_core, k_truss
from repro.graphs.graph import rows_of

from _bench_utils import bench_recorder

_RECORDER = bench_recorder("solver_micro")


def test_bench_kdc_solve_k1(benchmark, reference_graph):
    solver = KDCSolver(SolverConfig(time_limit=30.0))
    result = benchmark(lambda: solver.solve(reference_graph, 1))
    assert result.optimal
    _RECORDER.record_solve("reference_k1", result, k=1)


def test_bench_kdc_solve_k3(benchmark, reference_graph):
    solver = KDCSolver(SolverConfig(time_limit=60.0))
    result = benchmark.pedantic(lambda: solver.solve(reference_graph, 3), rounds=1, iterations=1)
    assert result.optimal
    _RECORDER.record_solve("reference_k3", result, k=3)


def test_bench_degen(benchmark, reference_graph):
    solution = benchmark(lambda: degen(reference_graph, 3))
    assert solution
    _RECORDER.record_benchmark("degen", benchmark, size=len(solution))


def test_bench_degen_opt(benchmark, reference_graph):
    solution = benchmark(lambda: degen_opt(reference_graph, 3))
    assert len(solution) >= len(degen(reference_graph, 3))


def test_bench_preprocessing(benchmark, reference_graph):
    lb = len(degen_opt(reference_graph, 3))

    def run():
        # Prepare's own route onto the rows: relabel, then peel them in place.
        rows = rows_of(reference_graph.relabel()[0])
        preprocess_graph(rows, 3, lb, use_rr5=True, use_rr6=True)
        return rows

    reduced = benchmark(run)
    assert len(reduced) <= reference_graph.num_vertices


def test_bench_degeneracy_ordering(benchmark, reference_graph):
    result = benchmark(lambda: degeneracy_ordering(reference_graph))
    assert len(result.ordering) == reference_graph.num_vertices
    _RECORDER.record_benchmark("degeneracy_ordering", benchmark)


def test_bench_greedy_coloring(benchmark, reference_graph):
    colors = benchmark(lambda: greedy_coloring(reference_graph))
    assert len(colors) == reference_graph.num_vertices


def test_bench_k_core(benchmark, reference_graph):
    core = benchmark(lambda: k_core(reference_graph, 5))
    assert core.num_vertices <= reference_graph.num_vertices


def test_bench_k_truss(benchmark, reference_graph):
    truss = benchmark(lambda: k_truss(reference_graph, 4))
    assert truss.num_edges <= reference_graph.num_edges
