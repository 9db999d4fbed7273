"""Set-vs-bitset backend comparison.

Companion to ``bench_solver_micro.py``: the same solver is timed once with
the dict/set :class:`SearchState` backend and once with the bitset fast path
(packed adjacency bitmaps plus the degeneracy decomposition), so the
``bench:backend_compare`` runs of the experiment store track the backend
speedup over time.

Observed on this class (1-CPU dev box): ~5-7x on G(n, p) with n >= 200,
~2-3x on the denser facebook-like instances where reductions shrink states
quickly.
"""

from __future__ import annotations

import time

from repro.core import KDCSolver, SolverConfig
from repro.datasets import get_collection
from repro.graphs import gnp_random_graph

from _bench_utils import bench_recorder

_RECORDER = bench_recorder("backend_compare")


def _socfb_graph():
    """An n >= 200 facebook-like instance (the denser comparison class)."""
    instances = get_collection("facebook_like", scale="small")
    return [inst.graph for inst in instances if inst.graph.num_vertices >= 200][-1]


#: (name, graph factory, k) — the n >= 200 comparison instances.
_CASES = (
    ("gnp_200_015", lambda: gnp_random_graph(200, 0.15, seed=1), 3),
    ("gnp_250_015", lambda: gnp_random_graph(250, 0.15, seed=3), 3),
    ("socfb_like", _socfb_graph, 3),
)

def _solve(graph, k, backend, time_limit=120.0):
    return KDCSolver(SolverConfig(backend=backend, time_limit=time_limit)).solve(graph, k)


def test_bench_set_backend_gnp200(benchmark):
    graph = _CASES[0][1]()
    result = benchmark.pedantic(lambda: _solve(graph, 3, "set"), rounds=1, iterations=1)
    assert result.optimal


def test_bench_bitset_backend_gnp200(benchmark):
    graph = _CASES[0][1]()
    result = benchmark.pedantic(lambda: _solve(graph, 3, "bitset"), rounds=1, iterations=1)
    assert result.optimal


def test_bench_bitset_backend_reference(benchmark, reference_graph):
    result = benchmark(lambda: _solve(reference_graph, 3, "bitset"))
    assert result.optimal


def test_bench_set_backend_reference(benchmark, reference_graph):
    result = benchmark(lambda: _solve(reference_graph, 3, "set"))
    assert result.optimal


def test_backend_speedup_report(capsys):
    """Time both backends on every case, assert agreement, report speedups."""
    speedups = []
    for name, factory, k in _CASES:
        graph = factory()
        start = time.perf_counter()
        set_result = _solve(graph, k, "set")
        set_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        bitset_result = _solve(graph, k, "bitset")
        bitset_elapsed = time.perf_counter() - start

        assert set_result.optimal and bitset_result.optimal
        assert set_result.size == bitset_result.size, name
        assert bitset_result.stats.backend == "bitset"
        speedup = set_elapsed / bitset_elapsed if bitset_elapsed > 0 else float("inf")
        speedups.append(speedup)
        _RECORDER.record_solve(name, set_result, set_elapsed, k=k, column="set")
        _RECORDER.record_solve(name, bitset_result, bitset_elapsed, k=k,
                               column="bitset", speedup_vs_set=round(speedup, 3))
        with capsys.disabled():
            print(
                f"\n[backend-compare] {name} k={k}: set {set_elapsed:.2f}s, "
                f"bitset {bitset_elapsed:.2f}s, speedup {speedup:.1f}x"
            )

    # The bitset fast path must be decisively faster on this class; the
    # threshold is deliberately below the ~5-6x typically observed so the
    # benchmark stays robust on slow or noisy machines.
    assert max(speedups) >= 3.0

