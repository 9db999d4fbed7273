"""Amortisation of the prepare phase through the solver service.

The service's whole value proposition is that one graph interrogated many
times pays the prepare cost (relabel + heuristic + RR5/RR6 preprocessing +
degeneracy order) once instead of per query, and that repeated queries are
answered from the result cache without any search at all.  This benchmark
measures both effects on one G(n, p) instance:

* ``fresh``   — every query is a full ``KDCSolver.solve`` (the pre-service
  baseline);
* ``service`` — the same query stream through one :class:`SolverService`
  (first query per ``k`` prepares + solves, repeats are cache hits).

Recorded as a ``bench:service`` store run: per-mode wall-clock, the service's
prepare/cache counters, and the request-level phase timings of a first-touch
and a cache-hit answer.  The queries are tiny, so this rides along in the
tier-1 run in well under a second.

Environment knobs: ``REPRO_BENCH_SERVICE_N`` (default 120) resizes the
instance.
"""

from __future__ import annotations

import os
import time

from repro.bench.harness import InstanceRecord
from repro.core import KDCSolver
from repro.graphs import gnp_random_graph
from repro.service import SolverService

from _bench_utils import bench_recorder

_RECORDER = bench_recorder("service")

#: (k, repeats) of the query stream — every k is asked several times, which
#: is exactly the traffic shape the result cache exists for.
QUERY_STREAM = ((1, 3), (2, 3))


def _instance():
    n = int(os.environ.get("REPRO_BENCH_SERVICE_N", "120"))
    return gnp_random_graph(n, 0.08, seed=11)


def test_service_amortisation_report(capsys):
    """Same query stream, fresh-per-query vs through the service; sizes must agree."""
    graph = _instance()
    name = f"gnp_{graph.num_vertices}"
    queries = [k for k, repeats in QUERY_STREAM for _ in range(repeats)]

    solver = KDCSolver()
    start = time.perf_counter()
    fresh_sizes = [solver.solve(graph, k).size for k in queries]
    fresh_elapsed = time.perf_counter() - start

    with SolverService() as service:
        digest = service.store.add(graph, name=name)
        start = time.perf_counter()
        results = [service.solve(digest, k) for k in queries]
        service_elapsed = time.perf_counter() - start
        counters = service.stats()

    service_sizes = [r.size for r in results]
    assert service_sizes == fresh_sizes, (fresh_sizes, service_sizes)
    assert all(r.optimal for r in results)

    first, repeat = results[0], results[1]
    assert not first.stats.cache_hit
    assert repeat.stats.cache_hit
    assert counters["solves"] == len(QUERY_STREAM)  # one engine run per distinct k
    assert counters["cache_hits"] == len(queries) - len(QUERY_STREAM)

    first_record = InstanceRecord.from_result(first, algorithm="kDC", instance=name)
    repeat_record = InstanceRecord.from_result(repeat, algorithm="kDC", instance=name)
    _RECORDER.record(
        name,
        elapsed_seconds=round(service_elapsed, 6),
        fresh_elapsed_seconds=round(fresh_elapsed, 6),
        queries=len(queries),
        solves=counters["solves"],
        cache_hits=counters["cache_hits"],
        prepares=counters["prepares"],
        first_prepare_ms=round(first_record.prepare_ms, 3),
        first_solve_ms=round(first_record.solve_ms, 3),
        repeat_cache_hit=repeat_record.cache_hit,
    )

    with capsys.disabled():
        print(
            f"\n[service] n={graph.num_vertices} queries={len(queries)}: "
            f"fresh {fresh_elapsed:.3f}s vs service {service_elapsed:.3f}s "
            f"(solves={counters['solves']}, cache_hits={counters['cache_hits']}, "
            f"prepares={counters['prepares']})"
        )


if __name__ == "__main__":  # pragma: no cover — ad-hoc runs
    graph = _instance()
    queries = [k for k, repeats in QUERY_STREAM for _ in range(repeats)]
    start = time.perf_counter()
    fresh = [KDCSolver().solve(graph, k).size for k in queries]
    fresh_elapsed = time.perf_counter() - start
    with SolverService() as service:
        digest = service.store.add(graph)
        start = time.perf_counter()
        sizes = [service.solve(digest, k).size for k in queries]
        service_elapsed = time.perf_counter() - start
        print(f"fresh={fresh_elapsed:.3f}s service={service_elapsed:.3f}s sizes={sizes}")
        assert sizes == fresh
        print(service.stats())
