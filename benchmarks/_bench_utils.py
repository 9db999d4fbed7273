"""Helpers shared by the benchmark files.

The benchmark suite runs on the ``tiny`` synthetic collections by default so
that ``pytest benchmarks/ --benchmark-only`` finishes in minutes.  Two
environment variables widen the run:

* ``REPRO_BENCH_SCALE`` — ``tiny`` (default), ``small`` or ``medium``;
* ``REPRO_BENCH_TIME_LIMIT`` — per-instance budget in seconds (default 2.0).

Machine-readable results
------------------------
Every benchmark entry point registers its measurements with a
:class:`BenchRecorder` (via :func:`bench_recorder`); at the end of the
session — the conftest fixture for pytest runs, an ``atexit`` hook for
``python benchmarks/bench_*.py`` runs — each recorder with new rows is
flushed into the SQLite experiment store
(:class:`repro.bench.store.ExperimentStore`) as one run labelled
``bench:<name>``, so the perf trajectory (instances, wall-clock, nodes,
backend/workers) is tracked across commits.  The store is
``BENCH_trajectory.sqlite`` in the current directory unless
``REPRO_BENCH_DB`` names another file; ``repro experiments export --db
BENCH_trajectory.sqlite`` writes a run out as JSON.
"""

from __future__ import annotations

import atexit
import os
from typing import Dict, List, Optional

from repro.bench.store import ExperimentStore, split_record


def bench_scale() -> str:
    """Return the collection scale used by the benchmark suite."""
    return os.environ.get("REPRO_BENCH_SCALE", "tiny")


def bench_time_limit() -> float:
    """Return the per-instance time limit (seconds) used by the benchmark suite."""
    return float(os.environ.get("REPRO_BENCH_TIME_LIMIT", "2.0"))


class BenchRecorder:
    """Accumulates one benchmark module's measurements for the experiment store."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.records: List[Dict[str, object]] = []
        #: record count at the last flush; the conftest flush and the atexit
        #: backstop both call :meth:`write`, and only one of them should
        #: append a run to the trajectory store
        self._store_written = 0

    # ------------------------------------------------------------------ #
    def record(self, instance: str, **fields: object) -> None:
        """Append one measurement row (arbitrary flat fields)."""
        entry: Dict[str, object] = {"instance": instance}
        entry.update(fields)
        self.records.append(entry)

    def record_solve(self, instance: str, result, elapsed_seconds: Optional[float] = None,
                     **fields: object) -> None:
        """Append one row for a :class:`~repro.core.result.SolveResult`."""
        stats = result.stats
        if elapsed_seconds is None:
            elapsed_seconds = stats.elapsed_seconds
        self.record(
            instance,
            elapsed_seconds=round(float(elapsed_seconds), 6),
            size=result.size,
            optimal=result.optimal,
            nodes=stats.nodes,
            algorithm=result.algorithm,
            backend=stats.backend,
            workers=stats.workers,
            **fields,
        )

    def record_benchmark(self, instance: str, benchmark, **fields: object) -> None:
        """Append one row for a pytest-benchmark measurement (mean wall-clock)."""
        mean = None
        stats = getattr(benchmark, "stats", None)
        if stats is not None:
            try:
                mean = round(float(stats.stats.mean), 6)
            except AttributeError:
                mean = None
        self.record(instance, elapsed_seconds=mean, **fields)

    def record_experiment(self, result, elapsed_seconds: float) -> None:
        """Append the per-instance records of an ExperimentResult (or its data summary)."""
        self.record("__sweep__", elapsed_seconds=round(float(elapsed_seconds), 6))
        if result.records:
            for record in result.records:
                self.records.append(dict(record.as_dict()))
        else:
            for key, value in result.data.items():
                self.record(str(key), **(value if isinstance(value, dict) else {"value": value}))

    # ------------------------------------------------------------------ #
    def write(self) -> Optional[str]:
        """Write every recorded row to the store as one new run.

        Returns the store path, or ``None`` (and writes nothing) when no row
        arrived since the last flush.  Rows with identical keyfields replace
        each other within a run (latest measurement wins).
        """
        if len(self.records) == self._store_written:
            return None
        db_path = os.environ.get("REPRO_BENCH_DB") or "BENCH_trajectory.sqlite"
        with ExperimentStore(db_path) as store:
            run_id = store.begin_run(
                label=f"bench:{self.name}",
                meta={
                    "bench": self.name,
                    "scale": bench_scale(),
                    "time_limit": bench_time_limit(),
                },
            )
            for record in self.records:
                keyfields, resultfields, extra = split_record(record)
                store.record(run_id, keyfields, resultfields, extra=extra)
            store.finish_run(run_id, status="complete")
        self._store_written = len(self.records)
        return db_path


#: Registry of recorders, keyed by bench name; flushed at session end.
_RECORDERS: Dict[str, BenchRecorder] = {}


def bench_recorder(name: str) -> BenchRecorder:
    """Return (creating on first use) the session-wide recorder for ``name``."""
    recorder = _RECORDERS.get(name)
    if recorder is None:
        recorder = _RECORDERS[name] = BenchRecorder(name)
    return recorder


def write_all_bench_records() -> List[str]:
    """Flush every recorder with unflushed rows; return the store paths written."""
    return [path for path in (r.write() for r in _RECORDERS.values()) if path]


# ``python benchmarks/bench_*.py`` runs have no conftest fixture to flush the
# recorders, so an atexit hook is the backstop (idempotent: a recorder with
# nothing new since its last flush writes nothing).
atexit.register(write_all_bench_records)
