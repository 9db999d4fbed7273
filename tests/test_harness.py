"""Tests for the benchmark harness (solver registry, timed runs, aggregation)."""

from __future__ import annotations

import pytest

from repro.bench import (
    ALGORITHMS,
    InstanceRecord,
    count_solved,
    make_solver,
    run_collection,
    run_instance,
    solved_within,
)
from repro.baselines import KDBBSolver, MADECSolver
from repro.core import KDCSolver
from repro.datasets import get_collection
from repro.exceptions import InvalidParameterError
from repro.graphs import complete_graph, gnp_random_graph


class TestMakeSolver:
    def test_kdc_variants(self):
        for name in ("kDC", "kDC-t", "kDC/UB1", "kDC/RR3&4", "kDC-Degen"):
            solver = make_solver(name, time_limit=1.0)
            assert isinstance(solver, KDCSolver)
            assert solver.name == name

    def test_baselines(self):
        assert isinstance(make_solver("KDBB"), KDBBSolver)
        assert isinstance(make_solver("MADEC"), MADECSolver)
        assert isinstance(make_solver("MADEC+"), MADECSolver)

    def test_unknown_algorithm(self):
        with pytest.raises(InvalidParameterError):
            make_solver("simulated-annealing")

    def test_registry_names_constructible(self):
        for name in ALGORITHMS:
            make_solver(name)


class TestRunInstance:
    def test_record_fields(self):
        g = complete_graph(6)
        record = run_instance("kDC", g, 1, time_limit=5.0, collection="c", instance="k6")
        assert record.solved
        assert record.size == 6
        assert record.algorithm == "kDC"
        assert record.collection == "c"
        assert record.instance == "k6"
        assert record.elapsed_seconds >= 0.0
        data = record.as_dict()
        assert data["k"] == 1 and data["solved"] is True

    def test_unsolved_when_budget_tiny(self):
        g = gnp_random_graph(150, 0.3, seed=1)
        record = run_instance("MADEC", g, 4, time_limit=0.01)
        assert record.elapsed_seconds <= 2.0
        # whether it solved depends on the machine, but the record must be consistent
        assert record.size >= 1


class TestRunCollection:
    def test_runs_every_combination(self):
        instances = get_collection("dimacs_snap_like", scale="tiny")[:2]
        algorithms = ("kDC", "KDBB")
        k_values = (1,)
        records = run_collection(algorithms, instances, k_values, time_limit=5.0)
        assert len(records) == len(instances) * len(algorithms) * len(k_values)
        assert {r.algorithm for r in records} == set(algorithms)


class TestAggregation:
    def _record(self, algorithm, k, solved, elapsed=0.1):
        return InstanceRecord(
            algorithm=algorithm,
            collection="c",
            instance="i",
            k=k,
            solved=solved,
            size=3,
            elapsed_seconds=elapsed,
            nodes=10,
        )

    def test_count_solved(self):
        records = [
            self._record("kDC", 1, True),
            self._record("kDC", 1, True),
            self._record("kDC", 1, False),
            self._record("KDBB", 1, True),
        ]
        table = count_solved(records)
        assert table["kDC"][1] == 2
        assert table["KDBB"][1] == 1

    def test_solved_within(self):
        records = [
            self._record("kDC", 1, True, elapsed=0.05),
            self._record("kDC", 1, True, elapsed=2.0),
        ]
        assert solved_within(records, 0.1)["kDC"][1] == 1
        assert solved_within(records, 10.0)["kDC"][1] == 2
