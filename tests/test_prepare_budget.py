"""Budget polls inside the prepare loops: the RR5 peel, the RR6 sweep and peel, Degen's scan.

The preprocessing budget tests of ``tests/test_reductions.py`` use graphs of
30-40 vertices, which finish under every poll stride, so only the polls at
phase boundaries ever run there.  These tests use graphs above the strides
(``powerlaw_cluster_graph(1500, 10, .3)`` has 1,500 vertices and about 14.9k
edges; Degen's scan, which polls every 2,048 vertices, gets 2,500) and
budgets that fire only once the phase-boundary polls are behind them, so
each one fails if the poll inside its loop is removed.
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.baselines import KDBBSolver
from repro.core import KDCSolver, SolverConfig, degen_opt, prepare_instance
from repro.core import reductions
from repro.exceptions import BudgetExceededError
from repro.graphs import powerlaw_cluster_graph
from repro.graphs.graph import rows_of


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(1500, 10, 0.3, seed=1)


def _rows(graph):
    return rows_of(graph.relabel()[0])


def _edges(rows):
    return sum(map(len, rows.values())) // 2


def _fires_from_call(n):
    """A budget that raises on its ``n``-th poll and every later one."""
    calls = []

    def check():
        calls.append(None)
        if len(calls) >= n:
            raise BudgetExceededError("deadline")

    return check


def _fires_in(function_name):
    """A budget that raises when polled from inside the function so named.

    The truss sweep and peel both delete edges, so which one polled is told
    apart by the poll's caller rather than by the rows.
    """

    def check():
        if sys._getframe(1).f_code.co_name == function_name:
            raise BudgetExceededError("deadline")

    return check


class TestPollsInsideThePeels:
    def test_rr5_peel_polls(self, graph):
        rows = _rows(graph)
        # Poll 1 is the phase boundary before RR5; the (30 - 0)-core is
        # empty, so the peel walks every edge.
        with pytest.raises(BudgetExceededError):
            reductions.preprocess_graph(
                rows, k=0, lower_bound=30, use_rr6=False, budget_check=_fires_from_call(2)
            )
        assert 0 < len(rows) < graph.num_vertices  # stopped part way through the peel

    def test_rr6_support_sweep_polls(self, graph):
        rows = _rows(graph)
        # The phase-boundary polls come from preprocess_graph itself.
        with pytest.raises(BudgetExceededError):
            reductions.preprocess_graph(
                rows, k=0, lower_bound=3, use_rr5=False, budget_check=_fires_in("_sweep")
            )

    def test_rr6_peel_polls(self, graph):
        rows = _rows(graph)
        truss = _rows(graph)
        reductions.preprocess_graph(truss, k=0, lower_bound=3, use_rr5=False)
        # A 4-truss: the sweep deletes the edges it counts in fewer than two
        # triangles, and the peel, recounting and deleting the rest, runs past
        # its poll stride.
        with pytest.raises(BudgetExceededError):
            reductions.preprocess_graph(
                rows, k=0, lower_bound=3, use_rr5=False, budget_check=_fires_in("_peel")
            )
        assert _edges(truss) < _edges(rows)  # stopped part way through

    def test_degen_suffix_scan_polls(self):
        # With k this large, Degen's suffix is the whole ordering, longer than
        # the 2,048-step poll stride; the budget stops it at the first poll.
        graph = powerlaw_cluster_graph(2500, 3, 0.3, seed=3)
        k = graph.num_vertices ** 2
        assert len(degen_opt(graph, k)) == graph.num_vertices
        assert len(degen_opt(graph, k, budget_check=_fires_from_call(1))) == 2048


def _solve_tripped_inside_rr6(solver, graph, monkeypatch):
    """``solver.solve(graph, 3)`` with the time limit running out as RR6 starts."""
    real_truss = reductions.truss_reduce_in_place
    raised = []

    def truss_after_deadline(rows, k, budget_check=None):
        # The run's time limit runs out just as RR6 starts, so the first
        # poll to see it is one inside the truss peel.
        budget_check.__self__.deadline = time.perf_counter() - 1.0
        try:
            return real_truss(rows, k, budget_check=budget_check)
        except BudgetExceededError:
            raised.append(None)
            raise

    monkeypatch.setattr(reductions, "truss_reduce_in_place", truss_after_deadline)
    result = solver.solve(graph, 3)
    monkeypatch.undo()
    assert raised, "the budget did not fire inside RR6"
    return result


def _assert_heuristic_incumbent_not_optimal(result, graph, config):
    assert not result.optimal
    prepared = prepare_instance(graph, 3, config, compute_digest=False)
    assert result.clique == sorted(prepared.to_label[v] for v in prepared.heuristic)
    assert result.stats.initial_solution_size == len(prepared.heuristic)


class TestSolveTrippedInsideRR6:
    def test_returns_heuristic_incumbent_not_optimal(self, graph, monkeypatch):
        solver = KDCSolver(SolverConfig(time_limit=60.0))
        result = _solve_tripped_inside_rr6(solver, graph, monkeypatch)
        _assert_heuristic_incumbent_not_optimal(result, graph, SolverConfig())

    def test_kdbb_returns_heuristic_incumbent_not_optimal(self, graph, monkeypatch):
        # The baselines prepare through prepare_instance under the same budget.
        solver = KDBBSolver(time_limit=60.0)
        result = _solve_tripped_inside_rr6(solver, graph, monkeypatch)
        _assert_heuristic_incumbent_not_optimal(result, graph, solver.config)
