"""Tests for the maximum k-defective clique property analyses (Tables 5-7 machinery)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    DefectiveCliqueProperties,
    aggregate_properties,
    analyze_graph,
    extends_maximum_clique,
    fraction_not_fully_connected,
    size_ratio,
)
from repro.core import SolverConfig
from repro.graphs import Graph, complete_graph, cycle_graph, gnp_random_graph


class TestPrimitives:
    def test_size_ratio(self):
        assert size_ratio(6, 4) == pytest.approx(1.5)
        assert size_ratio(0, 0) == 0.0

    def test_extends_maximum_clique_true(self):
        g = complete_graph(4)
        g.add_edge(0, 4)
        # the 1-defective clique {0,1,2,3,4} contains the maximum clique {0,1,2,3}
        assert extends_maximum_clique(g, [0, 1, 2, 3, 4], 4)

    def test_extends_maximum_clique_false(self):
        # Two disjoint triangles plus an extra vertex attached to one of them:
        # a k-defective clique inside the *other* triangle does not contain a
        # maximum clique of size 3... (both triangles are max cliques) so use
        # a set that is simply too small.
        g = complete_graph(3)
        assert not extends_maximum_clique(g, [0, 1], 3)

    def test_extends_maximum_clique_trivial_cases(self):
        g = Graph(vertices=[0])
        assert extends_maximum_clique(g, [], 0)

    def test_fraction_not_fully_connected(self):
        g = cycle_graph(4)
        # every vertex of the 4-cycle misses its diagonal partner
        assert fraction_not_fully_connected(g, [0, 1, 2, 3]) == 1.0
        assert fraction_not_fully_connected(g, [0, 1]) == 0.0
        assert fraction_not_fully_connected(g, []) == 0.0

    def test_fraction_mixed(self):
        g = complete_graph(4)
        g.add_edge(0, 4)  # vertex 4 adjacent only to 0
        clique = [0, 1, 2, 3, 4]
        # vertices 1, 2, 3 and 4 all have a missing neighbour (towards 4 / from 4)
        assert fraction_not_fully_connected(g, clique) == pytest.approx(4 / 5)


class TestAnalyzeGraph:
    def test_complete_graph(self):
        record = analyze_graph(complete_graph(5), 2, graph_name="k5")
        assert record.max_clique_size == 5
        assert record.max_defective_clique_size == 5
        assert record.size_ratio == 1.0
        assert record.extends_max_clique
        assert record.fraction_not_fully_connected == 0.0
        assert record.solved

    def test_cycle_graph(self):
        record = analyze_graph(cycle_graph(6), 1, graph_name="c6")
        assert record.max_clique_size == 2
        assert record.max_defective_clique_size == 3
        assert record.size_ratio == pytest.approx(1.5)

    def test_random_graph_ratios_at_least_one(self):
        g = gnp_random_graph(20, 0.3, seed=1)
        record = analyze_graph(g, 2)
        assert record.size_ratio >= 1.0
        assert 0.0 <= record.fraction_not_fully_connected <= 1.0

    def test_one_budget_covers_every_solve(self):
        g = gnp_random_graph(120, 0.3, seed=4)
        # ``config``'s budget (none) overrides ``time_limit`` for ω too.
        record = analyze_graph(g, 2, config=SolverConfig(), time_limit=1e-6)
        assert record.max_clique_size == 7
        assert record.max_defective_clique_size == 8
        assert record.solved
        assert not analyze_graph(g, 2, time_limit=1e-6).solved


class TestAggregation:
    def _record(self, ratio, extends, fraction, solved=True):
        return DefectiveCliqueProperties(
            graph_name="g",
            k=1,
            max_clique_size=4,
            max_defective_clique_size=int(4 * ratio),
            size_ratio=ratio,
            extends_max_clique=extends,
            fraction_not_fully_connected=fraction,
            solved=solved,
        )

    def test_aggregate_basic(self):
        records = [self._record(1.0, True, 0.0), self._record(1.5, False, 0.5)]
        agg = aggregate_properties(records)
        assert agg["count"] == 2
        assert agg["avg_ratio"] == pytest.approx(1.25)
        assert agg["max_ratio"] == pytest.approx(1.5)
        assert agg["num_extending_max_clique"] == 1
        assert agg["avg_pct_not_fully_connected"] == pytest.approx(25.0)

    def test_unsolved_records_excluded(self):
        records = [self._record(1.0, True, 0.0), self._record(3.0, True, 1.0, solved=False)]
        agg = aggregate_properties(records)
        assert agg["count"] == 1
        assert agg["max_ratio"] == pytest.approx(1.0)

    def test_empty_aggregation(self):
        agg = aggregate_properties([])
        assert agg["count"] == 0
        assert agg["avg_ratio"] == 0.0
