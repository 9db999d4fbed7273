"""Tests for k-core and k-truss extraction."""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    complete_graph,
    core_reduce_in_place,
    cycle_graph,
    gnp_random_graph,
    k_core,
    k_core_vertices,
    k_truss,
    k_truss_edges,
    powerlaw_cluster_graph,
    star_graph,
    truss_reduce_in_place,
)

truss_module = importlib.import_module("repro.graphs.truss")


def _rows(graph):
    """A copy of ``graph``'s adjacency rows, for the in-place reductions."""
    return {v: set(graph.neighbors(v)) for v in graph}


class TestKCore:
    def test_kcore_of_complete_graph(self):
        g = complete_graph(5)
        assert k_core_vertices(g, 4) == set(range(5))
        assert k_core_vertices(g, 5) == set()

    def test_kcore_zero_returns_everything(self):
        g = star_graph(4)
        assert k_core_vertices(g, 0) == g.vertex_set()
        assert k_core_vertices(g, -3) == g.vertex_set()

    def test_star_has_no_2core(self):
        g = star_graph(5)
        assert k_core_vertices(g, 2) == set()

    def test_cycle_is_its_own_2core(self):
        g = cycle_graph(6)
        assert k_core_vertices(g, 2) == g.vertex_set()
        assert k_core_vertices(g, 3) == set()

    def test_figure2_cores(self, fig2):
        # Paper: the entire graph is a 3-core; removing v7 gives a 4-core.
        assert k_core_vertices(fig2, 3) == fig2.vertex_set()
        assert k_core_vertices(fig2, 4) == fig2.vertex_set() - {7}
        assert k_core_vertices(fig2, 5) == set()

    def test_kcore_returns_induced_subgraph(self):
        g = complete_graph(4)
        g.add_edge(0, 4)  # pendant
        core = k_core(g, 3)
        assert core.vertex_set() == {0, 1, 2, 3}
        assert core.num_edges == 6

    def test_core_reduce_in_place(self):
        g = complete_graph(4)
        g.add_edge(0, 4)
        rows = _rows(g)
        removed = core_reduce_in_place(rows, 3)
        assert removed == {4}
        assert len(rows) == 4

    def test_kcore_minimum_degree_property(self):
        g = gnp_random_graph(40, 0.15, seed=3)
        for k in (1, 2, 3, 4):
            core = k_core(g, k)
            for v in core:
                assert core.degree(v) >= k

    def test_kcore_is_maximal(self):
        # No vertex outside the k-core can be added while keeping min degree >= k:
        # verify by checking that the peeling of the complement eventually
        # empties, i.e. re-running extraction on the full graph is idempotent.
        g = gnp_random_graph(40, 0.2, seed=4)
        core1 = k_core_vertices(g, 3)
        core2 = k_core_vertices(g.subgraph(core1), 3)
        assert core1 == core2


class TestKTruss:
    def test_truss_of_complete_graph(self):
        g = complete_graph(5)
        # Every edge of K5 lies in 3 triangles, so the 5-truss is the whole graph.
        assert len(k_truss_edges(g, 5)) == 10
        assert k_truss_edges(g, 6) == set()

    def test_truss_small_k_keeps_all_edges(self):
        g = cycle_graph(5)
        assert len(k_truss_edges(g, 2)) == g.num_edges
        assert len(k_truss_edges(g, 0)) == g.num_edges

    def test_triangle_free_graph_has_no_3truss(self):
        g = cycle_graph(6)
        assert k_truss_edges(g, 3) == set()

    def test_figure2_truss_structure(self, fig2):
        # Paper: the whole graph is a 3-truss; the 4-truss removes v7's edges;
        # the subgraph on {v8..v12} is a 5-truss.
        assert len(k_truss_edges(fig2, 3)) == fig2.num_edges
        four_truss = k_truss(fig2, 4)
        assert 7 not in four_truss.vertex_set()
        five_truss = k_truss(fig2, 5)
        assert five_truss.vertex_set() == {8, 9, 10, 11, 12}

    def test_truss_support_property(self):
        g = gnp_random_graph(30, 0.3, seed=5)
        for k in (3, 4):
            truss = k_truss(g, k)
            for u, v in truss.iter_edges():
                assert len(truss.common_neighbors(u, v)) >= k - 2

    def test_truss_is_subgraph_of_core(self):
        g = gnp_random_graph(30, 0.3, seed=6)
        truss_vertices = k_truss(g, 4).vertex_set()
        core_vertices = k_core_vertices(g, 3)
        assert truss_vertices <= core_vertices

    def test_truss_reduce_in_place(self):
        g = complete_graph(4)
        g.add_edge(0, 4)  # edge in no triangle
        rows = _rows(g)
        removed = truss_reduce_in_place(rows, 3)
        assert removed == 1
        assert 4 not in rows
        assert sum(map(len, rows.values())) // 2 == 6

    @given(st.integers(min_value=1, max_value=16), st.floats(min_value=0.0, max_value=0.8),
           st.integers(min_value=0, max_value=500), st.integers(min_value=3, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_truss_idempotent(self, n, p, seed, k):
        g = gnp_random_graph(n, p, seed=seed)
        once = k_truss(g, k)
        twice = k_truss(once, k)
        assert set(map(frozenset, once.iter_edges())) == set(map(frozenset, twice.iter_edges()))


def reference_truss(rows, k):
    """The k-truss by the definition: recount every edge until none is below ``k - 2``.

    Deletes by ``discard`` and drops emptied rows, as the in-place peel
    does; returns the number of edges deleted.
    """
    removed = 0
    changed = k > 2
    while changed:
        changed = False
        for u, row in rows.items():
            for v in [v for v in row if v > u and len(row & rows[v]) < k - 2]:
                row.discard(v)
                rows[v].discard(u)
                removed += 1
                changed = True
    for v in [v for v, nbrs in rows.items() if not nbrs]:
        del rows[v]
    return removed


def _layout(rows):
    """Keys in order, each row in iteration order."""
    return [(v, list(nbrs)) for v, nbrs in rows.items()]


REFERENCE_GRAPHS = {
    "sparse-gnp": lambda seed: gnp_random_graph(80, 0.08, seed=seed),
    "dense-gnp": lambda seed: gnp_random_graph(40, 0.5, seed=seed),
    "powerlaw": lambda seed: powerlaw_cluster_graph(300, 6, 0.3, seed=seed),
}


class TestTrussAgainstReferencePeel:
    """The sweep, its degree cascade and the queue peel leave what the definition leaves."""

    @pytest.fixture
    def cascades(self, monkeypatch):
        """The vertices each cascade starts from, in order."""
        starts = []
        cascade = truss_module._cascade

        def recording(rows, threshold, start, support, touched):
            starts.append(start)
            return cascade(rows, threshold, start, support, touched)

        monkeypatch.setattr(truss_module, "_cascade", recording)
        return starts

    @pytest.mark.parametrize("shape", sorted(REFERENCE_GRAPHS))
    @pytest.mark.parametrize("k", range(3, 9))
    def test_same_rows_layout_and_count(self, shape, k, cascades):
        mid_sweep = 0
        for seed in range(3):
            graph = REFERENCE_GRAPHS[shape](seed)
            rows, twin = _rows(graph), _rows(graph)
            assert _layout(rows) == _layout(twin)
            del cascades[:]
            removed = truss_reduce_in_place(rows, k)
            assert removed == reference_truss(twin, k)
            assert _layout(rows) == _layout(twin)
            mid_sweep += sum(graph.degree(v) > k - 2 for v in cascades)
        if shape == "powerlaw":
            # Vertices that started above k - 2 neighbours and fell to it.
            assert mid_sweep

    def test_cascade_fires_mid_sweep(self, cascades):
        # K5 on 0..4 plus the 4-cycle 5-6-7-8 with chords 0-5 and 0-6.  At
        # k = 4, row 0 counts 0-5 and 0-6 in one triangle each and deletes
        # them, which leaves 5 with k - 2 = 2 neighbours: the cascade takes
        # the whole cycle without counting it.
        g = complete_graph(5)
        for u, v in [(5, 6), (6, 7), (7, 8), (8, 5), (0, 5), (0, 6)]:
            g.add_edge(u, v)
        rows, twin = _rows(g), _rows(g)
        assert truss_reduce_in_place(rows, 4) == reference_truss(twin, 4) == 6
        assert _layout(rows) == _layout(twin)
        assert sorted(rows) == [0, 1, 2, 3, 4]
        assert cascades[0] == 5 and g.degree(5) == 3

    @pytest.mark.parametrize("polls_before_raise", [0, 1, 3, 6])
    def test_budget_raised_mid_sweep_leaves_symmetric_rows_holding_the_truss(
        self, monkeypatch, polls_before_raise
    ):
        monkeypatch.setattr(truss_module, "_BUDGET_STRIDE", 64)
        graph = powerlaw_cluster_graph(300, 6, 0.3, seed=1)
        truss = _rows(graph)
        reference_truss(truss, 5)
        rows = _rows(graph)
        polls = []

        def budget_check():
            polls.append(None)
            if len(polls) > polls_before_raise:
                raise TimeoutError

        with pytest.raises(TimeoutError) as info:
            truss_reduce_in_place(rows, 5, budget_check=budget_check)
        assert any(entry.name == "_sweep" for entry in info.traceback)
        for u, nbrs in rows.items():
            assert u not in nbrs
            assert all(u in rows[v] for v in nbrs)
        for u, nbrs in truss.items():
            assert nbrs <= rows[u]
        assert sum(map(len, rows.values())) > sum(map(len, truss.values()))
