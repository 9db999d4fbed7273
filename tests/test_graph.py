"""Unit tests for the Graph data structure."""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EdgeNotFoundError, GraphError, SelfLoopError, VertexNotFoundError
from repro.graphs import Graph, complete_graph

VERTICES = st.integers(0, 7)
EDGES = st.tuples(VERTICES, VERTICES).filter(lambda e: e[0] != e[1])


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_from_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_from_adjacency(self):
        g = Graph.from_adjacency({0: [1, 2], 1: [2], 3: []})
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.degree(3) == 0

    def test_vertices_only(self):
        g = Graph(vertices=range(5))
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_complete(self):
        g = Graph.complete(5)
        assert g.num_vertices == 5
        assert g.num_edges == 10
        assert g.is_clique()

    def test_empty_classmethod(self):
        g = Graph.empty(4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_duplicate_edges_collapse(self):
        g = Graph(edges=[(0, 1), (0, 1), (1, 0)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(SelfLoopError):
            g.add_edge(3, 3)

    def test_copy_is_independent(self):
        g = Graph(edges=[(0, 1)])
        h = g.copy()
        h.add_edge(1, 2)
        assert g.num_vertices == 2
        assert h.num_vertices == 3
        assert g.num_edges == 1

    def test_repr(self):
        g = Graph(edges=[(0, 1)])
        assert "n=2" in repr(g) and "m=1" in repr(g)

    def test_equality(self):
        a = Graph(edges=[(0, 1), (1, 2)])
        b = Graph(edges=[(1, 2), (0, 1)])
        c = Graph(edges=[(0, 1)])
        assert a == b
        assert a != c
        assert (a == 42) is False or (a.__eq__(42) is NotImplemented)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())

    def test_copy_deep_copies_isolated_vertex_adjacency(self):
        # regression: a write to a row shared at copy time never reaches the
        # source, even for vertices that have no neighbours at copy time
        g = Graph(vertices=[0, 1])
        h = g.copy()
        h.add_edge(0, 1)
        assert h.has_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.degree(0) == 0 and g.degree(1) == 0


class TestCopyOnWriteIsolation:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_no_write_reaches_another_graph(self, data):
        """Copies share rows until a write: random interleavings of copies and
        mutators over graphs copied from one another keep each graph equal
        to its own edge-set model, valid, and digesting like a fresh build."""
        first = data.draw(st.lists(EDGES, max_size=12))
        graphs = [Graph(edges=first, vertices=[0])]
        models = [({0, *(v for e in first for v in e)}, {frozenset(e) for e in first})]
        for _ in range(data.draw(st.integers(1, 25))):
            i = data.draw(st.integers(0, len(graphs) - 1))
            graph, (vertices, edges) = graphs[i], models[i]
            present = sorted(tuple(sorted(e)) for e in edges)
            op = data.draw(st.sampled_from(
                ["copy", "copy.copy", "add_vertex", "add_edge", "remove_edge", "remove_vertex",
                 "update_edges"]
            ))
            if op in ("copy", "copy.copy"):
                graphs.append(graph.copy() if op == "copy" else copy.copy(graph))
                models.append((set(vertices), set(edges)))
            elif op == "add_vertex":
                v = data.draw(VERTICES)
                graph.add_vertex(v)
                vertices.add(v)
            elif op == "add_edge":
                u, v = data.draw(EDGES)
                graph.add_edge(u, v)
                vertices.update((u, v))
                edges.add(frozenset((u, v)))
            elif op == "remove_edge" and present:
                u, v = data.draw(st.sampled_from(present))
                graph.remove_edge(u, v)
                edges.discard(frozenset((u, v)))
            elif op == "remove_vertex" and vertices:
                v = data.draw(st.sampled_from(sorted(vertices)))
                graph.remove_vertex(v)
                vertices.discard(v)
                edges -= {e for e in edges if v in e}
            elif op == "update_edges":
                removes = data.draw(st.lists(st.sampled_from(present), unique=True)) if present else []
                adds = data.draw(st.lists(EDGES, max_size=3))
                graph.update_edges(adds=adds, removes=removes)
                edges -= {frozenset(e) for e in removes}
                edges |= {frozenset(e) for e in adds}
                vertices.update(v for e in adds for v in e)
            for graph, (vertices, edges) in zip(graphs, models):
                fresh = Graph(edges=[tuple(e) for e in edges], vertices=vertices)
                assert graph == fresh
                graph.validate()
                assert graph.content_digest() == fresh.content_digest()


class TestContentDigest:
    def test_stable_under_insertion_order(self):
        a = Graph()
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            a.add_edge(u, v)
        b = Graph()
        for u, v in [(2, 3), (0, 2), (2, 1), (1, 0)]:
            b.add_edge(u, v)
        assert a.content_digest() == b.content_digest()

    def test_is_a_hex_sha256(self):
        digest = Graph(edges=[(0, 1)]).content_digest()
        assert len(digest) == 64
        int(digest, 16)  # hex-decodable

    def test_changes_on_edge_add_and_remove(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        before = g.content_digest()
        g.add_edge(0, 2)
        added = g.content_digest()
        assert added != before
        g.remove_edge(0, 2)
        assert g.content_digest() == before

    def test_isolated_vertices_matter(self):
        a = Graph(edges=[(0, 1)])
        b = Graph(edges=[(0, 1)])
        b.add_vertex(2)
        assert a.content_digest() != b.content_digest()

    def test_label_types_are_distinguished(self):
        # "1" (str) and 1 (int) are different graphs, and must not collide
        a = Graph(edges=[(0, 1)])
        b = Graph(edges=[(0, "1")])
        assert a.content_digest() != b.content_digest()

    def test_matches_equal_graphs_only(self):
        a = Graph(edges=[(0, 1), (1, 2)])
        b = Graph(edges=[(1, 2), (0, 1)])
        c = Graph(edges=[(0, 1), (0, 2)])
        assert a == b and a.content_digest() == b.content_digest()
        assert a != c and a.content_digest() != c.content_digest()

    def test_copy_preserves_digest(self):
        g = Graph(edges=[(0, 1), (1, 2), ("x", "y")])
        assert g.copy().content_digest() == g.content_digest()


class TestVertexOperations:
    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.num_vertices == 1

    def test_add_vertices(self):
        g = Graph()
        g.add_vertices("abc")
        assert set(g.vertices()) == {"a", "b", "c"}

    def test_remove_vertex(self):
        g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        g.remove_vertex(1)
        assert g.num_vertices == 2
        assert g.num_edges == 1
        assert not g.has_vertex(1)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(7)

    def test_remove_vertices(self):
        g = complete_graph(4)
        g.remove_vertices([0, 1])
        assert g.num_vertices == 2
        assert g.num_edges == 1

    def test_contains_and_iteration(self):
        g = Graph(vertices=[1, 2, 3])
        assert 2 in g
        assert 9 not in g
        assert sorted(g) == [1, 2, 3]
        assert len(g) == 3


class TestEdgeOperations:
    def test_add_edge_creates_vertices(self):
        g = Graph()
        g.add_edge("x", "y")
        assert g.has_vertex("x") and g.has_vertex("y")
        assert g.num_edges == 1

    def test_remove_edge(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 1
        assert g.has_vertex(0)

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_edges_listed_once(self):
        g = complete_graph(4)
        edges = g.edges()
        assert len(edges) == 6
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 6

    def test_iter_edges_matches_edges(self):
        g = Graph(edges=[(0, 1), (1, 2), (2, 3)])
        assert sorted(map(sorted, g.iter_edges())) == sorted(map(sorted, g.edges()))

    def test_add_edges_and_remove_edges(self):
        g = Graph()
        g.add_edges([(0, 1), (1, 2)])
        g.remove_edges([(0, 1)])
        assert g.num_edges == 1


class TestNeighborhoods:
    def test_neighbors(self):
        g = Graph(edges=[(0, 1), (0, 2)])
        assert g.neighbors(0) == {1, 2}
        assert g.degree(0) == 2
        assert g.degree(1) == 1

    def test_neighbors_missing_vertex(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.neighbors(0)

    def test_non_neighbors_excludes_self(self):
        g = Graph(edges=[(0, 1)], vertices=[0, 1, 2])
        assert g.non_neighbors(0) == {2}
        assert g.non_neighbors(2) == {0, 1}

    def test_common_neighbors(self):
        g = Graph(edges=[(0, 2), (1, 2), (0, 3), (1, 3), (0, 1)])
        assert g.common_neighbors(0, 1) == {2, 3}

    def test_degrees_mapping(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert g.degrees() == {0: 1, 1: 2, 2: 1}

    def test_adjacency_snapshot_immutable(self):
        g = Graph(edges=[(0, 1)])
        snap = g.adjacency()
        assert snap[0] == frozenset({1})


class TestSubgraphsAndMeasures:
    def test_subgraph(self):
        g = complete_graph(5)
        sub = g.subgraph([0, 1, 2])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_subgraph_unknown_vertex(self):
        g = complete_graph(3)
        with pytest.raises(VertexNotFoundError):
            g.subgraph([0, 9])

    def test_relabel_roundtrip(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        relabeled, to_int, to_label = g.relabel()
        assert relabeled.num_vertices == 3
        assert relabeled.num_edges == 2
        for label, idx in to_int.items():
            assert to_label[idx] == label
        for u, v in g.iter_edges():
            assert relabeled.has_edge(to_int[u], to_int[v])

    def test_complement(self):
        g = Graph(edges=[(0, 1)], vertices=[0, 1, 2])
        comp = g.complement()
        assert not comp.has_edge(0, 1)
        assert comp.has_edge(0, 2) and comp.has_edge(1, 2)

    def test_density(self):
        assert complete_graph(4).density() == pytest.approx(1.0)
        assert Graph(vertices=[0]).density() == 0.0
        assert Graph.empty(4).density() == 0.0

    def test_missing_edges(self):
        g = Graph(edges=[(0, 1)], vertices=[0, 1, 2])
        assert g.missing_edge_count() == 2
        assert {frozenset(e) for e in g.missing_edges()} == {frozenset({0, 2}), frozenset({1, 2})}

    def test_is_clique_subset(self):
        g = complete_graph(5)
        g.remove_edge(0, 1)
        assert not g.is_clique()
        assert g.is_clique([1, 2, 3, 4])
        assert g.is_clique([0])

    def test_count_missing_edges(self):
        g = complete_graph(4)
        g.remove_edge(0, 1)
        assert g.count_missing_edges([0, 1, 2, 3]) == 1
        assert g.count_missing_edges([1, 2, 3]) == 0

    def test_count_missing_edges_unknown_vertex(self):
        g = complete_graph(3)
        with pytest.raises(VertexNotFoundError):
            g.count_missing_edges([0, 17])

    def test_triangle_count_per_edge(self):
        g = complete_graph(4)
        support = g.triangle_count_per_edge()
        assert all(count == 2 for count in support.values())

    def test_validate_passes(self):
        g = complete_graph(4)
        g.validate()

    def test_validate_detects_corruption(self):
        g = Graph(edges=[(0, 1)])
        g._adj[0].add(2)  # corrupt: dangling neighbour
        with pytest.raises(GraphError):
            g.validate()
