"""Tests for graph readers and writers."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphFormatError
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    load_graph,
    read_dimacs,
    read_edge_list,
    read_metis,
    save_graph,
    write_dimacs,
    write_edge_list,
    write_metis,
)


def _same_structure(a: Graph, b: Graph) -> bool:
    if a.num_vertices != b.num_vertices or a.num_edges != b.num_edges:
        return False
    a_rel, _, _ = a.relabel()
    b_rel, _, _ = b.relabel()
    return sorted(sorted(d for d in g.degrees().values()) for g in (a_rel,)) == sorted(
        sorted(d for d in g.degrees().values()) for g in (b_rel,)
    )


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = gnp_random_graph(20, 0.3, seed=1)
        path = tmp_path / "graph.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.num_edges == g.num_edges
        for u, v in g.iter_edges():
            assert loaded.has_edge(u, v)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n% other comment\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n")
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_string_labels_kept(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        g = read_edge_list(path)
        assert g.has_edge("alice", "bob")

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_header_written(self, tmp_path):
        g = Graph(edges=[(0, 1)], vertices=[2])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        content = path.read_text()
        assert content.startswith("#")
        assert "isolated" in content

    def test_roundtrip_preserves_isolated_vertices(self, tmp_path):
        g = Graph(edges=[(0, 1), (1, 2)], vertices=[7, 9])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        assert loaded.has_vertex(7) and loaded.has_vertex(9)
        assert loaded.degree(7) == 0 and loaded.degree(9) == 0

    def test_roundtrip_preserves_string_labelled_isolated_vertices(self, tmp_path):
        g = Graph(edges=[("a", "b")], vertices=["lonely"])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert loaded.has_vertex("lonely")
        assert loaded.num_vertices == 3


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        g = complete_graph(5)
        path = tmp_path / "g.clq"
        write_dimacs(g, path)
        loaded = read_dimacs(path)
        assert loaded.num_vertices == 5
        assert loaded.num_edges == 10

    def test_read_with_comments(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("c sample\np edge 3 2\ne 1 2\ne 2 3\n")
        g = read_dimacs(path)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("e 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_unknown_record(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("p edge 2 1\nx 1 2\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_malformed_edge(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("p edge 2 1\ne 1\n")
        with pytest.raises(GraphFormatError):
            read_dimacs(path)

    def test_endpoint_beyond_declared_n_rejected(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("p edge 3 2\ne 1 2\ne 2 9\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            read_dimacs(path)

    def test_zero_or_negative_endpoint_rejected(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("p edge 3 1\ne 0 2\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            read_dimacs(path)

    def test_edge_before_problem_line_rejected(self, tmp_path):
        path = tmp_path / "g.clq"
        path.write_text("e 1 2\np edge 3 1\n")
        with pytest.raises(GraphFormatError, match="before"):
            read_dimacs(path)

    @pytest.mark.parametrize("text, message", [
        ("p edge abc 3\n", "line 1: vertex count must be an integer, got 'abc'"),
        ("c x\np edge 3 1\ne 1 x\n", "line 3: edge endpoint must be an integer, got 'x'"),
    ])
    def test_non_integer_token_is_a_format_error(self, tmp_path, text, message):
        path = tmp_path / "g.clq"
        path.write_text(text)
        with pytest.raises(GraphFormatError) as info:
            read_dimacs(path)
        assert str(info.value) == message

    def test_roundtrip_preserves_isolated_vertices(self, tmp_path):
        g = Graph(edges=[(0, 1)], vertices=[2, 3])
        path = tmp_path / "g.clq"
        write_dimacs(g, path)
        loaded = read_dimacs(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 1


class TestMetis:
    def test_roundtrip(self, tmp_path):
        g = gnp_random_graph(15, 0.3, seed=2)
        path = tmp_path / "g.graph"
        write_metis(g, path)
        loaded = read_metis(path)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_missing_lines_raise(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("3 1\n2\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("2 1\n2\n5\n")
        with pytest.raises(GraphFormatError):
            read_metis(path)

    def test_roundtrip_preserves_isolated_vertices(self, tmp_path):
        g = Graph(edges=[(0, 1)], vertices=[2, 3])
        path = tmp_path / "g.graph"
        write_metis(g, path)
        loaded = read_metis(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 1

    def test_non_integer_token_is_a_format_error(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("% comment\n2 1\n2 x\n1\n")
        with pytest.raises(GraphFormatError, match=r"^line 3: neighbour id must be an integer, got 'x'$"):
            read_metis(path)

    def test_edge_weights_are_not_read_as_neighbours(self, tmp_path):
        # The path 1-2-3 with fmt = 1 and unit edge weights.
        path = tmp_path / "g.graph"
        path.write_text("3 2 1\n2 1\n1 1 3 1\n2 1\n")
        g = read_metis(path)
        assert sorted(map(sorted, g.iter_edges())) == [[0, 1], [1, 2]]
        assert g.num_edges == 2

    def test_vertex_sizes_and_weights_are_skipped(self, tmp_path):
        # fmt = 111 with ncon = 2: size, two weights, then (neighbour, weight) pairs.
        path = tmp_path / "g.graph"
        path.write_text("3 2 111 2\n5 7 7 2 9\n5 7 7 1 9 3 4\n5 7 7 2 4\n")
        g = read_metis(path)
        assert sorted(map(sorted, g.iter_edges())) == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("text, match", [
        ("3 2 1\n2\n1 1 3 1\n2 1\n", "line 2: adjacency line does not match"),
        ("2 1 12\n2\n1\n", "fmt must be up to three 0/1 digits"),
        ("2 1 10 0\n2\n1\n", "ncon must be at least 1"),
        ("3 3\n2\n1 3\n2\n", "declares 3 edges but the adjacency lines hold 2"),
    ])
    def test_header_and_lines_must_agree(self, tmp_path, text, match):
        path = tmp_path / "g.graph"
        path.write_text(text)
        with pytest.raises(GraphFormatError, match=match):
            read_metis(path)


class TestDispatch:
    @pytest.mark.parametrize("suffix", [".edges", ".clq", ".graph"])
    def test_auto_dispatch_roundtrip(self, tmp_path, suffix):
        g = complete_graph(4)
        path = tmp_path / f"graph{suffix}"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.num_edges == 6

    def test_unknown_extension_raises(self, tmp_path):
        g = Graph(edges=[(0, 1)])
        path = tmp_path / "graph.mtx"
        with pytest.raises(GraphFormatError, match="supported extensions"):
            save_graph(g, path)
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="supported extensions"):
            load_graph(path)

    def test_unknown_extension_explicit_format_still_works(self, tmp_path):
        g = Graph(edges=[(0, 1)])
        path = tmp_path / "graph.mtx"
        save_graph(g, path, fmt="edgelist")
        assert load_graph(path, fmt="edgelist").num_edges == 1

    def test_explicit_format_overrides(self, tmp_path):
        g = complete_graph(3)
        path = tmp_path / "file.dat"
        save_graph(g, path, fmt="dimacs")
        loaded = load_graph(path, fmt="dimacs")
        assert loaded.num_edges == 3

    def test_bad_format_name(self, tmp_path):
        g = Graph(edges=[(0, 1)])
        with pytest.raises(GraphFormatError):
            save_graph(g, tmp_path / "x.edges", fmt="parquet")
        (tmp_path / "x.edges").write_text("0 1\n")
        with pytest.raises(GraphFormatError):
            load_graph(tmp_path / "x.edges", fmt="parquet")
