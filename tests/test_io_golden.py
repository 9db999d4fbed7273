"""Golden file path: what ``load_graph`` builds from an edge-list file, row for row.

Each case records one SHA-256 over ``list(g)``, ``[list(g.neighbors(v))
for v in g]`` and ``g.num_edges`` for the graph ``load_graph`` reads, so
the vertex order, the neighbour order of every row and the edge count are
all pinned.  Row order matters beyond the edge set: prepare relabels the
graph in this order, and the degeneracy order breaks ties by it (see
``tests/test_prepare_golden.py``).  A reader that builds the same graph in
another order changes search trees without changing a single edge.

The corpus is ``tests/test_prepare_golden.py``'s two power-law graphs,
each written in two line orders (``write_edge_list``'s, and a seeded
shuffle with each edge's endpoints swapped at random), plus one hand-made
file with comments, ``# isolated:`` lines in the middle, duplicate edges
in both orientations, self-loops, string and mixed labels, a three-column
line, CRLF endings and leading whitespace.  String labels hash
differently in every process (``PYTHONHASHSEED``), so the fixture's rows
are pinned as sets, each listed by ``repr``; the power-law files' integer
rows are pinned in iteration order.  For the power-law files the clique,
size and search counters of ``KDCSolver().solve(load_graph(path), 3)`` are
pinned too.

The hashes were recorded on CPython 3.11.7; like every golden here they
depend on set iteration order, so a disagreement on another interpreter is
an interpreter difference first.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import KDCSolver
from repro.exceptions import GraphFormatError
from repro.graphs import load_graph, powerlaw_cluster_graph, write_edge_list

#: ``powerlaw_cluster_graph`` arguments ``(n, m, p, seed)``, as in the prepare golden.
POWERLAW_GRAPHS = ((1500, 10, 0.3, 1), (2000, 8, 0.3, 2))
LINE_ORDERS = ("written", "shuffled")

#: A file every rule of the edge-list reader applies to, line by line.
FIXTURE = (
    "# n=? m=? a header comment\r\n"
    "% a second comment style\r\n"
    "\r\n"
    "  3 1\r\n"
    "1 3\r\n"
    "3 1\r\n"
    "4 4\r\n"
    "# isolated: 9 alice 3\r\n"
    "alice bob\r\n"
    "bob 2\r\n"
    "2 7 0.5\r\n"
    "\t07 x1\r\n"
    "x1 7\r\n"
    "bob bob\r\n"
    "%isolated: 11 4\r\n"
    "1.5 -2\r\n"
    "   \t  \r\n"
    "-2 1.5\r\n"
    "1 01\r\n"
    "  # isolated: 12\r\n"
    "2 3"
)

# (n, m, p, seed), line order -> SHA-256 of the loaded rows.
GOLDEN_ROWS = {
    ((1500, 10, 0.3, 1), "written"): "4b80eb96bfc035a3497e9b4b5933f2bc33e468c2087b12b69c3b3c4ea3f9f156",
    ((1500, 10, 0.3, 1), "shuffled"): "dea6bec33b5fa12e2d5cf9b51c127a863f40a040773b163e66a9c3f5df4d3253",
    ((2000, 8, 0.3, 2), "written"): "6097851948b9964d7153ce3f4c8e79423a70aae61fc3ac360db3008141e690aa",
    ((2000, 8, 0.3, 2), "shuffled"): "9c6c27ffa8dba1dc63d61893f807d7dc4d5bf3a11c98c61bf1b65705e7e4c963",
}
GOLDEN_FIXTURE = "be8c2ec053e792a32778da7c5cd6e2c54eebbedc1425aec848aa589ff178a1fd"
# (n, m, p, seed), line order -> SHA-256 of the solve at k = 3.
GOLDEN_SOLVES = {
    ((1500, 10, 0.3, 1), "written"): "01a418f32c105ae2c6121f2e7bc8d87039ef065ccdff77d3f14521dcf7a748f4",
    ((1500, 10, 0.3, 1), "shuffled"): "622eae27afad49ef73b9329951e1786dfbf831a6ba75fd6b2a9b91da6f14ae84",
    ((2000, 8, 0.3, 2), "written"): "0c9da08b0be070d351064c5feaa2cfb8c5bbeb79e4bebf465deb9c5265ac614a",
    ((2000, 8, 0.3, 2), "shuffled"): "183e060eb52af20c0f46871d7e4bb5ec83f59d384a22899a2439be3362bee778",
}


def rows_digest(graph, in_order=True):
    """SHA-256 over the vertex order, every row and the edge count.

    A row is listed in iteration order, or, with ``in_order=False``, sorted
    by ``repr``.
    """
    rows = [list(graph.neighbors(v)) for v in graph]
    if not in_order:
        rows = [sorted(map(repr, row)) for row in rows]
    fields = (list(graph), rows, graph.num_edges)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def solve_digest(result):
    """SHA-256 over the clique, its size and the search counters of ``result``."""
    stats = result.stats
    fields = (
        result.clique,
        result.size,
        result.optimal,
        stats.nodes,
        stats.prunes_by_bound,
        stats.leaves,
        stats.recolor_full,
        stats.recolor_repair,
        stats.subproblems,
        stats.subproblems_pruned,
        stats.initial_solution_size,
        stats.preprocess_removed_vertices,
        stats.preprocess_removed_edges,
        sorted(stats.reductions.items()),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def write_powerlaw(path, case, order):
    """Write ``powerlaw_cluster_graph(*case)`` to ``path`` in one of :data:`LINE_ORDERS`."""
    graph = powerlaw_cluster_graph(*case)
    if order == "written":
        write_edge_list(graph, path)
        return
    rng = random.Random(7)
    edges = list(graph.iter_edges())
    rng.shuffle(edges)
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def powerlaw_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("powerlaw")
    files = {}
    for case in POWERLAW_GRAPHS:
        for order in LINE_ORDERS:
            path = root / f"{'_'.join(map(str, case))}_{order}.edges"
            write_powerlaw(path, case, order)
            files[case, order] = path
    return files


class TestLoadGolden:
    """``load_graph`` builds the recorded rows, and the solves of them walk the recorded trees."""

    def test_powerlaw_rows(self, powerlaw_files):
        actual = {case: rows_digest(load_graph(path)) for case, path in powerlaw_files.items()}
        assert actual == GOLDEN_ROWS

    def test_fixture_rows(self, tmp_path):
        path = tmp_path / "fixture.edges"
        path.write_bytes(FIXTURE.encode())
        assert rows_digest(load_graph(path), in_order=False) == GOLDEN_FIXTURE

    def test_fixture_reads_every_rule(self, tmp_path):
        path = tmp_path / "fixture.edges"
        path.write_bytes(FIXTURE.encode())
        g = load_graph(path)
        g.validate()
        assert list(g) == [3, 1, 9, "alice", "bob", 2, 7, "x1", 11, 4, "1.5", -2, 12]
        assert g.num_edges == 7
        assert g.has_edge(2, 7) and g.has_edge(7, "x1") and g.has_edge("1.5", -2)
        assert g.degree(9) == g.degree(11) == g.degree(4) == g.degree(12) == 0

    def test_powerlaw_solves(self, powerlaw_files):
        actual = {
            case: solve_digest(KDCSolver().solve(load_graph(path), 3))
            for case, path in powerlaw_files.items()
        }
        assert actual == GOLDEN_SOLVES

    @pytest.mark.parametrize("line, token", [(4, "42"), (1, "x")])
    def test_one_token_line_names_its_line(self, tmp_path, line, token):
        lines = FIXTURE.split("\r\n")
        lines.insert(line - 1, f"  {token}\t")
        path = tmp_path / "bad.edges"
        path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(GraphFormatError) as info:
            load_graph(path)
        assert str(info.value) == f"line {line}: expected two vertex ids, got {token!r}"
