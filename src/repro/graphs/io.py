"""Graph readers and writers.

Supported formats
-----------------
* **Edge list** (``.txt``, ``.edges``): one ``u v`` pair per line; lines
  starting with ``#`` or ``%`` are comments.  This is the format used by the
  SNAP and Network Data Repository collections the paper evaluates on.
* **DIMACS** (``.clq``, ``.col``, ``.dimacs``): ``p edge n m`` header and
  ``e u v`` edge lines with 1-based vertex ids, the classic clique-benchmark
  format.
* **METIS** (``.graph``, ``.metis``): header ``n m [fmt [ncon]]``, then line
  ``i`` lists the (1-based) neighbours of vertex ``i`` — the format used by
  the DIMACS10 collection.  Vertex sizes and weights and edge weights that
  ``fmt`` declares are skipped.

All readers return a :class:`~repro.graphs.graph.Graph` whose vertices are
integers (the edge-list reader keeps a label that is not one as a string),
and all writers accept any graph (labels are written with ``str``).
A file that does not parse raises
:class:`~repro.exceptions.GraphFormatError`, which names the offending line
when there is one, never a bare ``ValueError``.

The edge-list reader is the first layer of a cold solve, so it reads in one
tight loop: each distinct token is turned into its label once, and the rows
are built in place and handed to the graph whole
(``Graph._from_rows``).  Its rows are exactly the ones ``Graph.add_edge``
over the file's edges would build, vertex order, neighbour insertion order
and so set layout included.  That layout is part of the output: prepare
relabels the graph in its iteration order and the degeneracy order breaks
ties by it, so a reader that built the same edge set in another order
would change search trees (``tests/test_io_golden.py`` pins the rows).
"""

from __future__ import annotations

import os
from typing import Dict, List, TextIO, Tuple, Union

from ..exceptions import GraphFormatError
from .graph import Graph, Rows, Vertex

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "read_metis",
    "write_metis",
    "load_graph",
    "save_graph",
]

PathLike = Union[str, "os.PathLike[str]"]


# --------------------------------------------------------------------------- #
# Edge list
# --------------------------------------------------------------------------- #
def read_edge_list(path: PathLike, comments: str = "#%") -> Graph:
    """Read a whitespace-separated edge list file.

    Vertex ids are parsed as integers when possible and kept as strings
    otherwise.  Self-loops and duplicate edges are ignored, matching how the
    paper's benchmark loaders sanitise raw repository data.  The
    ``# isolated: ...`` header emitted by :func:`write_edge_list` is parsed
    back, so edge-list round-trips preserve degree-0 vertices.  Tokens after
    the second on a line are ignored.
    """
    with open(path, "r", encoding="utf-8") as handle:
        rows, num_edges = _read_edge_rows(handle, comments)
    return Graph._from_rows(rows, num_edges)


def _read_edge_rows(handle: TextIO, comments: str) -> Tuple[Rows, int]:
    """The rows and edge count of an edge list, in one pass over its lines.

    The rows come out exactly as ``Graph.add_edge`` over the file's edges
    would build them: a vertex enters at its first edge or ``isolated:``
    header, and each row receives its neighbours in file order, so every
    row set has the same layout and iterates in the same order.

    Each distinct token is turned into its label once and cached.  The
    cache never holds a token that starts a comment, so a hit on a line's
    first token proves the line is an edge, and only a miss needs the
    comment test.
    """
    rows: Rows = {}
    labels: Dict[str, Vertex] = {}
    label_of, row_of = labels.get, rows.get
    num_edges = 0
    for lineno, line in enumerate(handle, start=1):
        parts = line.split()
        try:
            a = parts[0]
            b = parts[1]
        except IndexError:
            if not parts:
                continue
            if a[0] in comments:
                _add_isolated(rows, line.strip(), comments)
                continue
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {a!r}") from None
        u = label_of(a)
        if u is None:
            if a[0] in comments:
                _add_isolated(rows, line.strip(), comments)
                continue
            u = labels[a] = _coerce(a)
        v = label_of(b)
        if v is None:
            v = _coerce(b)
            if b[0] not in comments:
                labels[b] = v
        if u == v:
            continue  # drop self-loops from raw data
        row_u = row_of(u)
        if row_u is None:
            row_u = rows[u] = set()
        row_v = row_of(v)
        if row_v is None:
            row_v = rows[v] = set()
        if v not in row_u:
            row_u.add(v)
            row_v.add(u)
            num_edges += 1
    return rows, num_edges


def _add_isolated(rows: Rows, stripped: str, comments: str) -> None:
    """Add the vertices of a ``# isolated: ...`` comment line that are not yet in ``rows``."""
    body = stripped.lstrip(comments).strip()
    if body.startswith("isolated:"):
        for token in body[len("isolated:"):].split():
            rows.setdefault(_coerce(token), set())


def _coerce(token: str) -> Union[int, str]:
    try:
        return int(token)
    except ValueError:
        return token


def _integer(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def write_edge_list(graph: Graph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as an edge list; isolated vertices are listed in the header."""
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
            isolated = [v for v in graph if graph.degree(v) == 0]
            if isolated:
                handle.write("# isolated: " + " ".join(str(v) for v in isolated) + "\n")
        for u, v in graph.iter_edges():
            handle.write(f"{u} {v}\n")


# --------------------------------------------------------------------------- #
# DIMACS
# --------------------------------------------------------------------------- #
def read_dimacs(path: PathLike) -> Graph:
    """Read a DIMACS ``.clq``/``.col`` file (1-based vertex ids become 0-based)."""
    graph = Graph()
    declared_n = None
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("c"):
                continue
            parts = stripped.split()
            if parts[0] == "p":
                if len(parts) < 4:
                    raise GraphFormatError(f"line {lineno}: malformed problem line {stripped!r}")
                declared_n = _integer(parts[2], lineno, "vertex count")
                graph.add_vertices(range(declared_n))
            elif parts[0] == "e":
                if len(parts) < 3:
                    raise GraphFormatError(f"line {lineno}: malformed edge line {stripped!r}")
                if declared_n is None:
                    raise GraphFormatError(
                        f"line {lineno}: edge line before the 'p edge' problem line"
                    )
                u = _integer(parts[1], lineno, "edge endpoint") - 1
                v = _integer(parts[2], lineno, "edge endpoint") - 1
                if not (0 <= u < declared_n and 0 <= v < declared_n):
                    raise GraphFormatError(
                        f"line {lineno}: edge endpoint out of range 1..{declared_n}: {stripped!r}"
                    )
                if u == v:
                    continue
                graph.add_edge(u, v)
            else:
                raise GraphFormatError(f"line {lineno}: unknown record type {parts[0]!r}")
    if declared_n is None:
        raise GraphFormatError("missing 'p edge' problem line")
    return graph


def write_dimacs(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` in DIMACS format.  Vertices are relabeled to ``1..n``."""
    relabeled, _, _ = graph.relabel()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("c written by repro.graphs.io\n")
        handle.write(f"p edge {relabeled.num_vertices} {relabeled.num_edges}\n")
        for u, v in relabeled.iter_edges():
            handle.write(f"e {u + 1} {v + 1}\n")


# --------------------------------------------------------------------------- #
# METIS
# --------------------------------------------------------------------------- #
def read_metis(path: PathLike) -> Graph:
    """Read a METIS adjacency file (format used by the DIMACS10 collection).

    Comment lines start with ``%``.  The adjacency line of an isolated vertex
    is blank, so blank lines are meaningful and are only skipped before the
    header.  The header is ``n m [fmt [ncon]]``; a ``fmt`` that declares
    vertex sizes, vertex weights or edge weights has them skipped, so only
    the neighbour ids are read.  The edges read must number the header's
    ``m``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = [
            (lineno, line) for lineno, line in enumerate(handle, start=1)
            if not line.lstrip().startswith("%")
        ]
    while data and not data[0][1].strip():
        data.pop(0)
    if not data:
        raise GraphFormatError("empty METIS file")
    lineno, line = data[0]
    header = line.split()
    if len(header) < 2:
        raise GraphFormatError(f"line {lineno}: malformed METIS header {line.strip()!r}")
    n = _integer(header[0], lineno, "vertex count")
    m = _integer(header[1], lineno, "edge count")
    skip, stride = _metis_layout(header[2:], lineno)
    graph = Graph(vertices=range(n))
    if len(data) - 1 < n:
        raise GraphFormatError(f"METIS file declares {n} vertices but has {len(data) - 1} adjacency lines")
    for i in range(n):
        lineno, line = data[1 + i]
        tokens = line.split()
        if len(tokens) < skip or (len(tokens) - skip) % stride:
            raise GraphFormatError(f"line {lineno}: adjacency line does not match the header's fmt")
        for token in tokens[skip::stride]:
            j = _integer(token, lineno, "neighbour id") - 1
            if j == i:
                continue
            if not 0 <= j < n:
                raise GraphFormatError(f"line {lineno}: vertex index {j + 1} out of range 1..{n}")
            graph.add_edge(i, j)
    if graph.num_edges != m:
        raise GraphFormatError(f"METIS header declares {m} edges but the adjacency lines hold {graph.num_edges}")
    return graph


def _metis_layout(fields: List[str], lineno: int) -> Tuple[int, int]:
    """Leading tokens to skip and the stride to the next neighbour id, from ``[fmt [ncon]]``."""
    fmt = fields[0] if fields else "0"
    if len(fmt) > 3 or fmt.strip("01"):
        raise GraphFormatError(f"line {lineno}: METIS fmt must be up to three 0/1 digits, got {fmt!r}")
    sizes, vertex_weights, edge_weights = (digit == "1" for digit in fmt.zfill(3))
    ncon = _integer(fields[1], lineno, "ncon") if vertex_weights and len(fields) > 1 else 1
    if ncon < 1:
        raise GraphFormatError(f"line {lineno}: METIS ncon must be at least 1, got {ncon}")
    return int(sizes) + (ncon if vertex_weights else 0), 2 if edge_weights else 1


def write_metis(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` in METIS format.  Vertices are relabeled to ``1..n``."""
    relabeled, _, _ = graph.relabel()
    n = relabeled.num_vertices
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{n} {relabeled.num_edges}\n")
        for i in range(n):
            nbrs = sorted(relabeled.neighbors(i))
            handle.write(" ".join(str(j + 1) for j in nbrs) + "\n")


# --------------------------------------------------------------------------- #
# Format dispatch
# --------------------------------------------------------------------------- #
_EDGE_EXTS = {".txt", ".edges", ".edgelist", ".el"}
_DIMACS_EXTS = {".clq", ".col", ".dimacs"}
_METIS_EXTS = {".graph", ".metis"}


def load_graph(path: PathLike, fmt: str = "auto") -> Graph:
    """Load a graph, inferring the format from the file extension by default.

    Parameters
    ----------
    path:
        File to read.
    fmt:
        One of ``"auto"``, ``"edgelist"``, ``"dimacs"``, ``"metis"``.
    """
    fmt = _resolve_format(path, fmt)
    if fmt == "edgelist":
        return read_edge_list(path)
    if fmt == "dimacs":
        return read_dimacs(path)
    if fmt == "metis":
        return read_metis(path)
    raise GraphFormatError(f"unknown graph format {fmt!r}")


def save_graph(graph: Graph, path: PathLike, fmt: str = "auto") -> None:
    """Save a graph, inferring the format from the file extension by default."""
    fmt = _resolve_format(path, fmt)
    if fmt == "edgelist":
        write_edge_list(graph, path)
    elif fmt == "dimacs":
        write_dimacs(graph, path)
    elif fmt == "metis":
        write_metis(graph, path)
    else:
        raise GraphFormatError(f"unknown graph format {fmt!r}")


def _resolve_format(path: PathLike, fmt: str) -> str:
    if fmt != "auto":
        return fmt
    ext = os.path.splitext(os.fspath(path))[1].lower()
    if ext in _EDGE_EXTS:
        return "edgelist"
    if ext in _DIMACS_EXTS:
        return "dimacs"
    if ext in _METIS_EXTS:
        return "metis"
    supported = ", ".join(sorted(_EDGE_EXTS | _DIMACS_EXTS | _METIS_EXTS))
    raise GraphFormatError(
        f"cannot infer graph format from extension {ext!r} of {os.fspath(path)!r}; "
        f"supported extensions: {supported} (or pass fmt='edgelist'/'dimacs'/'metis' explicitly)"
    )
