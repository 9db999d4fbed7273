"""Undirected simple graph used by every algorithm in the package.

The graph is stored as a dictionary of adjacency *sets* which gives O(1)
expected-time edge queries and O(d(u)) neighbourhood iteration -- the access
pattern every branch-and-bound solver in this package relies on.  Vertices may
be arbitrary hashable labels; solvers that need contiguous integer ids call
:meth:`Graph.relabel`.

Only simple graphs are supported: self-loops raise
:class:`~repro.exceptions.SelfLoopError` and parallel edges are silently
collapsed (adding an existing edge is a no-op), matching the paper's setting
of unweighted, undirected simple graphs.

Content digest
--------------
:meth:`Graph.content_digest` is the graph's cache key (graphs are mutable,
so ``__hash__`` refuses).  It is an order-independent multiset hash over
vertex *rows*, incremental in the sense of Bellare and Micciancio (1997),
"A new paradigm for collision-free hashing: incrementality at reduced cost":

* every vertex label becomes a canonical token ``"<type>:<repr>"`` in
  UTF-8, prefixed by its byte length (8 bytes, big-endian), so no
  concatenation of tokens can be read two ways;
* the row of ``v`` is SHAKE-256 with a 2048-bit output over ``v``'s token
  followed by its neighbours' tokens in sorted byte order, read as an
  integer;
* the rows are summed modulo 2^2048, and the digest is the SHA-256 of a
  version tag followed by the sum, still 64 hex characters.

Rows, not edges: the multiset of rows determines the graph (isolated
vertices included), and there are n of them against n + m edge and vertex
tokens, so a full digest hashes fewer, longer inputs.  The modulus is that
large because the digest keys cached answers and must hold up against
hostile input: an XOR of element hashes falls to linear algebra and a sum
modulo 2^256 to Wagner's generalized-birthday attack (2002).  The version
tag changes whenever the format does (this is version 2; version 1 hashed
the sorted vertex and edge lists), so a digest of one format never passes
for the other.

The sum is what makes a successor's digest cheap.  ``content_digest()``
leaves it on the graph; :meth:`Graph.copy` carries it, every other mutator
drops it, and pickling leaves it out.  :meth:`Graph.update_edges` moves a
kept sum by subtracting the old rows of the vertices a batch of edge
changes touches and adding their new rows, which costs O(sum of the
touched vertices' degrees) instead of a pass over all m edges.

Copy-on-write rows
------------------
:meth:`Graph.copy` shares its source's row sets instead of rebuilding them,
so a copy costs one dict copy and a successor allocates only the rows its
changes touch.  Each graph records which rows it owns: a graph from a
constructor, :meth:`~Graph.subgraph`, :meth:`~Graph.relabel` or
:meth:`~Graph.complement` owns all of them, as it does any vertex it adds
later, and a copy leaves both graphs owning none.  Every mutator copies a
row it does not own before its first write to it, so no write to one graph
reaches another.  Shared rows keep their layout, so a copy iterates exactly
like its source and a solve of either walks the same search tree.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..exceptions import EdgeNotFoundError, GraphError, SelfLoopError, VertexNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]
#: Adjacency rows: one set of neighbours per vertex, in a dict keyed by vertex
#: -- the layout a :class:`Graph` keeps internally.  The prepare layers
#: (Degen-opt, the k-core and k-truss peels, the degeneracy order) run on
#: rows; see :func:`rows_of`.
Rows = Dict[Vertex, Set[Vertex]]

__all__ = ["Graph", "Vertex", "Edge", "Rows", "rows_of"]

#: Hashed ahead of the row sum in every content digest; a new row format gets
#: a new tag, so digests of two formats never coincide.
_DIGEST_VERSION = b"repro.graph.content-digest/2\x00"
_ROW_BYTES = 256  # SHAKE-256 output per row: 2048 bits
_ROW_MASK = (1 << (8 * _ROW_BYTES)) - 1


def _token(vertex: Vertex) -> bytes:
    """Length-prefixed canonical token of one vertex label.

    The type name is folded in because labels of different types can share
    a ``repr``.
    """
    raw = f"{type(vertex).__name__}:{vertex!r}".encode("utf-8")
    return len(raw).to_bytes(8, "big") + raw


def _row_hash(token: bytes, neighbour_tokens: Iterable[bytes]) -> int:
    data = token + b"".join(sorted(neighbour_tokens))
    return int.from_bytes(hashlib.shake_256(data).digest(_ROW_BYTES), "little")


def _finish(total: int) -> str:
    return hashlib.sha256(_DIGEST_VERSION + total.to_bytes(_ROW_BYTES, "little")).hexdigest()


class Graph:
    """An unweighted, undirected simple graph.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to initialise the graph.
        Endpoints are added as vertices automatically.
    vertices:
        Optional iterable of vertices to add (possibly isolated).

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.has_edge(0, 1)
    True
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_adj", "_num_edges", "_digest_sum", "_owned")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges: int = 0
        # Row sum behind content_digest() while the content is unchanged.
        self._digest_sum: Optional[int] = None
        # Vertices whose row sets this graph may write in place; None means
        # all of them.  Any other row may be shared with a copy.
        self._owned: Optional[Set[Vertex]] = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges."""
        return cls(edges=edges)

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[Vertex, Iterable[Vertex]]) -> "Graph":
        """Build a graph from an adjacency mapping ``{u: iterable_of_neighbors}``.

        The mapping does not need to be symmetric; every listed pair is added
        as an undirected edge.
        """
        g = cls()
        for u, nbrs in adjacency.items():
            g.add_vertex(u)
            for v in nbrs:
                g.add_edge(u, v)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        """Return the complete graph on vertices ``0 .. n-1``."""
        g = cls(vertices=range(n))
        for u in range(n):
            for v in range(u + 1, n):
                g.add_edge(u, v)
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        """Return the edgeless graph on vertices ``0 .. n-1``."""
        return cls(vertices=range(n))

    def copy(self) -> "Graph":
        """Return an independent copy of the graph in O(n).

        The copy shares every row set with the source until one of the two
        writes to it (see "Copy-on-write rows" in the module docstring), so
        it keeps the source's row layout: it iterates its vertices and
        neighbours in the same order.  It also keeps the digest sum, so it
        digests without a full pass.
        """
        g = Graph.__new__(Graph)
        g._adj = dict(self._adj)
        g._num_edges = self._num_edges
        g._digest_sum = self._digest_sum
        g._owned = set()
        # The only write to the source: a fresh, empty ownership record, never
        # an update of the old one, and no row is touched.  Concurrent copies
        # of a graph that no thread mutates therefore stay safe: each reads
        # the same rows and stores the same empty record.
        self._owned = set()
        return g

    # copy.copy would otherwise rebuild the graph from __getstate__, which
    # hands over the source's row dict itself, so every write reaches both.
    def __copy__(self) -> "Graph":
        return self.copy()

    def _own(self, vertex: Vertex) -> Set[Vertex]:
        """``vertex``'s row, copied first if a copy may share it; writable."""
        row = self._adj[vertex]
        owned = self._owned
        if owned is not None and vertex not in owned:
            row = self._adj[vertex] = set(row)
            owned.add(vertex)
        return row

    # Pickles hold the content only: the same state layout as a graph pickled
    # before the digest sum existed, so snapshots load both ways.
    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        return None, {"_adj": self._adj, "_num_edges": self._num_edges}

    def __setstate__(self, state: Tuple[None, Dict[str, object]]) -> None:
        _, slots = state
        self._adj = slots["_adj"]
        self._num_edges = slots["_num_edges"]
        self._digest_sum = None
        # One pickle memoizes a row set that two graphs share, so graphs
        # unpickled together (a pickled GraphStore, copy.deepcopy of a graph
        # and its copy) share it too: no unpickled row is owned.
        self._owned = set()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices, ``n`` in the paper's notation."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``m`` in the paper's notation."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[v] == other._adj[v] for v in self._adj)

    def __hash__(self) -> int:  # Graphs are mutable; identity hash like list would be misleading.
        raise TypeError(
            "Graph objects are mutable and unhashable; use content_digest() "
            "for a canonical content key"
        )

    def content_digest(self) -> str:
        """Return a canonical SHA-256 hex digest of the graph's content.

        The digest depends only on the vertex labels and the edge set —
        never on insertion order — so two graphs that compare ``==`` always
        share a digest, and any edge/vertex change yields a new one.  This
        is the stable cache key :class:`Graph` deliberately refuses to
        provide via ``__hash__`` (graphs are mutable); callers such as the
        solver service's graph store key prepared artifacts and result
        caches by it.

        The digest is SHA-256 over a version tag and the sum, modulo
        2^2048, of one SHAKE-256 row hash per vertex: the vertex's
        length-prefixed ``"<type>:<repr>"`` token followed by its
        neighbours' tokens in sorted order (see the module docstring for
        why rows and why 2^2048).  Labels therefore need not be orderable
        or of one type, only of stable ``repr`` — true for the ints and
        strings produced by every loader in :mod:`repro.graphs.io`.

        This is the one full computation, O(n + m log Δ).  It leaves the
        row sum on the graph: a later call finishes it in O(1), and
        :meth:`update_edges` moves it in O(sum of touched degrees).
        """
        total = self._digest_sum
        if total is None:
            tokens = {v: _token(v) for v in self._adj}
            total = self._rows_sum(self._adj, tokens.__getitem__) & _ROW_MASK
            self._digest_sum = total
        return _finish(total)

    def _rows_sum(self, vertices: Iterable[Vertex], token_of=_token) -> int:
        adj = self._adj
        return sum(_row_hash(token_of(v), map(token_of, adj[v])) for v in vertices)

    # ------------------------------------------------------------------ #
    # Vertex operations
    # ------------------------------------------------------------------ #
    def vertices(self) -> List[Vertex]:
        """Return a list of all vertices."""
        return list(self._adj)

    def vertex_set(self) -> Set[Vertex]:
        """Return the set of all vertices (a fresh copy)."""
        return set(self._adj)

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` to the graph (no-op if already present)."""
        if vertex not in self._adj:
            self._adj[vertex] = set()
            if self._owned is not None:
                self._owned.add(vertex)
            self._digest_sum = None

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex from ``vertices``."""
        for v in vertices:
            self.add_vertex(v)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not in the graph.
        """
        try:
            nbrs = self._adj.pop(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        for u in nbrs:
            self._own(u).discard(vertex)
        self._num_edges -= len(nbrs)
        self._digest_sum = None

    def remove_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Remove every vertex in ``vertices`` (each must be present)."""
        for v in list(vertices):
            self.remove_vertex(v)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if ``vertex`` is in the graph."""
        return vertex in self._adj

    # ------------------------------------------------------------------ #
    # Edge operations
    # ------------------------------------------------------------------ #
    def edges(self) -> List[Edge]:
        """Return every undirected edge exactly once as ``(u, v)`` pairs."""
        seen: Set[Vertex] = set()
        result: List[Edge] = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    result.append((u, v))
            seen.add(u)
        return result

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over every undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``(u, v)``, adding endpoints as needed.

        Adding an edge that already exists is a no-op.  Self-loops raise
        :class:`~repro.exceptions.SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        adj = self._adj
        if v not in adj[u]:
            if self._owned is not None:  # one test while building, where all rows are owned
                self._own(u)
                self._own(v)
            adj[u].add(v)
            adj[v].add(u)
            self._num_edges += 1
            self._digest_sum = None

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add every edge from ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not in the graph.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._own(u).discard(v)
        self._own(v).discard(u)
        self._num_edges -= 1
        self._digest_sum = None

    def remove_edges(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges`` (each must be present)."""
        for u, v in list(edges):
            self.remove_edge(u, v)

    def update_edges(
        self, adds: Iterable[Edge] = (), removes: Iterable[Edge] = ()
    ) -> Optional[str]:
        """Remove ``removes``, then add ``adds``, as one batch.

        Validation comes first, so a failing batch changes nothing: a
        missing removed edge raises
        :class:`~repro.exceptions.EdgeNotFoundError` and a self-loop
        :class:`~repro.exceptions.SelfLoopError`.  Adds may create vertices
        and adding an existing edge is a no-op, as with :meth:`add_edge`.

        When the graph carries the digest sum of :meth:`content_digest`,
        the sum follows the batch: the touched vertices' rows are re-hashed
        before and after, and the new digest is returned.  Otherwise the
        return value is ``None`` and the next digest is a full one.
        The swapped batch ``update_edges(removes, adds)`` undoes one whose
        adds were absent edges between existing vertices, digest included.
        """
        adds = list(adds)
        removes = list(removes)
        adj = self._adj
        for u, v in removes:
            if u not in adj or v not in adj[u]:
                raise EdgeNotFoundError(u, v)
        for u, v in adds:
            if u == v:
                raise SelfLoopError(u)
        total = self._digest_sum
        if total is not None:
            touched = set(chain.from_iterable(chain(adds, removes)))
            total -= self._rows_sum(touched.intersection(adj))
            self._digest_sum = None  # until the new rows are in
        for u, v in removes:
            if v in adj[u]:
                self._own(u).discard(v)
                self._own(v).discard(u)
                self._num_edges -= 1
        for u, v in adds:
            self.add_edge(u, v)
        if total is None:
            return None
        total = (total + self._rows_sum(touched)) & _ROW_MASK
        self._digest_sum = total
        return _finish(total)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    # ------------------------------------------------------------------ #
    # Neighbourhood queries
    # ------------------------------------------------------------------ #
    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the set of neighbours of ``vertex`` (read-only; do not mutate).

        The set is the graph's row, which a copy may share.  A view taken
        before a write to the graph stops following it once that write
        copied the row: take a fresh one after mutating.

        Raises
        ------
        VertexNotFoundError
            If the vertex is not in the graph.
        """
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        return len(self.neighbors(vertex))

    def degrees(self) -> Dict[Vertex, int]:
        """Return a mapping from vertex to its degree."""
        return {v: len(nbrs) for v, nbrs in self._adj.items()}

    def non_neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return all vertices that are neither ``vertex`` nor adjacent to it.

        This is :math:`\\overline{N}_G(u)` in the paper's notation.
        """
        nbrs = self.neighbors(vertex)
        return {v for v in self._adj if v != vertex and v not in nbrs}

    def common_neighbors(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Return the set of common neighbours of ``u`` and ``v``."""
        nu, nv = self.neighbors(u), self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return {w for w in nu if w in nv}

    def adjacency(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """Return an immutable snapshot of the adjacency structure."""
        return {v: frozenset(nbrs) for v, nbrs in self._adj.items()}

    # ------------------------------------------------------------------ #
    # Subgraphs & relabeling
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (``G[S]`` in the paper).

        Vertices not present in the graph raise
        :class:`~repro.exceptions.VertexNotFoundError`.
        """
        keep = set(vertices)
        for v in keep:
            if v not in self._adj:
                raise VertexNotFoundError(v)
        g = Graph.__new__(Graph)
        g._adj = {v: self._adj[v] & keep for v in keep}
        g._num_edges = sum(len(nbrs) for nbrs in g._adj.values()) // 2
        g._digest_sum = None
        g._owned = None
        return g

    def relabel(self) -> Tuple["Graph", Dict[Vertex, int], List[Vertex]]:
        """Relabel vertices to contiguous integers ``0 .. n-1``.

        Returns
        -------
        (graph, to_int, to_label):
            ``graph`` is the relabeled graph, ``to_int`` maps original labels
            to integer ids, and ``to_label[i]`` recovers the original label of
            integer ``i``.
        """
        to_label = list(self._adj)
        to_int = {label: i for i, label in enumerate(to_label)}
        g = Graph.__new__(Graph)
        g._adj = {
            to_int[v]: {to_int[u] for u in nbrs} for v, nbrs in self._adj.items()
        }
        g._num_edges = self._num_edges
        g._digest_sum = None
        g._owned = None
        return g, to_int, to_label

    def complement(self) -> "Graph":
        """Return the complement graph on the same vertex set."""
        verts = list(self._adj)
        g = Graph(vertices=verts)
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    g.add_edge(u, v)
        return g

    # ------------------------------------------------------------------ #
    # Structural measures
    # ------------------------------------------------------------------ #
    def density(self) -> float:
        """Return the edge density ``2m / (n (n-1))`` (0.0 for n < 2)."""
        n = self.num_vertices
        if n < 2:
            return 0.0
        return 2.0 * self._num_edges / (n * (n - 1))

    def missing_edge_count(self) -> int:
        """Return the number of non-edges, ``|\\bar{E}(g)|`` in the paper."""
        n = self.num_vertices
        return n * (n - 1) // 2 - self._num_edges

    def missing_edges(self) -> List[Edge]:
        """Return every non-edge of the graph (quadratic; use on small graphs)."""
        verts = list(self._adj)
        result: List[Edge] = []
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    result.append((u, v))
        return result

    def is_clique(self, vertices: Optional[Iterable[Vertex]] = None) -> bool:
        """Return ``True`` if the (sub)graph induced by ``vertices`` is a clique.

        With ``vertices=None`` the whole graph is tested (Definition 2.1).
        """
        if vertices is None:
            verts = list(self._adj)
        else:
            verts = list(set(vertices))
            for v in verts:
                if v not in self._adj:
                    raise VertexNotFoundError(v)
        for i, u in enumerate(verts):
            nbrs = self._adj[u]
            for v in verts[i + 1:]:
                if v not in nbrs:
                    return False
        return True

    def count_missing_edges(self, vertices: Iterable[Vertex]) -> int:
        """Return the number of non-edges inside the subgraph induced by ``vertices``."""
        verts = list(set(vertices))
        for v in verts:
            if v not in self._adj:
                raise VertexNotFoundError(v)
        n = len(verts)
        keep = set(verts)
        internal_edges = sum(len(self._adj[v] & keep) for v in verts) // 2
        return n * (n - 1) // 2 - internal_edges

    def triangle_count_per_edge(self) -> Dict[Edge, int]:
        """Return, for every edge, the number of triangles containing it.

        The edge key is normalised so that iteration order of its endpoints in
        the graph decides the tuple order, matching :meth:`edges`.
        """
        support: Dict[Edge, int] = {}
        for u, v in self.iter_edges():
            support[(u, v)] = len(self.common_neighbors(u, v))
        return support

    def validate(self) -> None:
        """Check internal invariants; raise :class:`GraphError` on corruption.

        Intended for tests and debugging: verifies symmetry of the adjacency
        structure, absence of self-loops, and the cached edge count.
        """
        count = 0
        for u, nbrs in self._adj.items():
            if u in nbrs:
                raise GraphError(f"self-loop stored on vertex {u!r}")
            for v in nbrs:
                if v not in self._adj:
                    raise GraphError(f"dangling neighbour {v!r} of {u!r}")
                if u not in self._adj[v]:
                    raise GraphError(f"asymmetric edge ({u!r}, {v!r})")
            count += len(nbrs)
        if count != 2 * self._num_edges:
            raise GraphError(
                f"edge count mismatch: cached {self._num_edges}, actual {count // 2}"
            )


def rows_of(graph: Union[Graph, Rows]) -> Rows:
    """The adjacency rows of ``graph``, or ``graph`` itself when it already is rows.

    A :class:`Graph`'s rows are its internals: read them, never mutate them
    (the edge count and the digest sum would go stale, and a row may be
    shared with a copy of the graph).  Like :meth:`Graph.neighbors`, a row
    taken before a write to the graph stops following it once that write
    copied the row.  Rows of a throwaway graph that owns all of them and was
    never copied, such as the one :meth:`Graph.relabel` returns, are the
    caller's to mutate once the graph is dropped.
    """
    return graph._adj if isinstance(graph, Graph) else graph
