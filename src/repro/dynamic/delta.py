"""Edge deltas: validated batch mutations and affected-anchor analysis.

A dynamic graph evolves by :class:`EdgeDelta` batches — edge additions and
removals applied atomically.  :func:`apply_delta` turns a snapshot into its
successor and the successor's content digest, which is how the service's
digest chain is built; the digest follows from the predecessor's in
O(sum of the touched vertices' degrees).  :func:`apply_delta_in_place`
changes a graph the caller owns instead.  :func:`affected_anchors` answers
the question the incremental solver lives on: *which ego subproblems of the
previous solve could a delta have invalidated?*

Why only **added** edges invalidate anchors
-------------------------------------------
Let ``G`` be the predecessor, ``G'`` the successor, and suppose the
previous optimum ``S*`` (size ``lb``) is still a valid k-defective clique
in ``G'`` (the caller re-verifies this; see
:meth:`repro.dynamic.incremental.IncrementalSolver.apply`).  Any solution
``S`` valid in ``G'`` with ``|S| > lb`` cannot be valid in ``G`` —
otherwise the previous solve would have found it.  Its missing-edge count
therefore *dropped* going from ``G`` to ``G'``, which only an **added**
edge inside ``S`` can cause: removed edges only add missing pairs.  So
``S`` contains both endpoints of some added edge ``(x, y)``.

Now let ``v`` be the lowest-ranked vertex of ``S`` under the previous
solve's degeneracy order.  ``|S| > lb >= k + 1`` gives ``|S| >= k + 2``,
so ``S`` has diameter at most 2 in ``G'`` [Chen et al. 2021] — hence
``x`` and ``y`` both lie within distance 2 of ``v`` in ``G'``, and both
rank at least ``pos(v)``.  Re-solving exactly the anchors

    ``{v : x, y ∈ B₂(v) and pos(v) <= min(pos(x), pos(y))}``

over all added edges ``(x, y)`` — with the still-valid previous optimum as
the incumbent — is therefore exact.  Removed edges never appear here; they
are handled entirely through incumbent re-verification (a removal can only
shrink the optimum, and if the previous witness survives it, the previous
optimum is still the optimum among all *old* solutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import EdgeNotFoundError, InvalidParameterError, SelfLoopError
from ..graphs.graph import Edge, Graph, Vertex

__all__ = ["EdgeDelta", "affected_anchors", "apply_delta", "apply_delta_in_place"]


def _canonical_edge(edge: Sequence[Vertex]) -> Edge:
    """Normalise one edge: a 2-tuple with a deterministic endpoint order."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise InvalidParameterError(f"delta edges must be (u, v) pairs, got {edge!r}")
    if u == v:
        raise SelfLoopError(u)
    # Arbitrary hashable labels may not be mutually orderable; sort by the
    # same type-tagged key the canonical content digest uses.
    key = lambda x: (str(type(x)), str(x))  # noqa: E731 - tiny local key
    return (u, v) if key(u) <= key(v) else (v, u)


def _canonical_edges(edges: Iterable[Sequence[Vertex]]) -> Tuple[Edge, ...]:
    seen: Dict[Edge, None] = {}
    for edge in edges:
        seen.setdefault(_canonical_edge(edge), None)
    key = lambda e: (str(type(e[0])), str(e[0]), str(type(e[1])), str(e[1]))  # noqa: E731
    return tuple(sorted(seen, key=key))


@dataclass(frozen=True)
class EdgeDelta:
    """One validated, canonicalized batch of edge additions and removals.

    Construction normalises both lists — endpoints ordered deterministically
    within each edge, duplicates dropped, edges sorted — so two deltas
    describing the same mutation compare equal and pickle identically.
    Self-loops raise :class:`~repro.exceptions.SelfLoopError`; an edge in
    both lists, or an entirely empty delta, raises
    :class:`~repro.exceptions.InvalidParameterError` (an empty delta would
    mint no successor digest, so it can only be a caller bug).

    Additions may reference vertices the graph does not have yet — applying
    the delta creates them (and the incremental solver falls back to a full
    solve, since its prepared relabeling cannot cover them).
    """

    adds: Tuple[Edge, ...] = ()
    removes: Tuple[Edge, ...] = ()

    def __init__(
        self,
        adds: Iterable[Sequence[Vertex]] = (),
        removes: Iterable[Sequence[Vertex]] = (),
    ) -> None:
        object.__setattr__(self, "adds", _canonical_edges(adds))
        object.__setattr__(self, "removes", _canonical_edges(removes))
        overlap = set(self.adds) & set(self.removes)
        if overlap:
            raise InvalidParameterError(
                f"delta adds and removes overlap: {sorted(map(str, overlap))}"
            )
        if not self.adds and not self.removes:
            raise InvalidParameterError("a delta must add or remove at least one edge")

    def __len__(self) -> int:
        return len(self.adds) + len(self.removes)

    def vertices(self) -> Set[Vertex]:
        """Every vertex touched by the delta."""
        out: Set[Vertex] = set()
        for u, v in self.adds + self.removes:
            out.add(u)
            out.add(v)
        return out

    def relabel(self, to_int: Mapping[Vertex, int]) -> "EdgeDelta":
        """The same delta over relabeled integer ids.

        Raises ``KeyError`` when an endpoint is outside the relabeling —
        the incremental solver's signal that the graph grew past its
        prepared epoch and a full solve is required.
        """
        return EdgeDelta(
            adds=[(to_int[u], to_int[v]) for u, v in self.adds],
            removes=[(to_int[u], to_int[v]) for u, v in self.removes],
        )

    # ------------------------------------------------------------------ #
    # Wire format (JSON-lines protocol / persistence WAL)
    # ------------------------------------------------------------------ #
    def as_payload(self) -> Dict[str, List[List[Vertex]]]:
        """JSON-ready ``{"adds": [[u, v], ...], "removes": ...}`` form."""
        return {
            "adds": [list(e) for e in self.adds],
            "removes": [list(e) for e in self.removes],
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "EdgeDelta":
        """Rebuild (and re-validate) a delta from its wire form."""
        return cls(adds=payload.get("adds") or (), removes=payload.get("removes") or ())


def apply_delta(graph: Graph, delta: EdgeDelta) -> Tuple[Graph, str]:
    """Return ``(successor, successor_digest)`` for ``graph`` under ``delta``.

    ``graph`` is never modified: the successor is a copy changed by
    :func:`apply_delta_in_place`, with the same strict validation.  The
    copy shares every row the delta leaves alone with ``graph`` (see
    :meth:`Graph.copy`) and keeps ``graph``'s digest sum, so when
    ``graph`` has been digested (or is itself a successor) the successor's
    digest costs only the re-hashed rows of the delta's endpoints, O(sum
    of their degrees); a graph never digested makes the successor's digest
    a full one.
    """
    successor = graph.copy()
    digest = apply_delta_in_place(successor, delta)
    if digest is None:
        digest = successor.content_digest()
    return successor, digest


def apply_delta_in_place(graph: Graph, delta: EdgeDelta) -> Optional[str]:
    """Apply ``delta`` to ``graph`` itself; return its new digest when known.

    Validation is strict and happens before any change — adding an edge
    that already exists raises
    :class:`~repro.exceptions.InvalidParameterError` and removing one that
    does not exist raises :class:`~repro.exceptions.EdgeNotFoundError` — so
    a delta that does not describe a real transition fails loudly instead
    of silently producing a digest chain that skips states, and leaves
    ``graph`` as it was.  The digest comes back only when ``graph`` carried
    its digest sum (see :meth:`Graph.update_edges`); otherwise ``None``.
    ``graph.update_edges(delta.removes, delta.adds)`` undoes a delta whose
    adds created no vertices.
    """
    for u, v in delta.removes:
        if not graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
    for u, v in delta.adds:
        if graph.has_edge(u, v):
            raise InvalidParameterError(
                f"delta adds edge ({u!r}, {v!r}) which already exists"
            )
    return graph.update_edges(delta.adds, delta.removes)


def affected_anchors(
    graph: Graph,
    position: Mapping[Vertex, int],
    delta: EdgeDelta,
    k: int,
) -> Set[Vertex]:
    """Anchors whose journaled ego-subproblem results ``delta`` invalidates.

    Parameters
    ----------
    graph:
        The **successor** graph (``delta`` already applied) — solutions the
        re-solve must find live here, and the diameter-2 balls are taken in
        this graph.
    position:
        Vertex -> rank of the previous solve's degeneracy order (any fixed
        total order is sound; degeneracy just keeps subproblems small).
        Every vertex of ``graph`` must have a rank — callers fall back to a
        full solve when the delta grew the vertex set.
    delta:
        The applied delta.  Only its ``adds`` generate anchors (see the
        module docstring proof); a removal-only delta returns the empty set
        because removals are handled by incumbent re-verification alone.
    k:
        Defectiveness parameter; the argument needs the re-solve to search
        only solutions of size ``>= k + 2``, which the decomposition driver
        guarantees by requiring an incumbent of size ``>= k + 1``.

    Returns
    -------
    The set of anchors ``v`` with both endpoints of some added edge inside
    ``v``'s distance-2 ball and ranked no lower than ``v`` — the only
    anchors where a solution beating a still-valid previous optimum can
    hide.  Every other anchor's journaled result carries over verbatim.
    """
    if k < 0:
        raise InvalidParameterError(f"k must be non-negative, got {k}")
    anchors: Set[Vertex] = set()
    balls: Dict[Vertex, Set[Vertex]] = {}

    def ball2(x: Vertex) -> Set[Vertex]:
        cached = balls.get(x)
        if cached is None:
            cached = {x}
            cached.update(graph.neighbors(x))
            for w in tuple(graph.neighbors(x)):
                cached.update(graph.neighbors(w))
            balls[x] = cached
        return cached

    for x, y in delta.adds:
        cutoff = min(position[x], position[y])
        for v in ball2(x) & ball2(y):
            if position[v] <= cutoff:
                anchors.add(v)
    return anchors
