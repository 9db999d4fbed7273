"""Bitset-backed branch-and-bound state: the fast-path twin of :class:`SearchState`.

This mirrors the public API of :class:`~repro.core.instance.SearchState`, but
every vertex set — the candidate set, the partial solution and the adjacency
rows — is stored as an arbitrary-precision Python ``int`` used as a bitmask
(bit ``v`` set ⇔ vertex ``v`` is in the set).  That turns the operations the
solver performs at every node into word-parallel integer arithmetic:

* degrees are ``(adj[v] & verts).bit_count()`` popcounts;
* neighbourhood intersections (RR4, UB1's coloring, the decomposition's
  candidate filters) are single ``&`` operations over n-bit words.

States built over a *local* vertex universe (e.g. one ego subproblem of the
degeneracy decomposition) use masks only as wide as the subproblem, which is
what makes the decomposition driver in :mod:`repro.core.decompose` scale to
graphs far larger than the set-based backend can handle.

The state maintains two invariants:

* ``missing_in_solution`` — number of non-edges inside ``S``;
* ``cost`` — the candidates split by ``|\\bar{N}_S(v)|`` into one mask per
  value ``0..slack`` plus one for the values above the slack (see
  :meth:`BitsetSearchState.cost_masks`).

The instance graph's edge count is not maintained: removals outnumber nodes
(each is also rewound and redone along sibling branches), so the leaf test
counts missing edges on demand with an early exit instead.

Trail (undo stack)
------------------
A state can record every transition on a *trail* so it can be rewound
instead of copied: :meth:`BitsetSearchState.begin_trail` installs the trail,
after which :meth:`add_to_solution`, :meth:`remove_candidate` and
:meth:`remove_candidates` push one reversible entry each (a whole removal
sweep is one entry), and :meth:`rewind_to` pops entries back to a mark
taken with :meth:`trail_mark`.  An entry stores only what the inverse
operation cannot recompute — the previous ``last_added`` and cost split for
an addition, nothing but the removed vertices' mask for a removal; the rest
(the ``missing_in_solution`` delta) is reconstructed from the state itself,
which is valid precisely because rewinding is LIFO: when an entry is popped
the state is bit-for-bit the state right after that entry was pushed.  This
is what the engine in :mod:`repro.core.fastpath` builds on: branching costs
O(changes), not O(n).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

__all__ = ["BitsetSearchState", "iter_bits", "bits_of", "mask_of"]


def mask_of(vertices) -> int:
    """Return the bitmask with exactly the bits of ``vertices`` set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate over the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: ``_BYTE_BITS[b]`` lists the set bit offsets of the byte value ``b``.
_BYTE_BITS = tuple(tuple(i for i in range(8) if (b >> i) & 1) for b in range(256))


def bits_of(mask: int) -> List[int]:
    """Return the set bit positions of ``mask`` as a list (increasing order).

    Adaptive: dense masks walk a byte-level lookup table over
    ``int.to_bytes`` (iterating the bytes object is a C-level loop, so the
    per-element cost is several times lower than repeated lowest-bit
    extraction), while sparse masks — common for the trail engine's dirty
    queues and colour-class members, where a handful of bits sit in a wide
    word — use ``mask & -mask`` extraction and skip the zero bytes
    entirely.  This is the workhorse of every candidate scan in
    :mod:`repro.core.fastpath`.
    """
    if not mask:
        return []
    out: List[int] = []
    append = out.append
    nbytes = (mask.bit_length() + 7) >> 3
    if mask.bit_count() * 3 < nbytes:
        while mask:
            low = mask & -mask
            append(low.bit_length() - 1)
            mask ^= low
        return out
    base = 0
    byte_bits = _BYTE_BITS
    for byte in mask.to_bytes(nbytes, "little"):
        if byte:
            for offset in byte_bits[byte]:
                append(base + offset)
        base += 8
    return out


# Trail entry encoding: a removal is pushed as the int mask of the removed
# candidates (``1 << v`` for one vertex, a whole sweep's mask for a batch;
# restoring is one ``|=``); an addition to ``S`` is pushed as the 3-tuple
# ``(v, previous_last_added, previous_cost)``.


class BitsetSearchState:
    """Mutable branch-and-bound instance ``(g, S)`` over packed adjacency bitmaps.

    Parameters mirror :class:`~repro.core.instance.SearchState`; vertex ids
    must be integers in ``range(len(adj))``.  The ``adj`` list is shared,
    never mutated.
    """

    __slots__ = (
        "adj",
        "k",
        "solution",
        "solution_bits",
        "cand_bits",
        "missing_in_solution",
        "cost",
        "last_added",
        "trail",
        "trail_pushes",
        "trail_pops",
        "_cand_key",
        "_cand_list",
    )

    def __init__(
        self,
        adj: Sequence[int],
        k: int,
        solution: List[int],
        solution_bits: int,
        cand_bits: int,
        missing_in_solution: int,
        cost: List[int],
        last_added: Optional[int],
    ) -> None:
        self.adj = adj
        self.k = k
        self.solution = solution
        self.solution_bits = solution_bits
        self.cand_bits = cand_bits
        self.missing_in_solution = missing_in_solution
        #: The cost split of :meth:`cost_masks`, over a superset of the
        #: candidates (removals leave it alone; consumers intersect).
        self.cost = cost
        self.last_added = last_added
        #: Undo stack; entries are int masks (removals) or 3-tuples (additions).
        self.trail: Optional[list] = None
        self.trail_pushes = 0
        self.trail_pops = 0
        self._cand_key = -1
        self._cand_list: List[int] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def initial(cls, adj: Sequence[int], k: int, vertices_bits: Optional[int] = None) -> "BitsetSearchState":
        """Build the root instance ``(G, ∅)``.

        Parameters
        ----------
        adj:
            Packed adjacency rows indexed by integer vertex id; ``adj[v]``
            has bit ``u`` set iff ``(u, v)`` is an edge.  Shared, never
            mutated.
        k:
            Defectiveness parameter.
        vertices_bits:
            Optional bitmask of the vertex ids forming the instance graph;
            defaults to all of ``range(len(adj))``.
        """
        if vertices_bits is None:
            vertices_bits = (1 << len(adj)) - 1
        return cls(
            adj=adj,
            k=k,
            solution=[],
            solution_bits=0,
            cand_bits=vertices_bits,
            missing_in_solution=0,
            cost=[vertices_bits] + [0] * (k + 1),
            last_added=None,
        )

    # ------------------------------------------------------------------ #
    # Size / structure queries
    # ------------------------------------------------------------------ #
    @property
    def verts_bits(self) -> int:
        """Bitmask of every vertex of the instance graph ``g``."""
        return self.solution_bits | self.cand_bits

    @property
    def graph_size(self) -> int:
        """Number of vertices of the instance graph ``g``."""
        return (self.solution_bits | self.cand_bits).bit_count()

    @property
    def instance_size(self) -> int:
        """The measure ``|I| = |V(g) \\ S|`` used by the complexity analysis."""
        return self.cand_bits.bit_count()

    def graph_vertices(self) -> List[int]:
        """Return all vertices of the instance graph (solution first, then candidates)."""
        return self.solution + bits_of(self.cand_bits)

    def candidate_list(self) -> List[int]:
        """The candidate set as an ascending list, memoised on ``cand_bits``.

        Several per-node consumers (RR3, RR4, the leaf test, UB3, BR) need
        the same materialised candidate bits; the cache is keyed on the
        bitmask itself, so any mutation — including a trail rewind —
        invalidates it by comparison, never by bookkeeping.  Callers must
        treat the returned list as read-only.
        """
        if self._cand_key != self.cand_bits:
            self._cand_list = bits_of(self.cand_bits)
            self._cand_key = self.cand_bits
        return self._cand_list

    def degree(self, v: int) -> int:
        """Degree of ``v`` inside the instance graph (one popcount)."""
        return (self.adj[v] & (self.solution_bits | self.cand_bits)).bit_count()

    def total_edges(self) -> int:
        """Number of edges of the instance graph (counted on demand)."""
        verts = self.solution_bits | self.cand_bits
        adj = self.adj
        return sum((adj[v] & verts).bit_count() for v in iter_bits(verts)) // 2

    def total_missing(self) -> int:
        """Number of non-edges of the whole instance graph ``g``."""
        n = self.graph_size
        return n * (n - 1) // 2 - self.total_edges()

    def is_defective_clique(self, cand_list: Optional[List[int]] = None) -> bool:
        """``True`` iff the entire instance graph is a k-defective clique (leaf test).

        The missing edges are counted on demand with an early exit: first
        the exactly-known ``S``-side misses (``missing_in_solution`` plus a
        popcount per cost mask), then the candidate-internal misses vertex
        by vertex — on non-leaf instances the budget ``k`` is exhausted
        within a few candidates, so the common case costs a handful of
        integer adds and popcounts, not O(n).  ``cand_list`` (the
        materialised candidate bits) is accepted to reuse the engine's
        per-node scan.
        """
        k = self.k
        cand = self.cand_bits
        cost = self.cost
        if cost[-1] & cand:
            return False  # a candidate alone exceeds the slack (or it is negative)
        missing = self.missing_in_solution
        for c in range(1, len(cost) - 1):
            missing += c * (cost[c] & cand).bit_count()
        if missing > k:
            return False
        if cand_list is None:
            cand_list = bits_of(cand)
        adj = self.adj
        remaining = len(cand_list) - 1
        for i, v in enumerate(cand_list[:-1]):
            # Non-neighbours of v among the higher candidates; each missing
            # candidate-candidate pair is counted exactly once.
            higher = (cand >> v >> 1) << v << 1
            missing += remaining - (adj[v] & higher).bit_count()
            if missing > k:
                return False
            remaining -= 1
        return True

    def cost_masks(self) -> List[int]:
        """Split the candidates by their number of non-neighbours in ``S``.

        Returns ``slack + 2`` masks: entry ``c`` (``c <= slack``) holds the
        candidates with exactly ``c`` non-neighbours in ``S``, the last one
        those with more than the slack (RR1's to remove).  With a negative
        slack every candidate is in the single last entry.  The split is
        kept up to date by :meth:`add_to_solution` and restored by
        :meth:`rewind_to`, so this is one ``&`` per mask.
        """
        cand = self.cand_bits
        return [m & cand for m in self.cost]

    def non_nbrs(self, v: int) -> int:
        """Return ``|\\bar{N}_S(v)|``, the number of non-neighbours of ``v`` in ``S``."""
        return (self.solution_bits & ~self.adj[v] & ~(1 << v)).bit_count()

    def missing_if_added(self, v: int) -> int:
        """Return ``|\\bar{E}(S ∪ v)|`` for a candidate ``v`` (one popcount)."""
        return self.missing_in_solution + self.non_nbrs(v)

    def slack(self) -> int:
        """Return ``k - |\\bar{E}(S)|``: missing edges the solution may still absorb."""
        return self.k - self.missing_in_solution

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #
    def add_to_solution(self, v: int) -> None:
        """Move candidate ``v`` into the partial solution ``S``.

        Word-parallel: the candidates outside ``N(v)`` move up one cost and
        the slack drops by ``v``'s cost, O(slack) mask operations in all.
        """
        old = self.cost
        if self.trail is not None:
            self.trail.append((v, self.last_added, old))
            self.trail_pushes += 1
        bit = 1 << v
        cand = self.cand_bits & ~bit
        missing = self.missing_in_solution + self.non_nbrs(v)
        top = self.k - missing + 1
        if top <= 0:
            cost = [cand]
        else:
            near = cand & self.adj[v]
            far = cand & ~near
            cost = [old[0] & near]
            for c in range(1, top):
                cost.append((old[c] & near) | (old[c - 1] & far))
            placed = 0
            for m in cost:
                placed |= m
            cost.append(cand & ~placed)
        self.cost = cost
        self.cand_bits = cand
        self.solution_bits |= bit
        self.solution.append(v)
        self.missing_in_solution = missing
        self.last_added = v

    def remove_candidate(self, v: int) -> None:
        """Delete candidate ``v`` from the instance graph ``g`` (a pure bit-clear)."""
        bit = 1 << v
        if self.trail is not None:
            self.trail.append(bit)
            self.trail_pushes += 1
        self.cand_bits &= ~bit

    def remove_candidates(self, mask: int) -> None:
        """Delete every candidate in ``mask`` at once: one bit-clear, one trail entry.

        ``mask`` must hold candidates only, since rewinding restores it as
        is; an empty mask records nothing.
        """
        if not mask:
            return
        if self.trail is not None:
            self.trail.append(mask)
            self.trail_pushes += 1
        self.cand_bits &= ~mask

    # ------------------------------------------------------------------ #
    # Trail (undo stack)
    # ------------------------------------------------------------------ #
    def begin_trail(self) -> list:
        """Install (and return) an empty trail; subsequent transitions record onto it."""
        self.trail = []
        return self.trail

    def trail_mark(self) -> int:
        """Return the current trail position (pass to :meth:`rewind_to`)."""
        trail = self.trail
        assert trail is not None, "trail_mark() requires begin_trail()"
        return len(trail)

    def rewind_to(self, mark: int) -> int:
        """Undo every transition recorded after ``mark``; return how many were popped.

        Entries are undone LIFO, so each inverse runs against exactly the
        state that existed right after its forward operation — which is what
        lets the inverse recompute the ``missing_in_solution`` delta instead
        of storing it.
        """
        trail = self.trail
        assert trail is not None, "rewind_to() requires begin_trail()"
        popped = len(trail) - mark
        if popped <= 0:
            return 0
        entries = trail[mark:]
        del trail[mark:]
        cand = self.cand_bits
        for entry in reversed(entries):
            if type(entry) is int:
                # Candidate removal: restoring the bits is all there is.
                cand |= entry
                continue
            # Inverse of add_to_solution(v): the split is restored as it was.
            v, self.last_added, self.cost = entry
            self.solution.pop()
            self.solution_bits &= ~(1 << v)
            cand |= 1 << v
            self.missing_in_solution -= self.non_nbrs(v)
        self.cand_bits = cand
        self.trail_pops += popped
        return popped

    # ------------------------------------------------------------------ #
    # Invariant checking (used by tests)
    # ------------------------------------------------------------------ #
    def check_invariants(self) -> None:
        """Recompute every cached quantity from scratch and assert it matches.

        Mirrors :meth:`SearchState.check_invariants`; intended exclusively
        for tests, never called on the hot path.
        """
        assert self.solution_bits == mask_of(self.solution), "solution_bits out of sync with solution list"
        assert not (self.solution_bits & self.cand_bits), "solution and candidates overlap"
        sol = self.solution
        missing = 0
        for i, u in enumerate(sol):
            for w in sol[i + 1:]:
                if not (self.adj[u] >> w) & 1:
                    missing += 1
        assert missing == self.missing_in_solution, (
            f"missing_in_solution mismatch: cached {self.missing_in_solution}, actual {missing}"
        )
        cost = self.cost_masks()
        assert len(cost) == max(self.slack(), -1) + 2, "cost split has the wrong length"
        assert sum(m.bit_count() for m in cost) == self.cand_bits.bit_count(), (
            "cost masks do not partition the candidates"
        )
        for v in iter_bits(self.cand_bits):
            expected = (self.solution_bits & ~self.adj[v]).bit_count()
            assert (cost[min(expected, len(cost) - 1)] >> v) & 1, f"cost mask misplaces {v}"
