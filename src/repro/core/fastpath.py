"""Bitset fast-path implementations of BR, RR1–RR5 and UB1–UB3.

This module is the word-parallel twin of :mod:`repro.core.branching`,
:mod:`repro.core.reductions` and :mod:`repro.core.bounds`: every rule has the
same pruning semantics as its set-based counterpart (so both backends return
identical optimal sizes), but operates on the packed
:class:`~repro.core.bitset_state.BitsetSearchState` representation.

Performance notes
-----------------
Pure-Python bit iteration is the dominant cost of a bitset kernel, so the
kernel works on masks wherever a rule's decision allows it, and visits
vertices one by one only where a per-vertex popcount decides:

* **Per-cost masks.**  The state splits the candidates by their number of
  non-neighbours in ``S`` (0..slack, plus one mask for those above the
  slack; :meth:`BitsetSearchState.cost_masks
  <repro.core.bitset_state.BitsetSearchState.cost_masks>`).  An addition
  derives the new split in O(slack) mask operations and a rewind restores
  the old one, so no per-vertex counter is kept.  UB3 is then a popcount
  per cost; UB1 needs one popcount per cost and colour class instead of a
  sorted list per class; RR1 removes the mask above the slack; RR3 reads
  its reserved prefix off the counts and extracts ids only in the boundary
  cost class; RR4 scans one cost class at a time; BR scans only the
  cheapest non-empty cost class above 0.
* **One trail entry per removal sweep.**  RR1, RR3 and RR4 decide every
  removal on state the batch does not change, then remove the batch with
  :meth:`~repro.core.bitset_state.BitsetSearchState.remove_candidates`;
  RR5 records one entry per cascade pass.  Rewinding restores a sweep
  with one ``|=``.
* **Root-degree masks.**  :meth:`BitsetEngine.run` builds ``at_least[t]``,
  the vertices of root-instance degree at least ``t``, once per run in
  O(n); RR2 scans only ``at_least[|V(g)| - 2]`` of its queue.
* **RR4 decides from ``cn`` first.**  Its bound is ``|S| + 1 + cn + tail``
  with ``0 <= tail <= slack``, so one popcount settles most candidates and
  only the rest compute the exact tail.
* Where a list is still needed, the set bits are materialised once via
  :func:`~repro.core.bitset_state.bits_of` (a byte-table walk over
  ``int.to_bytes``) and iterated at C speed; the engine extracts the
  candidate list once per node for the leaf test, the coloring and BR, and
  a full recolor shares its degree scan with BR.

:class:`BitsetEngine` is the branch-and-bound driver over that state.  It is
deliberately incumbent-*sharing*: the caller hands it a mutable ``incumbent``
list which the engine grows in place whenever it finds a larger k-defective
clique.  The degeneracy decomposition in :mod:`repro.core.decompose` exploits
this to thread one global lower bound through hundreds of ego subproblems, so
RR5/UB pruning discards most of them without branching.

Trail engine invariants
-----------------------
The engine keeps ONE mutable state for the whole search and makes a node's
cost proportional to what changed, resting on three invariants:

1. **Trail (undo stack).**  Every addition and every removal sweep
   pushes a reversible delta onto the state's trail
   (:meth:`BitsetSearchState.rewind_to` pops them LIFO).  The engine takes a
   mark at node entry and rewinds to it when the node's subtree is explored,
   so after any branch+backtrack the state is restored bit-for-bit — the
   push/pop property tests pin exactly this.

2. **Dirty-vertex worklists.**  Reductions are re-run only over vertices an
   event could actually have re-enabled (:class:`ReductionWorklist`):

   * RR1 (``|\\bar{N}_S(v)| > k - |\\bar{E}(S)|``) can newly fire only after
     a vertex ``w`` joins ``S`` — for every candidate if the budget shrank
     (``w`` has a non-neighbour in ``S``), else only for ``cand \\ N(w)``;
   * RR2 can newly fire only after a *removal* ``u`` (the removal shrinks a
     candidate's non-neighbourhood inside ``g``), and only for
     ``cand \\ N(u)`` — additions monotonically disqualify;
   * RR5 (degree < ``lb - k``) can newly fire only for neighbours of a
     removed vertex, or for everyone when the incumbent (hence the
     threshold) rose since the inherited fixpoint — the engine tracks the
     lower bound each node's RR5 fixpoint was computed at and fully dirties
     RR5 when a node starts with a larger incumbent;
   * RR3 and RR4 are global (sorted-prefix / pairwise-with-``last_added``)
     rules: they keep rule-level dirty flags driven by the same events.

   A vertex is removed from a queue either by being scanned (counted in
   ``SearchStats.dirty_drained``) or by leaving the instance graph.

3. **Repairable coloring bound.**  UB1's colour classes are kept as
   bitmasks.  Deleting vertices keeps every class an independent set, so a
   child *repairs* the inherited classes (one ``&`` per class against the
   surviving candidates) instead of recoloring.  A full degree-ordered
   recolor runs when the staleness counter trips :data:`_RECOLOR_PERIOD`
   — or earlier, when the repaired bound lands within
   :data:`_RECOLOR_MARGIN` of the incumbent, i.e. exactly when a tighter
   partition could still prune (``recolor_full`` / ``recolor_repair``
   count both paths).  ``tests/test_trail.py`` pins the resulting search
   trees with golden DFS traces.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from .bitset_state import BitsetSearchState, bits_of
from .config import SolverConfig
from .result import SearchStats

__all__ = [
    "ReductionWorklist",
    "bitset_rr1",
    "bitset_rr2",
    "bitset_rr3",
    "bitset_rr4",
    "bitset_rr5",
    "bitset_apply_reductions",
    "bitset_color_classes",
    "bitset_ub1_from_classes",
    "bitset_ub2_min_degree",
    "bitset_ub3_degree_sequence",
    "bitset_select_branching_vertex",
    "BitsetEngine",
]

#: "Every vertex" sentinel for dirty masks (``-1 & cand_bits == cand_bits``).
_ALL_DIRTY = -1

#: Number of consecutive nodes allowed to *repair* the inherited
#: coloring-bound classes before a full recolor is forced.  A repaired bound
#: that lands next to the incumbent escalates to a full recolor regardless
#: (:data:`_RECOLOR_MARGIN`), so this caps staleness rather than setting its
#: typical length.
_RECOLOR_PERIOD = 8

#: When a *repaired* coloring bound lands within this margin above the
#: incumbent, a fresh (tighter) coloring might still prune, so the node
#: escalates to a full recolor; further above, staleness cannot change the
#: outcome and the repair is the whole cost.
_RECOLOR_MARGIN = 1


class ReductionWorklist:
    """Per-node dirty-vertex queues driving the engine's reductions.

    One bitmask per vertex-local rule (``rr1``, ``rr2``, ``rr5``); a set bit
    means the vertex must be re-examined by that rule before the node's
    reductions are at fixpoint.  :data:`_ALL_DIRTY` (``-1``) marks every
    vertex dirty.  The rules notify the worklist of the two events that
    propagate dirtiness (see the module docstring's protocol).

    The two global rules have no per-vertex queues of their own; the caller
    seeds their initial work instead: ``rr3`` (bool) requests the RR3 sweep,
    ``rr4`` is the candidate mask RR4 may scan (``_ALL_DIRTY`` for a full
    sweep, typically ``adj[b]`` on an exclude transition).  Rule progress
    inside the drain re-requests RR3.
    """

    __slots__ = ("rr1", "rr2", "rr5", "rr3", "rr4")

    def __init__(
        self, rr1: int = 0, rr2: int = 0, rr5: int = 0,
        rr3: bool = True, rr4: int = _ALL_DIRTY,
    ) -> None:
        self.rr1 = rr1
        self.rr2 = rr2
        self.rr5 = rr5
        self.rr3 = rr3
        self.rr4 = rr4

    def note_removed_batch(self, state: BitsetSearchState, adj_and: int, adj_or: int) -> None:
        """A removal sweep: dirty RR2 on ``cand \\ N(u)`` and RR5 on ``N(u)`` per removed ``u``.

        ``adj_and`` / ``adj_or`` are the intersection / union of the removed
        vertices' adjacency rows.  For the *surviving* candidates
        ``cand & ~adj_and`` equals the union of the per-removal
        ``cand & ~adj[u]`` events, so one batched update costs two word-ops
        total instead of two per removal.
        """
        self.rr2 |= state.cand_bits & ~adj_and
        self.rr5 |= adj_or

    def note_added(self, state: BitsetSearchState, v: int) -> None:
        """Vertex ``v`` joined ``S``: dirty RR1 (everyone if the budget shrank)."""
        if state.non_nbrs(v):
            self.rr1 = _ALL_DIRTY
        else:
            self.rr1 |= state.cand_bits & ~state.adj[v]


# --------------------------------------------------------------------------- #
# Reduction rules
# --------------------------------------------------------------------------- #
def bitset_rr1(
    state: BitsetSearchState,
    mask: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
) -> int:
    """RR1 (excess-removal): drop candidates whose inclusion would exceed ``k`` missing edges.

    Only the candidates in ``mask`` are drained; a vertex outside the mask
    provably cannot violate RR1 given the previously reached fixpoint.  The
    violators are the state's above-slack cost mask, so no candidate is
    visited one by one.
    """
    drained = state.cand_bits & mask
    if stats is not None:
        stats.dirty_drained += drained.bit_count()
    gone = state.cost[-1] & drained
    removed = 0
    if gone:
        adj = state.adj
        adj_and = _ALL_DIRTY
        adj_or = 0
        for v in bits_of(gone):
            adj_v = adj[v]
            adj_and &= adj_v
            adj_or |= adj_v
            removed += 1
        state.remove_candidates(gone)
        worklist.note_removed_batch(state, adj_and, adj_or)
    if stats is not None:
        stats.count_reduction("RR1", removed)
    return removed


def bitset_rr2(
    state: BitsetSearchState,
    mask: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
    at_least: Optional[List[int]] = None,
) -> int:
    """RR2 (high-degree): greedily move candidates adjacent to all but ≤ 1 vertex of ``g`` into ``S``.

    Only the candidates in ``mask`` are examined.  The invariant maintained
    by the worklist protocol is that every currently-qualifying candidate
    is in the mask, so the lowest qualifying vertex inside the mask is the
    lowest qualifying vertex overall — the greedy pick is identical to a
    full scan.  A scanned non-qualifier is dropped from the mask: additions
    can only disqualify further, and any removal that could re-qualify it
    re-dirties it through :meth:`ReductionWorklist.note_removed_batch`.

    ``at_least`` (``at_least[t]``: the vertices whose degree in the engine's
    root instance is at least ``t``) enables an exact mask pre-filter:
    qualification means ``deg_g(v) >= |V(g)| - 2``, and degrees only
    shrink, so only ``at_least[|V(g)| - 2]`` is scanned — which is what
    keeps RR2 cheap on sparse instances, where nearly every removal dirties
    nearly every candidate.
    """
    adj = state.adj
    moved = 0
    pending = mask
    progress = True
    while progress:
        progress = False
        verts = state.solution_bits | state.cand_bits
        # A candidate above the slack could not join S (RR1 removes it).
        scan = state.cand_bits & pending & ~state.cost[-1]
        if at_least is not None:
            # A vertex the mask filters out cannot qualify now; only removing
            # one of its non-neighbours can change that, and the removal
            # queues it again (note_removed_batch).
            t = verts.bit_count() - 2
            if t >= len(at_least):
                break
            if t > 0:
                scan &= at_least[t]
        if not scan:
            break
        scan_list = bits_of(scan)
        if stats is not None:
            stats.dirty_drained += len(scan_list)
        for v in scan_list:
            # "adjacent to all but at most one vertex of g": the non-neighbour
            # mask of v inside g (minus v itself) has at most one bit set.
            others = (verts & ~adj[v]) ^ (1 << v)
            if not (others & (others - 1)):
                state.add_to_solution(v)
                worklist.note_added(state, v)
                moved += 1
                progress = True
                # Moving a vertex into S changes the costs of the remaining
                # candidates: restart the scan.
                break
            pending &= ~(1 << v)
    if stats is not None and moved:
        stats.rr2_additions += moved
    return moved


def bitset_rr3(
    state: BitsetSearchState,
    lower_bound: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
) -> int:
    """RR3 (degree-sequence-based): remove candidates that UB3 proves useless.

    The reserved prefix is the ``lb - |S|`` cheapest candidates by
    ``(cost, id)``, where a candidate's cost is its number of non-neighbours
    in ``S``; a candidate outside it is removed when its cost exceeds the
    slack left after the prefix.  The prefix is read off the per-cost masks
    of :meth:`~repro.core.bitset_state.BitsetSearchState.cost_masks` with a
    popcount per cost, and individual ids are extracted only inside the
    boundary cost class, and only when the threshold falls below it.

    A global sorted-prefix rule, so it has no per-vertex worklist; it only
    *feeds* the worklist with its removals.
    """
    needed = lower_bound - len(state.solution)
    cand = state.cand_bits
    if needed < 0 or needed >= cand.bit_count():
        return 0
    cost = state.cost_masks()
    slack = len(cost) - 2
    remaining = needed
    prefix_cost = 0
    for c in range(slack + 1):
        count = cost[c].bit_count()
        if count >= remaining:
            prefix_cost += c * remaining
            threshold = slack - prefix_cost
            # Every candidate costlier than the threshold goes, except the
            # prefix's share of class c when the threshold falls below c.
            gone = cost[-1]
            for above in cost[max(threshold + 1, c + 1):-1]:
                gone |= above
            if threshold < c:
                rest = cost[c]
                for _ in range(remaining):
                    rest &= rest - 1
                gone |= rest
            break
        prefix_cost += c * count
        remaining -= count
    else:
        # The prefix reaches past the slack, so nothing outside it fits:
        # keep the cheapest of RR1's pending candidates, remove the others.
        over = sorted(bits_of(cost[-1]), key=state.non_nbrs)
        gone = cost[-1]
        for v in over[:remaining]:
            gone &= ~(1 << v)
    removed = gone.bit_count()
    if removed:
        adj = state.adj
        adj_and = _ALL_DIRTY
        adj_or = 0
        for v in bits_of(gone):
            adj_v = adj[v]
            adj_and &= adj_v
            adj_or |= adj_v
        state.remove_candidates(gone)
        worklist.note_removed_batch(state, adj_and, adj_or)
    if stats is not None:
        stats.count_reduction("RR3", removed)
    return removed


def bitset_rr4(
    state: BitsetSearchState,
    lower_bound: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
    mask: Optional[int] = None,
) -> int:
    """RR4 (second-order): pairwise bound with the last-added solution vertex.

    Semantically identical to :func:`repro.core.reductions.apply_rr4`; the
    neighbourhood intersections become single ``&``/popcount operations.

    With ``mask`` only the masked candidates are examined — a sound
    restriction (RR4 only discards provably useless vertices), used by the
    engine on exclude transitions: removing ``b`` lowers the pairwise bound
    mostly for ``b``'s neighbours, so they are the profitable scan.

    A candidate ``v`` is removed when ``|S| + 1 + cn + tail <= lb``, where
    ``cn`` counts the common candidate neighbours of ``v`` and the
    last-added vertex and ``0 <= tail <= slack_v``.  So ``cn`` alone decides
    most candidates: ``v`` stays when ``|S| + 1 + cn > lb`` and goes when
    ``|S| + 1 + cn + slack_v <= lb``; only the rest compute the exact tail.
    """
    u = state.last_added
    cand = state.cand_bits
    if u is None or not cand:
        return 0
    adj = state.adj
    room = state.k - state.missing_in_solution
    u_nbrs_in_cand = adj[u] & cand
    nu_total = u_nbrs_in_cand.bit_count()
    total = cand.bit_count() - 1
    # v stays while cn > keep_above; an undecided v needs tail <= need.
    keep_above = lower_bound - len(state.solution) - 1

    scan = cand
    if mask is not None:
        scan &= mask
        if stats is not None:
            stats.dirty_drained += scan.bit_count()
    removed = 0
    gone = 0
    adj_and = _ALL_DIRTY
    adj_or = 0
    # The candidates above the slack (the last cost mask) are RR1's.
    for c, level in enumerate(state.cost[:-1]):
        level &= scan
        if not level:
            continue
        slack = room - c
        for v in bits_of(level):
            cn = (u_nbrs_in_cand & adj[v]).bit_count()
            if cn > keep_above:
                continue
            need = keep_above - cn
            if slack > need:
                nu = nu_total - ((u_nbrs_in_cand >> v) & 1)
                dv = (adj[v] & cand).bit_count()
                xn = (nu - cn) + (dv - cn)
                if slack > xn:
                    tail = xn + min(total - cn - xn, (slack - xn) // 2)
                    if tail > slack:
                        tail = slack
                else:
                    tail = slack
                if tail > need:
                    continue
            gone |= 1 << v
            adj_v = adj[v]
            adj_and &= adj_v
            adj_or |= adj_v
            removed += 1
    if removed:
        state.remove_candidates(gone)
        worklist.note_removed_batch(state, adj_and, adj_or)
    if stats is not None:
        stats.count_reduction("RR4", removed)
    return removed


def bitset_rr5(
    state: BitsetSearchState,
    lower_bound: int,
    mask: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
) -> Tuple[int, bool]:
    """RR5 (degree / core): remove candidates of degree < ``lb - k`` in the instance graph.

    Returns ``(removed, prune)``; ``prune`` is ``True`` when a *solution*
    vertex violates the degree requirement.

    Only the vertices in ``mask`` (candidates *and* solution members) are
    examined; the removal cascade is drained internally — each removal
    dirties its surviving neighbours — so the unique core fixpoint is
    reached exactly as with a full sweep.  Each pass tests its candidates
    against the vertices surviving so far and records its removals as one
    trail entry.
    """
    threshold = lower_bound - state.k
    if threshold <= 0:
        return 0, False
    adj = state.adj
    removed = 0
    pending = mask
    adj_and = _ALL_DIRTY
    while pending:
        verts = state.solution_bits | state.cand_bits
        sol_pending = pending & state.solution_bits
        cand_scan = bits_of(pending & state.cand_bits)
        if stats is not None:
            stats.dirty_drained += sol_pending.bit_count() + len(cand_scan)
        if sol_pending:
            for u in state.solution:
                if (sol_pending >> u) & 1 and (adj[u] & verts).bit_count() < threshold:
                    if stats is not None:
                        stats.count_reduction("RR5", removed)
                    return removed, True
        pending = 0
        gone = 0
        for v in cand_scan:
            if (adj[v] & verts).bit_count() < threshold:
                bit = 1 << v
                verts ^= bit
                gone |= bit
                # The cascade re-examines the removed vertex's neighbours;
                # RR2 dirtiness is published once, after the drain.
                adj_v = adj[v]
                adj_and &= adj_v
                pending |= adj_v
                removed += 1
        if gone:
            state.remove_candidates(gone)
    if removed:
        worklist.rr2 |= state.cand_bits & ~adj_and
    if stats is not None:
        stats.count_reduction("RR5", removed)
    return removed, False


def bitset_apply_reductions(
    state: BitsetSearchState,
    config: SolverConfig,
    lower_bound: int,
    worklist: ReductionWorklist,
    stats: Optional[SearchStats] = None,
    at_least: Optional[List[int]] = None,
) -> bool:
    """Exhaustively apply the enabled reduction rules (Line 4 of Algorithms 1/2).

    Reaches the same fixpoint as
    :func:`repro.core.reductions.apply_reductions` (RR1/RR2 always,
    RR3/RR4/RR5 when enabled, RR4 at most once per call) but re-runs each
    rule only when an event that can actually re-enable it has happened:

    * RR1 depends only on ``|\\bar{E}(S)|`` and the per-candidate
      ``|\\bar{N}_S(·)|`` counters, which change exclusively when RR2 moves a
      vertex into ``S`` — candidate *removals* never re-enable RR1;
    * RR2 additions keep the instance vertex set and all degrees unchanged,
      so they never re-enable RR5; every removal does;
    * RR3 removes only candidates outside its reserved cheapest prefix, so
      it is a self-fixpoint; RR2 additions and foreign removals re-enable it.

    The vertex-local rules run off the per-vertex dirty masks of the
    :class:`ReductionWorklist`: a rule runs only while its queue is
    non-empty and scans only the queued vertices, draining the queue instead
    of sweeping all candidates.  The caller encodes the branch transition
    in the initial masks.  RR3 and RR4 are full-candidate sweeps by nature,
    so the worklist seeds them per node instead (``worklist.rr3`` /
    ``worklist.rr4``): the engine runs them in full where ``S`` grew, the
    incumbent rose, or the staleness counter tripped, and restricts RR4 to
    the removed vertex's neighbours on other exclude transitions.
    Restricting or skipping a reduction is always sound (rules only discard
    provably useless candidates); it trades a few extra nodes for much
    cheaper ones.

    This skips the full verification pass the dict/set backend pays at every
    node.  ``at_least`` is RR2's root-degree pre-filter (see
    :func:`bitset_rr2`).  Returns ``True`` when RR5 proves the instance can
    be discarded.
    """
    use_rr5 = config.use_rr5
    use_rr3 = config.use_rr3
    wl = worklist
    rr3_dirty = use_rr3 and wl.rr3
    rr4_mask = wl.rr4 if config.use_rr4 else 0
    while wl.rr1 or wl.rr2 or (use_rr5 and wl.rr5) or rr3_dirty or rr4_mask:
        if wl.rr1:
            mask = wl.rr1
            wl.rr1 = 0
            if bitset_rr1(state, mask, wl, stats):
                rr3_dirty = use_rr3
        if wl.rr2:
            mask = wl.rr2
            wl.rr2 = 0
            if bitset_rr2(state, mask, wl, stats, at_least=at_least):
                rr3_dirty = use_rr3
        if use_rr5 and wl.rr5:
            mask = wl.rr5
            wl.rr5 = 0
            removed, prune = bitset_rr5(state, lower_bound, mask, wl, stats)
            if prune:
                return True
            if removed:
                rr3_dirty = use_rr3
        if rr3_dirty:
            rr3_dirty = False
            bitset_rr3(state, lower_bound, wl, stats)
        if rr4_mask:
            mask = None if rr4_mask == _ALL_DIRTY else rr4_mask
            rr4_mask = 0
            if bitset_rr4(state, lower_bound, wl, stats, mask=mask):
                rr3_dirty = use_rr3
    return False


# --------------------------------------------------------------------------- #
# Upper bounds
# --------------------------------------------------------------------------- #
def bitset_color_classes(
    state: BitsetSearchState,
    cand_list: Optional[List[int]] = None,
    degrees: Optional[List[int]] = None,
) -> List[int]:
    """Greedily colour the candidates into independent sets, returned as bitmasks.

    When ``degrees`` is given, candidates are coloured in non-increasing
    instance-degree order (ties towards smaller ids) — the same order as the
    set backend, which keeps UB1 equally tight.  Without it the coloring runs
    in ``cand_list`` order (default: ascending bit order), which is still a
    valid independent-set partition, just potentially looser.
    """
    adj = state.adj
    if cand_list is None:
        cand_list = bits_of(state.cand_bits)
    if degrees is not None:
        # Pack (n - degree, vertex) into one int: a plain ascending sort
        # yields non-increasing degree with ties towards smaller ids.
        n = len(adj)
        shift = n.bit_length()
        id_mask = (1 << shift) - 1
        order = [((n - degrees[v]) << shift) | v for v in cand_list]
        order.sort()
        cand_list = [code & id_mask for code in order]

    class_masks: List[int] = []
    for v in cand_list:
        adjacency = adj[v]
        for i, cmask in enumerate(class_masks):
            if not (cmask & adjacency):
                class_masks[i] = cmask | (1 << v)
                break
        else:
            class_masks.append(1 << v)
    return class_masks


def bitset_ub1_from_classes(
    state: BitsetSearchState,
    class_masks: Sequence[int],
    cost: Optional[List[int]] = None,
) -> int:
    """Evaluate UB1 from pre-computed colour-class bitmasks.

    ``class_masks`` may be stale — each class is intersected with the
    current candidate set, so any partition whose union covers the
    candidates yields a valid bound (vertex deletions only shrink
    independent sets).  This is what lets the engine *repair* an inherited
    coloring instead of rebuilding it.

    Inside a class the member of rank ``j`` (cheapest first) weighs its
    cost plus ``j``, and every selectable weight lies in ``0..slack``.  So a
    class needs only how many members have each cost: one popcount against
    each per-cost mask ``cost`` (default:
    :meth:`~repro.core.bitset_state.BitsetSearchState.cost_masks`), with no
    per-member list and no sort.  A counting sort over the weights then
    replaces the global sort.
    """
    budget = state.slack()
    if budget < 0:
        return len(state.solution)
    if cost is None:
        cost = state.cost_masks()
    cand = state.cand_bits
    limit = budget + 1
    # A difference array over the weights: a class's run of weights
    # w..end-1 costs two updates, and the running sum counts the classes
    # offering each weight.
    diff = [0] * (limit + 1)
    for cmask in class_masks:
        members = cmask & cand
        rank = 0
        for c in range(limit):
            if not members or c + rank >= limit:
                break
            same = members & cost[c]
            if same:
                members ^= same
                size = same.bit_count()
                w = c + rank
                diff[w] += 1
                diff[min(w + size, limit)] -= 1
                rank += size
    avail = diff[0]
    count = avail
    for w in range(1, limit):
        avail += diff[w]
        if not avail:
            continue
        affordable = budget // w
        if affordable < avail:
            count += affordable
            break
        budget -= avail * w
        count += avail
    return len(state.solution) + count


def bitset_ub2_min_degree(state: BitsetSearchState) -> int:
    """The min-degree bound **UB2**: ``min_{u ∈ S} d_g(u) + 1 + k``.

    Computes the |S| solution-vertex degrees itself: the engine's shared
    ``degrees`` array covers candidates only, so reusing it here would be
    incorrect (and UB2 runs before that scan anyway).
    """
    if not state.solution:
        return state.graph_size
    adj = state.adj
    verts = state.solution_bits | state.cand_bits
    return min((adj[u] & verts).bit_count() for u in state.solution) + 1 + state.k


def bitset_ub3_degree_sequence(
    state: BitsetSearchState,
    cand_list: Optional[List[int]] = None,
    cost: Optional[List[int]] = None,
) -> int:
    """The degree-sequence bound **UB3** of KDBB.

    Equivalent to the sort-based set implementation, but because every
    selectable cost lies in ``0..slack`` the greedy prefix is a counting
    sort, and the counts are popcounts of the per-cost masks ``cost``
    (default: :meth:`~repro.core.bitset_state.BitsetSearchState.cost_masks`).
    ``cand_list`` is accepted for callers that pass one, and not used.
    """
    budget = state.slack()
    if budget < 0:
        return len(state.solution)
    if cost is None:
        cost = state.cost_masks()
    count = cost[0].bit_count()
    for c in range(1, budget + 1):
        avail = cost[c].bit_count()
        if not avail:
            continue
        affordable = budget // c
        if affordable < avail:
            count += affordable
            break
        budget -= avail * c
        count += avail
    return len(state.solution) + count


# --------------------------------------------------------------------------- #
# Branching rule BR
# --------------------------------------------------------------------------- #
def bitset_select_branching_vertex(
    state: BitsetSearchState,
    degrees: Optional[List[int]] = None,
    cand_list: Optional[List[int]] = None,
) -> Optional[int]:
    """Branching rule BR on bitmasks (same preference order as the set backend).

    Prefers a candidate with at least one non-neighbour in ``S`` — fewest
    non-neighbours first, ties towards highest degree, then lowest id — and
    falls back to a maximum-degree candidate when every candidate is fully
    adjacent to ``S``.  The cost masks name the cheapest non-empty cost
    above 0, so only that class competes; ``cand_list`` (the candidates in
    ascending order) serves the fallback.
    """
    cand = state.cand_bits
    if not cand:
        return None
    pool = None
    for level in state.cost[1:-1]:
        level &= cand
        if level:
            pool = bits_of(level)
            break
    else:
        # Above the slack (RR1's to remove) the costs differ: rank them.
        costs = [(state.non_nbrs(v), v) for v in bits_of(state.cost[-1] & cand)]
        costs = [pair for pair in costs if pair[0]]
        if costs:
            cheapest = min(costs)[0]
            pool = [v for c, v in costs if c == cheapest]
    if pool is None:
        pool = cand_list if cand_list is not None else bits_of(cand)
    adj = state.adj
    verts = state.solution_bits | cand
    best_vertex = -1
    best_degree = -1
    for v in pool:
        degree = degrees[v] if degrees is not None else (adj[v] & verts).bit_count()
        if degree > best_degree:
            best_degree = degree
            best_vertex = v
    return best_vertex


# --------------------------------------------------------------------------- #
# Branch-and-bound engine
# --------------------------------------------------------------------------- #
#: Engine stack frame tags.
_F_ENTER = 0    # process the node the state is currently positioned at
_F_EXCLUDE = 1  # rewind to the node's post-reduction mark, remove b, then process
_F_UNWIND = 2   # node fully explored: rewind to its entry mark


class BitsetEngine:
    """Branch-and-bound over :class:`BitsetSearchState` with a shared incumbent.

    The undo-stack engine of the module docstring: one mutable state,
    worklist reductions and a repairable coloring bound.  Nodes are visited
    in recursive DFS order (node, include subtree, exclude subtree).

    Parameters
    ----------
    config:
        Feature flags (budgets are enforced via ``check_budget``, not here).
    stats:
        Counters updated in place (shared with the owning solver).
    check_budget:
        Zero-argument callable invoked once per node; raises
        :class:`~repro.exceptions.BudgetExceededError` to interrupt.
    incumbent:
        Mutable list of vertex ids (in the *caller's* id space) holding the
        best solution known so far.  Grown in place on every improvement, so
        several engine runs (e.g. the decomposition's subproblems) share one
        lower bound.
    to_global:
        Optional mapping from this engine's local vertex ids to the caller's
        id space; identity when ``None``.

    Attributes
    ----------
    trace:
        Optional list; when set (by tests) the engine appends
        ``(solution_bits, cand_bits)`` at every node entry, capturing the
        exact DFS sequence the golden-trace tests pin.
    """

    def __init__(
        self,
        config: SolverConfig,
        stats: SearchStats,
        check_budget: Callable[[], None],
        incumbent: List[int],
        to_global: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config
        self.stats = stats
        self.check_budget = check_budget
        self.incumbent = incumbent
        self.to_global = to_global
        self.trace: Optional[List[Tuple[int, int]]] = None

    def run(
        self,
        adj: Sequence[int],
        vertices_bits: int,
        k: int,
        forced: Optional[int] = None,
    ) -> None:
        """Solve one instance, improving ``self.incumbent`` in place.

        Parameters
        ----------
        adj:
            Packed adjacency rows over local vertex ids.
        vertices_bits:
            Bitmask of the instance's vertices.
        k:
            Defectiveness parameter.
        forced:
            Optional local vertex id committed to ``S`` before branching
            (the decomposition forces each subproblem's anchor vertex).

        Notes
        -----
        The search is driven by an explicit stack rather than recursion:
        stack frames carry the *plan* of the DFS, not state snapshots.
        ``ENTER`` processes the node the state is currently positioned at,
        ``EXCLUDE`` rewinds to the owning node's post-reduction mark and
        performs the exclude branch, ``UNWIND`` rewinds to the owning
        node's entry mark once both subtrees are explored.  Frames are
        popped in exactly the recursive DFS order, so arbitrarily deep
        branches need no ``sys.setrecursionlimit`` fiddling — which matters
        inside :mod:`multiprocessing` workers — and the per-node budget poll
        happens at the single loop head.  Every frame's rewind target was
        recorded while expanding the owning node, so an interrupt (budget)
        can simply abandon the state.
        """
        state = BitsetSearchState.initial(adj, k, vertices_bits)
        if forced is not None:
            state.add_to_solution(forced)
        # at_least[t]: the vertices of degree >= t in the root instance,
        # built once per run in O(n).  Degrees only shrink down the tree, so
        # this is RR2's exact mask pre-filter at every node.
        root_degrees = [(row & vertices_bits).bit_count() for row in adj]
        at_least = [0] * (max(root_degrees, default=0) + 1)
        for v, degree in enumerate(root_degrees):
            at_least[degree] |= 1 << v
        for t in range(len(at_least) - 2, -1, -1):
            at_least[t] |= at_least[t + 1]
        state.begin_trail()
        try:
            self._search(state, at_least)
        finally:
            # Budget interrupts abandon the state mid-rewind; the counters
            # must still reach the stats (the solve reports optimal=False).
            self.stats.trail_pushes += state.trail_pushes
            self.stats.trail_pops += state.trail_pops

    def _search(self, state: BitsetSearchState, at_least: List[int]) -> None:
        config = self.config
        stats = self.stats
        check_budget = self.check_budget
        incumbent = self.incumbent
        trace = self.trace
        use_rr5 = config.use_rr5
        use_ub1 = config.use_ub1
        use_ub2 = config.use_ub2
        use_ub3 = config.use_ub3

        # ENTER:   (tag, depth, rr1_mask, rr2_mask, rr5_mask, rr5_lb, classes, stale)
        # EXCLUDE: (tag, depth, branch_vertex, mark_red, rr5_lb, classes, stale)
        # UNWIND:  (tag, mark)
        # The root starts at the staleness boundary so its first node is a
        # "heavy" node: full recolor plus the RR3/RR4 sweeps.
        stack: List[tuple] = [
            (_F_ENTER, 1, _ALL_DIRTY, _ALL_DIRTY, _ALL_DIRTY, 0, None, _RECOLOR_PERIOD)
        ]
        while stack:
            frame = stack.pop()
            tag = frame[0]
            if tag == _F_UNWIND:
                state.rewind_to(frame[1])
                continue
            if tag == _F_EXCLUDE:
                _, depth, b, mark_red, rr5_lb, classes, stale = frame
                state.rewind_to(mark_red)
                state.remove_candidate(b)
                rr1_mask = 0
                rr2_mask = state.cand_bits & ~state.adj[b]
                rr5_mask = state.adj[b]
                fresh_s = False
            else:
                _, depth, rr1_mask, rr2_mask, rr5_mask, rr5_lb, classes, stale = frame
                fresh_s = True

            check_budget()
            stats.nodes += 1
            if depth > stats.max_depth:
                stats.max_depth = depth
            if trace is not None:
                trace.append((state.solution_bits, state.cand_bits))

            mark0 = state.trail_mark()
            lb_used = len(incumbent)
            lb_rose = lb_used > rr5_lb
            if use_rr5 and lb_rose:
                # The (lb - k)-core threshold rose since the inherited RR5
                # fixpoint: every vertex may newly violate it.
                rr5_mask = _ALL_DIRTY
            # The global RR3/RR4 sweeps fire almost exclusively where S grew
            # (a fresh last_added gives RR4 new information; RR3's reserved
            # prefix shifts when |S| or the incumbent does).  On other
            # exclude transitions RR3 is deferred to the next staleness
            # boundary and RR4 scans only the removed vertex's neighbours —
            # the candidates whose pairwise bound the removal lowered.
            recolor = stale >= _RECOLOR_PERIOD
            heavy = fresh_s or recolor or lb_rose
            worklist = ReductionWorklist(
                rr1_mask, rr2_mask, rr5_mask,
                rr3=heavy, rr4=_ALL_DIRTY if heavy else rr5_mask,
            )
            if bitset_apply_reductions(
                state, config, lb_used, worklist, stats, at_least=at_least,
            ):
                state.rewind_to(mark0)
                continue

            cand_list = state.candidate_list()
            if state.is_defective_clique(cand_list):
                stats.leaves += 1
                self._record(state.graph_vertices())
                state.rewind_to(mark0)
                continue

            incumbent_len = len(incumbent)
            if use_ub2 and bitset_ub2_min_degree(state) <= incumbent_len:
                stats.prunes_by_bound += 1
                state.rewind_to(mark0)
                continue
            # One per-cost split of the candidates serves UB3, UB1 and BR at
            # this node (S and the candidates stay put until the branch).
            cost = state.cost_masks() if use_ub1 or use_ub3 else None
            if use_ub3 and bitset_ub3_degree_sequence(state, cost=cost) <= incumbent_len:
                stats.prunes_by_bound += 1
                state.rewind_to(mark0)
                continue

            degrees = None
            if use_ub1:
                if not recolor and classes is not None:
                    # Repair: deletions only shrink classes, so intersecting
                    # with the surviving candidates keeps a valid partition.
                    classes = [m for m in map(state.cand_bits.__and__, classes) if m]
                    stats.recolor_repair += 1
                    ub1 = bitset_ub1_from_classes(state, classes, cost)
                    if ub1 <= incumbent_len:
                        stats.prunes_by_bound += 1
                        state.rewind_to(mark0)
                        continue
                    # A fresh coloring is only worth paying for when it could
                    # change the outcome: the repaired bound landed close
                    # enough to the incumbent that a tighter partition might
                    # prune after all.  Far above the incumbent, staleness is
                    # harmless and the repair is the whole cost.
                    recolor = ub1 <= incumbent_len + _RECOLOR_MARGIN
                if recolor or classes is None:
                    recolor = True
                    degrees = self._degree_scan(state, cand_list)
                    classes = bitset_color_classes(state, cand_list, degrees)
                    stats.recolor_full += 1
                    if bitset_ub1_from_classes(state, classes, cost) <= incumbent_len:
                        stats.prunes_by_bound += 1
                        state.rewind_to(mark0)
                        continue

            # The partial solution S itself is a valid k-defective clique.
            self._record(state.solution)

            # At repair nodes BR computes the degrees it needs itself, and
            # only for its cheapest cost class.
            branching_vertex = bitset_select_branching_vertex(state, degrees, cand_list)
            if branching_vertex is None:
                state.rewind_to(mark0)
                continue

            # Include branch first (recursive DFS order): perform the add now
            # and queue the exclude branch + the final unwind beneath it.
            child_stale = 1 if recolor else stale + 1
            mark_red = state.trail_mark()
            stack.append((_F_UNWIND, mark0))
            stack.append(
                (_F_EXCLUDE, depth + 1, branching_vertex, mark_red,
                 lb_used, classes, child_stale)
            )
            state.add_to_solution(branching_vertex)
            if state.non_nbrs(branching_vertex):
                rr1_child = _ALL_DIRTY  # the missing-edge budget shrank
            else:
                rr1_child = state.cand_bits & ~state.adj[branching_vertex]
            stack.append(
                (_F_ENTER, depth + 1, rr1_child, 0, 0,
                 lb_used, classes, child_stale)
            )

    @staticmethod
    def _degree_scan(state: BitsetSearchState, cand_list: List[int]) -> List[int]:
        """Instance-graph degrees of the candidates (shared by UB1's coloring order and BR)."""
        adj_rows = state.adj
        verts = state.solution_bits | state.cand_bits
        degrees = [0] * len(adj_rows)
        for v in cand_list:
            degrees[v] = (adj_rows[v] & verts).bit_count()
        return degrees

    # -------------------------------------------------------------- #
    def _record(self, vertices: List[int]) -> None:
        if len(vertices) > len(self.incumbent):
            if self.to_global is not None:
                vertices = [self.to_global[v] for v in vertices]
            self.incumbent[:] = vertices
            self.stats.improvements += 1
