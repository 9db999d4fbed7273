"""Degeneracy decomposition driver for the bitset backend.

Instead of branching on the whole (reduced) input graph, large sparse graphs
are split into one small *ego subproblem* per vertex, following the way the
paper's implementation scales to million-edge SNAP/DIMACS10 inputs:

1. compute a degeneracy ordering ``v_1, ..., v_n`` (reusing
   :func:`repro.graphs.degeneracy.degeneracy_ordering`);
2. for each vertex ``v``, solve for the best solution that contains ``v`` as
   its *lowest-ranked* vertex.  Such a solution lives inside ``{v} ∪ N⁺(v) ∪
   N(N⁺(v))`` restricted to higher-ranked vertices, so the subproblem width
   is bounded by roughly ``degeneracy + k`` after filtering;
3. thread one shared incumbent through every subproblem: before any ego
   net is built, a core certificate on ``v``'s higher-ranked neighbours
   (see :func:`build_ego_subproblem`) closes every anchor that cannot hold a
   solution larger than the incumbent, and each surviving engine run starts
   from the current global lower bound, so RR5/UB pruning kills most of the
   rest before any branching happens.

Safety of the candidate restriction rests on the diameter-2 property of
k-defective cliques [Chen et al. 2021]: any k-defective clique ``S`` with
``|S| >= k + 2`` is connected with diameter at most 2, hence every
``u ∈ S \\ {v}`` non-adjacent to ``v`` has a common neighbour with ``v``
*inside* ``S`` — and that witness is a higher-ranked neighbour of ``v``.
Moreover ``u`` and ``v`` each waste at most ``k - 1`` further missing edges
inside ``S``, so ``u`` must have at least ``|S| - 2k`` common neighbours with
``v``; both facts prune the two-hop candidate set.

The driver therefore only searches for solutions of size ``>= lb + 1`` where
``lb >= k + 1`` (so ``lb + 1 >= k + 2``).  Callers must fall back to the
whole-graph solve when the incumbent is smaller than ``k + 1`` —
``repro.core.solver`` does exactly that.

The subproblems are independent once the incumbent bound is shared, which is
what makes them embarrassingly parallel.  :func:`solve_decomposed` is the one
driver for every worker count: with ``config.workers >= 2`` it hands the
anchors to the :mod:`multiprocessing` pool of :mod:`repro.core.parallel`,
whose workers run the same :func:`solve_anchor`, and finishes whatever the
pool could not account for (a lost worker's batch) in its own in-process
loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .checkpoint import SolveCheckpoint

from ..graphs.degeneracy import degeneracy_ordering
from ..graphs.graph import Graph
from .config import SolverConfig
from .fastpath import BitsetEngine
from .result import SearchStats

__all__ = ["build_ego_subproblem", "solve_anchor", "solve_decomposed"]


def solve_anchor(
    neighbors: Callable[[int], Sequence[int]],
    position: Mapping[int, int],
    v: int,
    k: int,
    config: SolverConfig,
    stats: SearchStats,
    check_budget: Callable[[], None],
    incumbent: List[int],
) -> None:
    """Build and exactly solve the ego subproblem anchored at ``v``.

    The per-anchor body of :func:`solve_decomposed`'s in-process loop, of
    the pool workers' batches and of the incremental re-solve: closes the
    anchor on :func:`build_ego_subproblem`'s core certificate before any
    build (counted in ``stats.subproblems_pruned``) or runs one engine
    search (counted in ``stats.subproblems``), growing ``incumbent`` in
    place.  Worker processes and the parent run the same
    :class:`~repro.core.fastpath.BitsetEngine`, so they branch with the same
    per-node cost profile.
    """
    sub = build_ego_subproblem(neighbors, position, v, len(incumbent), k)
    if sub is None:
        stats.subproblems_pruned += 1
        return
    stats.subproblems += 1
    local_vertices, adj_bits = sub
    engine = BitsetEngine(config, stats, check_budget, incumbent, to_global=local_vertices)
    engine.run(adj_bits, (1 << len(local_vertices)) - 1, k, forced=0)


def build_ego_subproblem(
    neighbors: Callable[[int], Sequence[int]],
    position: Mapping[int, int],
    v: int,
    lower_bound: int,
    k: int,
) -> Optional[Tuple[List[int], List[int]]]:
    """Build the ego subproblem anchored at ``v``, or ``None`` if it cannot win.

    Parameters
    ----------
    neighbors:
        Adjacency accessor over the instance graph (``neighbors(u)`` yields
        the neighbours of ``u``); vertices are integer ids with an entry in
        ``position``.
    position:
        Vertex -> rank in the degeneracy ordering.
    v:
        Anchor vertex; the subproblem searches solutions containing ``v`` as
        their lowest-ranked vertex.
    lower_bound:
        Current incumbent size (``>= k + 1``, see module docstring); only
        solutions of size ``>= lower_bound + 1`` are searched for.
    k:
        Defectiveness parameter.

    Returns
    -------
    ``(local_vertices, adj_bits)`` where ``local_vertices[0] == v`` maps
    local ids back to instance ids and ``adj_bits`` is the packed local
    adjacency — or ``None`` when the core certificate below proves no
    solution anchored at ``v`` can beat ``lower_bound``.

    The core certificate
    --------------------
    Before any two-hop scan, the subgraph ``G[N⁺(v)]`` induced by ``v``'s
    higher-ranked neighbours is peeled down to its ``(lb - k - 1)``-core
    (``lb = lower_bound``); fewer than ``lb - k`` survivors close the anchor.
    This is exact:

    * let ``S`` be a k-defective clique with ``|S| >= lb + 1`` whose
      lowest-ranked vertex is ``v``, and ``H = S ∩ N⁺(v)``;
    * each of ``v``'s ``t`` non-neighbours in ``S`` costs one missing edge,
      so ``|H| >= lb - t >= lb - k`` and ``H`` misses at most ``k - t``
      edges;
    * every ``w ∈ H`` therefore has at least ``|H| - 1 - (k - t) >=
      lb - k - 1`` neighbours inside ``H``;
    * so ``H`` lies in the ``(lb - k - 1)``-core of ``G[N⁺(v)]``, and that
      core keeps at least ``lb - k`` vertices.

    The argument does not use the diameter-2 property.  Its trivial case,
    ``|N⁺(v)| < lb - k``, is the size bound ``1 + |N⁺(v)| + k <= lb`` on any
    solution anchored at ``v``.
    Each higher neighbour costs one C-level set intersection, and no row
    that ``neighbors`` returns is mutated (graph rows are shared
    copy-on-write).  An anchor that passes builds exactly the subproblem it
    would without the certificate.
    """
    pos_v = position[v]
    higher = [u for u in neighbors(v) if position[u] > pos_v]
    higher_set = set(higher)
    # The core certificate: peel G[N⁺(v)] on private copies of its rows,
    # stopping as soon as fewer than `need` vertices can survive.
    need = lower_bound - k
    inner = {w: higher_set.intersection(neighbors(w)) for w in higher}
    degree = {w: len(row) for w, row in inner.items()}
    doomed = [w for w, d in degree.items() if d < need - 1]
    removed = set(doomed)
    while doomed and len(higher) - len(removed) >= need:
        for u in inner[doomed.pop()]:
            if u not in removed:
                degree[u] -= 1
                if degree[u] < need - 1:
                    removed.add(u)
                    doomed.append(u)
    if len(higher) - len(removed) < need:
        return None

    target = lower_bound + 1
    # Two-hop candidates: higher-ranked non-neighbours of v reachable
    # through N⁺(v), filtered by the common-neighbour lower bound
    # |N(u) ∩ N(v) ∩ S| >= target - 2k (diameter-2 argument above).
    cn_count: Dict[int, int] = {}
    for w in higher:
        for u in neighbors(w):
            if u != v and u not in higher_set and position[u] > pos_v:
                cn_count[u] = cn_count.get(u, 0) + 1
    cn_threshold = max(1, target - 2 * k)
    two_hop = [u for u, c in cn_count.items() if c >= cn_threshold]

    local_vertices = [v] + higher + two_hop
    local_index = {u: i for i, u in enumerate(local_vertices)}
    width = len(local_vertices)
    adj_bits = [0] * width
    for u, i in local_index.items():
        row = 0
        for w in neighbors(u):
            j = local_index.get(w)
            if j is not None:
                row |= 1 << j
        adj_bits[i] = row
    return local_vertices, adj_bits


def solve_decomposed(
    working: Optional[Graph],
    k: int,
    config: SolverConfig,
    stats: SearchStats,
    check_budget: Callable[[], None],
    incumbent: List[int],
    adj: Optional[Mapping[int, Sequence[int]]] = None,
    decomposition: Optional[Tuple[Sequence[int], Mapping[int, int]]] = None,
    checkpoint: Optional["SolveCheckpoint"] = None,
    deadline: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> None:
    """Solve ``working`` by per-vertex ego subproblems, improving ``incumbent`` in place.

    Parameters
    ----------
    working:
        The (preprocessed) instance graph with integer vertex ids.  Not
        modified.  May be ``None`` when both ``adj`` and ``decomposition``
        are supplied (the prepared-instance path).
    k:
        Defectiveness parameter.
    config:
        Feature flags forwarded to the bitset engine; ``config.workers >= 2``
        runs the anchors across a worker pool (:mod:`repro.core.parallel`).
    stats:
        Counters updated in place.
    check_budget:
        Raises :class:`~repro.exceptions.BudgetExceededError` to interrupt;
        called at least once per in-process subproblem (and once per search
        node by the engine), and while waiting on the pool.
    incumbent:
        Best solution known so far, as a list of ``working`` vertex ids with
        ``len(incumbent) >= k + 1`` (see module docstring).  Grown in place.
    adj:
        Optional precomputed adjacency mapping ``vertex -> neighbour
        sequence`` used instead of ``working.neighbors`` — a
        :class:`~repro.core.prepared.PreparedInstance` supplies its frozen
        ``working_adj`` here so repeated solves skip the rebuild.  It is
        also the pool's payload.
    decomposition:
        Optional precomputed ``(ordering, position)`` degeneracy
        decomposition of the instance; computed from ``working`` when
        absent.
    checkpoint:
        Optional :class:`~repro.core.checkpoint.SolveCheckpoint`.  Anchors
        it journaled as completed by an earlier interrupted run of this
        same solve are skipped (counted in ``stats.subproblems_restored``)
        after restoring its re-verified incumbent, and every anchor
        completed here is journaled in turn: one at a time by the
        in-process loop, per audit-clean round by the pool.  Because each
        anchor is recorded only after its search returns and the
        in-process loop is deterministic from a given incumbent, an
        interrupted-then-resumed ``workers=1`` solve ends bit-identical to
        an uninterrupted one.
    deadline, node_limit:
        The solve's budgets, shipped to pool workers: an absolute
        ``time.monotonic()`` deadline and a total node budget counted on
        top of ``stats.nodes`` (``None`` = unlimited).  The in-process loop
        enforces the same budgets through ``check_budget``.

    Raises
    ------
    BudgetExceededError
        When ``check_budget`` or a pool worker trips a budget; ``incumbent``
        and ``stats`` already include every completed result.
    """
    if len(incumbent) < k + 1:
        raise ValueError(
            "solve_decomposed requires an incumbent of size >= k + 1; "
            "fall back to the whole-graph bitset solve instead"
        )
    stats.workers = 1
    if decomposition is None:
        result = degeneracy_ordering(working)
        ordering, position = result.ordering, result.position
    else:
        ordering, position = decomposition
    neighbors = adj.__getitem__ if adj is not None else working.neighbors

    completed: Sequence[int] = ()
    if checkpoint is not None:
        restored = checkpoint.verified_incumbent(neighbors, k)
        if len(restored) > len(incumbent):
            incumbent[:] = restored
        completed = frozenset(checkpoint.completed)

    # Process anchors in reverse peeling order: the densest part of the graph
    # (where the maximum solution almost always lives) is searched first, so
    # the incumbent tightens early and the core certificate in
    # build_ego_subproblem closes most of the remaining, sparser ego nets
    # without building them.
    anchors = []
    for v in reversed(ordering):
        if v in completed:
            stats.subproblems_restored += 1
        else:
            anchors.append(v)

    if config.workers >= 2 and anchors:
        from .parallel import _solve_in_pool  # here: parallel imports this module

        if adj is None:
            adj = {v: tuple(working.neighbors(v)) for v in working}
        anchors = _solve_in_pool(
            adj, position, anchors, k, config, stats, check_budget, incumbent,
            deadline, node_limit, checkpoint,
        )
        if anchors:
            # Lost-worker recovery: the pool rounds ended with these anchors
            # unaccounted for, so the loop below searches them in-process.
            # Record the degradation: timing consumers (bench records) must
            # not read this solve as having run at full pool width.
            stats.workers = 1

    for v in anchors:
        check_budget()
        solve_anchor(neighbors, position, v, k, config, stats, check_budget, incumbent)
        if checkpoint is not None:
            checkpoint.record(v, incumbent)
