"""KDBB-style baseline solver [Gao et al., AAAI 2022].

KDBB is the practically fastest prior algorithm the paper compares against.
This reimplementation includes the ingredients its authors describe:

* a degeneracy-suffix initial solution (Degen) and preprocessing of the input
  graph by the degree rule (``(lb - k)``-core, RR5) and the common-neighbour
  rule (``(lb - k + 1)``-truss, RR6).  That is kDC's prepare with Degen in
  place of Degen-opt;
* the degree-sequence upper bound UB3 together with the min-degree bound UB2;
* per-node degree-based pruning (RR5) and validity pruning (RR1).

What it deliberately lacks — and what separates it from kDC — is the
non-fully-adjacent-first branching rule BR, the greedy RR2 additions, the
improved coloring bound UB1, and the RR3/RR4 reductions.  Its time complexity
is therefore the trivial O*(2^n) even though it performs well in practice.

:class:`KDBBSolver` is a :class:`~repro.core.solver.KDCSolver` on the set
backend whose three node rules are the ones above: it shares kDC's prepare,
budgets and branch-and-bound.
"""

from __future__ import annotations

from typing import Optional

from ..core.bounds import ub2_min_degree, ub3_degree_sequence
from ..core.config import SolverConfig
from ..core.instance import SearchState
from ..core.reductions import apply_rr1, apply_rr5
from ..core.result import SearchStats
from ..core.solver import KDCSolver

__all__ = ["KDBBSolver"]


class KDBBSolver(KDCSolver):
    """Exact maximum k-defective clique solver in the style of KDBB."""

    name = "KDBB"

    def __init__(self, time_limit: Optional[float] = None, node_limit: Optional[int] = None) -> None:
        # The set backend runs the node rules below in place of kDC's, so
        # of the rest only the prepare knobs and the budgets are read.
        config = SolverConfig(
            initial_heuristic="degen", backend="set", time_limit=time_limit, node_limit=node_limit
        )
        super().__init__(config, name=self.name)

    def _reduce(self, state: SearchState, lower_bound: int, stats: SearchStats) -> bool:
        apply_rr1(state, stats)
        _, prune = apply_rr5(state, lower_bound, stats)
        return prune

    def _prunes(self, state: SearchState, incumbent: int) -> bool:
        return min(ub3_degree_sequence(state), ub2_min_degree(state)) <= incumbent

    def _select(self, state: SearchState) -> Optional[int]:
        if not state.candidates:
            return None
        # Branch on the candidate with the fewest non-neighbours in S (the
        # "most promising" vertex), breaking ties towards higher degree —
        # a common strategy in maximisation branch-and-bound, but without the
        # complexity guarantee that BR provides.
        non_nbrs = state.non_nbrs_in_solution
        degree = state.degree_in_graph
        return min(state.candidates, key=lambda v: (non_nbrs[v], -degree[v], v))
