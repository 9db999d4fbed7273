"""MADEC+-style baseline solver [Chen et al., Computers & OR 2021].

This reimplementation follows the description in the paper being reproduced:

* the upper bound is the **original** coloring bound, Equation (2) of the
  paper (each colour class may contribute up to ``⌊(1 + sqrt(8k+1)) / 2⌋``
  vertices), combined with the min-degree bound UB2 that the same authors
  proposed;
* branching picks an arbitrary candidate (highest degree in the instance
  graph) — there is no non-fully-adjacent-first rule, so left-branch chains
  can be up to ``2k + 1`` long, which is exactly why MADEC+'s branching
  factor is ``σ_k = γ_{2k}``;
* the only reductions are RR1 (needed for validity) and the degree-based RR5
  from the original MADEC+ paper, both applied per node; there is no RR2,
  RR3, RR4 or RR6;
* the initial solution is Degen and the input graph is not preprocessed:
  kDC's prepare with Degen in place of Degen-opt and RR5/RR6 off.

The point of this baseline is to reproduce the *relative* behaviour reported
in Table 2: MADEC+ falls behind KDBB, which in turn falls behind kDC, and the
gap widens quickly with ``k``.

:class:`MADECSolver` is a :class:`~repro.core.solver.KDCSolver` on the set
backend whose three node rules are the ones above: it shares kDC's prepare,
budgets and branch-and-bound.
"""

from __future__ import annotations

from typing import Optional

from ..core.bounds import eq2_original_coloring, ub2_min_degree
from ..core.config import SolverConfig
from ..core.instance import SearchState
from ..core.reductions import apply_rr1, apply_rr5
from ..core.result import SearchStats
from ..core.solver import KDCSolver

__all__ = ["MADECSolver"]


class MADECSolver(KDCSolver):
    """Exact maximum k-defective clique solver in the style of MADEC+."""

    name = "MADEC"

    def __init__(self, time_limit: Optional[float] = None, node_limit: Optional[int] = None) -> None:
        # The set backend runs the node rules below in place of kDC's, so
        # of the rest only the prepare knobs and the budgets are read.
        config = SolverConfig(
            initial_heuristic="degen", use_rr5=False, use_rr6=False, backend="set",
            time_limit=time_limit, node_limit=node_limit,
        )
        super().__init__(config, name=self.name)

    def _reduce(self, state: SearchState, lower_bound: int, stats: SearchStats) -> bool:
        apply_rr1(state, stats)
        _, prune = apply_rr5(state, lower_bound, stats)
        return prune

    def _prunes(self, state: SearchState, incumbent: int) -> bool:
        return min(eq2_original_coloring(state), ub2_min_degree(state)) <= incumbent

    def _select(self, state: SearchState) -> Optional[int]:
        if not state.candidates:
            return None
        degree = state.degree_in_graph
        return max(state.candidates, key=lambda v: (degree[v], -v))
