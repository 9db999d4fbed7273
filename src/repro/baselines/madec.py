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
  kDC's prepare with Degen in place of Degen-opt and RR5/RR6 off, run
  through :func:`~repro.core.prepared.prepare_instance` under
  :attr:`MADECSolver.prepare_config`.

The point of this baseline is to reproduce the *relative* behaviour reported
in Table 2: MADEC+ falls behind KDBB, which in turn falls behind kDC, and the
gap widens quickly with ``k``.
"""

from __future__ import annotations

from typing import Optional

from ..core.bounds import eq2_original_coloring, ub2_min_degree
from ..core.config import SolverConfig
from ..core.instance import SearchState
from ..core.reductions import apply_rr1, apply_rr5
from .common import BaselineBranchAndBound

__all__ = ["MADECSolver"]


class MADECSolver(BaselineBranchAndBound):
    """Exact maximum k-defective clique solver in the style of MADEC+."""

    name = "MADEC"
    prepare_config = SolverConfig(initial_heuristic="degen", use_rr5=False, use_rr6=False)

    def _reduce(self, state: SearchState, lower_bound: int) -> bool:
        apply_rr1(state, self._stats)
        _, prune = apply_rr5(state, lower_bound, self._stats)
        return prune

    def _upper_bound(self, state: SearchState) -> int:
        return min(eq2_original_coloring(state), ub2_min_degree(state))

    def _select_branching_vertex(self, state: SearchState) -> Optional[int]:
        if not state.candidates:
            return None
        degree = state.degree_in_graph
        return max(state.candidates, key=lambda v: (degree[v], -v))
