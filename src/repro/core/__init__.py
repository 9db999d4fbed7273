"""The paper's core contribution: the kDC maximum k-defective clique solver.

This subpackage contains the branching rule (BR), the reduction rules
(RR1–RR6), the upper bounds (UB1–UB3 plus the original Eq. (2) bound), the
initial-solution heuristics (Degen, Degen-opt), the branch-and-bound solver
itself, and the branching-factor analysis (γ_k / σ_k).
"""

from .bitset_state import BitsetSearchState
from .bounds import (
    best_upper_bound,
    color_candidates,
    eq2_original_coloring,
    ub1_improved_coloring,
    ub2_min_degree,
    ub3_degree_sequence,
)
from .branching import select_branching_vertex
from .checkpoint import SolveCheckpoint, checkpoint_meta
from .config import BACKEND_NAMES, VARIANT_NAMES, SolverConfig, variant_config
from .decompose import build_ego_subproblem, solve_decomposed
from .fastpath import (
    BitsetEngine,
    ReductionWorklist,
    bitset_apply_reductions,
    bitset_color_classes,
    bitset_select_branching_vertex,
    bitset_ub1_from_classes,
    bitset_ub2_min_degree,
    bitset_ub3_degree_sequence,
)
from .defective import (
    defect,
    is_k_defective_clique,
    is_maximal_k_defective_clique,
    missing_edge_count,
    missing_edges,
    validate_k,
)
from .gamma import (
    PAPER_GAMMA_VALUES,
    ComplexityComparison,
    characteristic_polynomial,
    complexity_comparison,
    gamma,
    sigma,
)
from .heuristics import degen, degen_opt, initial_solution
from .instance import SearchState
from .prepared import PreparedInstance, prepare_instance
from .reductions import (
    apply_reductions,
    apply_rr1,
    apply_rr2,
    apply_rr3,
    apply_rr4,
    apply_rr5,
    preprocess_graph,
)
from .result import SearchStats, SolveResult
from .solver import (
    KDCSolver,
    find_maximum_defective_clique,
    maximum_clique,
    maximum_clique_size,
    maximum_defective_clique_size,
)

__all__ = [
    "KDCSolver",
    "find_maximum_defective_clique",
    "maximum_defective_clique_size",
    "maximum_clique",
    "maximum_clique_size",
    "SolverConfig",
    "variant_config",
    "VARIANT_NAMES",
    "BACKEND_NAMES",
    "SolveResult",
    "SearchStats",
    "PreparedInstance",
    "prepare_instance",
    "SearchState",
    "BitsetSearchState",
    "BitsetEngine",
    "ReductionWorklist",
    "bitset_apply_reductions",
    "bitset_color_classes",
    "bitset_select_branching_vertex",
    "bitset_ub1_from_classes",
    "bitset_ub2_min_degree",
    "bitset_ub3_degree_sequence",
    "solve_decomposed",
    "build_ego_subproblem",
    "SolveCheckpoint",
    "checkpoint_meta",
    "select_branching_vertex",
    "apply_reductions",
    "apply_rr1",
    "apply_rr2",
    "apply_rr3",
    "apply_rr4",
    "apply_rr5",
    "preprocess_graph",
    "best_upper_bound",
    "ub1_improved_coloring",
    "ub2_min_degree",
    "ub3_degree_sequence",
    "eq2_original_coloring",
    "color_candidates",
    "degen",
    "degen_opt",
    "initial_solution",
    "is_k_defective_clique",
    "is_maximal_k_defective_clique",
    "missing_edge_count",
    "missing_edges",
    "defect",
    "validate_k",
    "gamma",
    "sigma",
    "characteristic_polynomial",
    "complexity_comparison",
    "ComplexityComparison",
    "PAPER_GAMMA_VALUES",
]
