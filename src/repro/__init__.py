"""repro — reproduction of "Efficient Maximum k-Defective Clique Computation
with Improved Time Complexity" (Lijun Chang, SIGMOD 2023).

Quick start
-----------
>>> from repro import Graph, find_maximum_defective_clique
>>> g = Graph(edges=[(0, 1), (0, 2), (1, 2), (2, 3)])
>>> result = find_maximum_defective_clique(g, k=2)
>>> result.size
4

Package layout
--------------
* :mod:`repro.graphs` — graph substrate (data structure, k-core, k-truss,
  degeneracy, coloring, generators, I/O);
* :mod:`repro.core` — the kDC solver, branching rule, reduction rules,
  upper bounds, heuristics, and complexity analysis;
* :mod:`repro.baselines` — MADEC+-style, KDBB-style and brute-force
  reference solvers (the maximum clique is kDC at ``k = 0``);
* :mod:`repro.extensions` — top-r and diversified variants (paper Section 6);
* :mod:`repro.analysis` — properties of maximum k-defective cliques;
* :mod:`repro.dynamic` — edge-delta updates, incremental re-solve, and
  temporal graph streams;
* :mod:`repro.datasets` — synthetic benchmark collections;
* :mod:`repro.bench` — experiment drivers for every table and figure.
"""

from .baselines import KDBBSolver, MADECSolver, brute_force_maximum_defective_clique
from .core import (
    KDCSolver,
    SearchStats,
    SolveResult,
    SolverConfig,
    VARIANT_NAMES,
    degen,
    degen_opt,
    find_maximum_defective_clique,
    gamma,
    is_k_defective_clique,
    is_maximal_k_defective_clique,
    maximum_clique,
    maximum_clique_size,
    maximum_defective_clique_size,
    missing_edge_count,
    sigma,
    variant_config,
)
from .dynamic import (
    EdgeDelta,
    IncrementalSolver,
    TemporalGraph,
    apply_delta,
)
from .exceptions import (
    BudgetExceededError,
    GraphError,
    GraphFormatError,
    InvalidParameterError,
    ReproError,
    SolverError,
)
from .extensions import (
    enumerate_maximal_defective_cliques,
    top_r_diversified_defective_cliques,
    top_r_maximal_defective_cliques,
)
from .graphs import Graph, load_graph, save_graph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph substrate
    "Graph",
    "load_graph",
    "save_graph",
    # core solver API
    "KDCSolver",
    "SolverConfig",
    "SolveResult",
    "SearchStats",
    "find_maximum_defective_clique",
    "maximum_defective_clique_size",
    "maximum_clique",
    "maximum_clique_size",
    "variant_config",
    "VARIANT_NAMES",
    "is_k_defective_clique",
    "is_maximal_k_defective_clique",
    "missing_edge_count",
    "degen",
    "degen_opt",
    "gamma",
    "sigma",
    # baselines
    "KDBBSolver",
    "MADECSolver",
    "brute_force_maximum_defective_clique",
    # dynamic graphs
    "EdgeDelta",
    "IncrementalSolver",
    "TemporalGraph",
    "apply_delta",
    # extensions
    "enumerate_maximal_defective_cliques",
    "top_r_maximal_defective_cliques",
    "top_r_diversified_defective_cliques",
    # exceptions
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "InvalidParameterError",
    "SolverError",
    "BudgetExceededError",
]
