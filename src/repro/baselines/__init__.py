"""Baseline algorithms the paper compares against.

* :class:`MADECSolver` — MADEC+-style branch and bound (original coloring bound).
* :class:`KDBBSolver` — KDBB-style branch and bound (degree-sequence bound + preprocessing).
* :class:`MaxCliqueSolver` — exact maximum clique (for the Table 5–6 analyses).
* :func:`brute_force_maximum_defective_clique` — exhaustive ground truth for tests.

MADEC and KDBB are :class:`~repro.core.solver.KDCSolver` subclasses on the
set backend that run kDC's prepare and branch-and-bound with their own
per-node reductions, bound and branching rule.
"""

from .brute_force import (
    brute_force_maximum_defective_clique,
    brute_force_maximum_size,
    enumerate_defective_cliques,
)
from .kdbb import KDBBSolver
from .madec import MADECSolver
from .max_clique import MaxCliqueSolver, maximum_clique, maximum_clique_size

__all__ = [
    "MADECSolver",
    "KDBBSolver",
    "MaxCliqueSolver",
    "maximum_clique",
    "maximum_clique_size",
    "brute_force_maximum_defective_clique",
    "brute_force_maximum_size",
    "enumerate_defective_cliques",
]
