"""Baseline algorithms the paper compares against.

* :class:`MADECSolver` — MADEC+-style branch and bound (original coloring bound).
* :class:`KDBBSolver` — KDBB-style branch and bound (degree-sequence bound + preprocessing).
* :func:`brute_force_maximum_defective_clique` — exhaustive ground truth for tests.

MADEC and KDBB are :class:`~repro.core.solver.KDCSolver` subclasses on the
set backend that run kDC's prepare and branch-and-bound with their own
per-node reductions, bound and branching rule.  The paper ran MC-BRB only
for each graph's maximum clique size (Tables 5 and 6); here that is kDC at
``k = 0`` (:func:`repro.core.maximum_clique`), so no clique solver is kept.
"""

from .brute_force import (
    brute_force_maximum_defective_clique,
    brute_force_maximum_size,
    enumerate_defective_cliques,
)
from .kdbb import KDBBSolver
from .madec import MADECSolver

__all__ = [
    "MADECSolver",
    "KDBBSolver",
    "brute_force_maximum_defective_clique",
    "brute_force_maximum_size",
    "enumerate_defective_cliques",
]
