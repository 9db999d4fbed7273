"""Solver configuration and the named variants evaluated in the paper.

The paper deliberately separates the techniques needed for the improved time
complexity (branching rule BR plus reduction rules RR1 and RR2 — always on)
from the techniques used purely for practical performance (upper bounds
UB1–UB3, reduction rules RR3–RR6, and the Degen/Degen-opt initial solution).
Every ablation studied in Section 4.2 is therefore expressible as a
:class:`SolverConfig`, and :func:`variant_config` builds the exact
configurations the paper names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from ..exceptions import InvalidParameterError

__all__ = ["SolverConfig", "variant_config", "VARIANT_NAMES", "BACKEND_NAMES"]

#: Search-state backends accepted by :attr:`SolverConfig.backend`.
BACKEND_NAMES = ("auto", "set", "bitset")

#: The solver variants evaluated in the paper's experiments.
VARIANT_NAMES = (
    "kDC",
    "kDC-t",
    "kDC/UB1",
    "kDC/RR3&4",
    "kDC/UB1&RR3&4",
    "kDC-Degen",
)


@dataclass(frozen=True)
class SolverConfig:
    """Feature flags and budgets for :class:`~repro.core.solver.KDCSolver`.

    The defaults correspond to the full ``kDC`` algorithm (Algorithm 2).
    BR, RR1 and RR2 are not configurable: they are the minimal machinery that
    guarantees the :math:`O^*(\\gamma_k^n)` running time and disabling them
    would change the algorithm rather than ablate it.
    """

    #: improved coloring-based upper bound (Section 3.2.1)
    use_ub1: bool = True
    #: min-degree upper bound from [Chen et al. 2021]
    use_ub2: bool = True
    #: degree-sequence upper bound from [Gao et al. 2022]
    use_ub3: bool = True
    #: degree-sequence-based reduction rule (Section 3.2.2)
    use_rr3: bool = True
    #: second-order reduction rule (Section 3.2.2)
    use_rr4: bool = True
    #: (lb - k)-core reduction rule from [Chen et al. 2021]
    use_rr5: bool = True
    #: (lb - k + 1)-truss preprocessing rule from [Gao et al. 2022]
    use_rr6: bool = True
    #: initial solution heuristic: "degen-opt" (Algorithm 4), "degen" (Algorithm 3), or "none"
    initial_heuristic: str = "degen-opt"
    #: search-state backend: "set" (dict/set SearchState) or "bitset" (packed
    #: adjacency bitmaps, see :mod:`repro.core.fastpath`); "auto" is bitset,
    #: and both route an undecomposable instance above 20,000 reduced
    #: vertices to set.  "auto" stays its own value because results-journal
    #: keys and checkpoint identities include it
    backend: str = "auto"
    #: minimum number of (reduced) vertices before the bitset backend switches
    #: from one whole-graph search to the degeneracy decomposition of
    #: :mod:`repro.core.decompose`
    decompose_threshold: int = 128
    #: worker processes for the degeneracy decomposition: 1 (default) solves
    #: the ego subproblems in-process; >= 2 has the same driver farm them to
    #: a :mod:`multiprocessing` pool (:mod:`repro.core.parallel`) sharing one
    #: best-size incumbent.  The optimal size returned is identical for every
    #: worker count; only wall-clock time changes.  Ignored by the set
    #: backend and by whole-graph bitset solves.
    workers: int = 1
    #: wall-clock budget in seconds (None = unlimited)
    time_limit: Optional[float] = None
    #: branch-and-bound node budget (None = unlimited)
    node_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial_heuristic not in ("degen-opt", "degen", "none"):
            raise InvalidParameterError(
                f"initial_heuristic must be 'degen-opt', 'degen' or 'none', got {self.initial_heuristic!r}"
            )
        if self.backend not in BACKEND_NAMES:
            raise InvalidParameterError(
                f"backend must be one of {', '.join(BACKEND_NAMES)}, got {self.backend!r}"
            )
        if self.decompose_threshold < 1:
            raise InvalidParameterError("decompose_threshold must be a positive integer")
        if self.workers < 1:
            raise InvalidParameterError("workers must be a positive integer")
        if self.time_limit is not None and self.time_limit <= 0:
            raise InvalidParameterError("time_limit must be positive or None")
        if self.node_limit is not None and self.node_limit <= 0:
            raise InvalidParameterError("node_limit must be positive or None")

    def with_budget(
        self,
        time_limit: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> "SolverConfig":
        """Return a copy of this configuration with different budgets."""
        return replace(self, time_limit=time_limit, node_limit=node_limit)

    @property
    def uses_practical_techniques(self) -> bool:
        """``True`` unless this is the bare theoretical configuration (kDC-t)."""
        return any(
            (
                self.use_ub1,
                self.use_ub2,
                self.use_ub3,
                self.use_rr3,
                self.use_rr4,
                self.use_rr5,
                self.use_rr6,
                self.initial_heuristic != "none",
            )
        )


#: Configuration deltas for each named paper variant, applied on top of the defaults.
_VARIANT_OVERRIDES: Dict[str, Dict[str, object]] = {
    "kDC": {},
    # Algorithm 1: only BR + RR1 + RR2, nothing else.
    "kDC-t": {
        "use_ub1": False,
        "use_ub2": False,
        "use_ub3": False,
        "use_rr3": False,
        "use_rr4": False,
        "use_rr5": False,
        "use_rr6": False,
        "initial_heuristic": "none",
    },
    "kDC/UB1": {"use_ub1": False},
    "kDC/RR3&4": {"use_rr3": False, "use_rr4": False},
    "kDC/UB1&RR3&4": {"use_ub1": False, "use_rr3": False, "use_rr4": False},
    "kDC-Degen": {"initial_heuristic": "degen", "use_rr6": False},
}


def variant_config(
    name: str,
    time_limit: Optional[float] = None,
    node_limit: Optional[int] = None,
) -> SolverConfig:
    """Return the :class:`SolverConfig` of a named paper variant.

    Parameters
    ----------
    name:
        One of :data:`VARIANT_NAMES`.
    time_limit, node_limit:
        Optional budgets applied to the returned configuration.
    """
    if name not in _VARIANT_OVERRIDES:
        raise InvalidParameterError(
            f"unknown variant {name!r}; expected one of {', '.join(VARIANT_NAMES)}"
        )
    overrides = dict(_VARIANT_OVERRIDES[name])
    overrides["time_limit"] = time_limit
    overrides["node_limit"] = node_limit
    return SolverConfig(**overrides)  # type: ignore[arg-type]
