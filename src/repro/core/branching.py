"""Branching rule BR: non-fully-adjacent-first branching (Section 3.1.1).

Given an instance ``(g, S)``, the branching vertex is a candidate that has at
least one non-neighbour inside ``S``; only when every candidate is fully
adjacent to ``S`` may an arbitrary candidate be chosen.  Together with
reduction rules RR1 and RR2 this rule is what bounds the length of
left-branch chains by ``k + 2`` in the complexity proof (Fact 3 of
Lemma 3.4).

Within the freedom the rule leaves, this implementation prefers the candidate
with the **fewest** (but at least one) non-neighbours in ``S``, ties broken
towards higher degree in ``g``: its inclusion branch is the most promising,
which raises the incumbent early and feeds the lb-driven reductions.  The
choice does not affect the worst-case analysis.  When every candidate is
fully adjacent to ``S`` it picks a maximum-degree one (ties towards the
smaller id).
"""

from __future__ import annotations

from typing import Optional

from .instance import SearchState

__all__ = ["select_branching_vertex"]


def select_branching_vertex(state: SearchState) -> Optional[int]:
    """Return the branching vertex for ``state`` according to rule BR.

    Returns ``None`` when the candidate set is empty (the caller should have
    recognised the instance as a leaf before branching).
    """
    if not state.candidates:
        return None

    non_nbrs = state.non_nbrs_in_solution
    degree = state.degree_in_graph

    best_vertex: Optional[int] = None
    best_key = None
    for v in state.candidates:
        count = non_nbrs[v]
        if count == 0:
            continue
        # Among the vertices the rule allows, prefer the one with the fewest
        # non-neighbours in S and, among those, the highest degree: its
        # inclusion branch is the most promising, which raises the incumbent
        # early and feeds the lb-driven reductions.
        key = (-count, degree[v])
        if best_key is None or key > best_key:
            best_key = key
            best_vertex = v
    if best_vertex is not None:
        return best_vertex

    # Every candidate is fully adjacent to S: the rule allows an arbitrary
    # choice.  Pick a maximum-degree candidate so the inclusion branch keeps
    # growing through the densest part of the instance.
    return max(state.candidates, key=lambda v: (degree[v], -v))
