"""Shape comparison between the paper's published results and the reproduction.

The reproduction cannot match the paper's absolute numbers (different graphs,
different language, different time budgets), so what is checked instead is
the *shape* of the results:

* **who wins** — do the same algorithms, and only they, solve the most
  instances?  A tie where the paper has one winner is a difference.
* **ordering** — is kDC ≥ KDBB ≥ MADEC in solved instances for every k?
* **trends** — do the Table 5/7 quantities grow with k, and do the Table 4
  ratios sit on the same side of 1.0 as the paper's?

:func:`compare_table2_shape` and friends return structured verdicts, which
``repro experiments table2`` prints under the table; the README's benchmark
table names the test that checks each table's claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from ..datasets.paper_reference import TABLE2_SOLVED, paper_winner_table2

__all__ = [
    "ShapeCheck",
    "compare_table2_shape",
    "ordering_holds",
    "trend_is_non_decreasing",
]

#: Maps the reproduction's synthetic collection names to the paper's collection names.
COLLECTION_NAME_MAP: Dict[str, str] = {
    "real_world_like": "real_world",
    "facebook_like": "facebook",
    "dimacs_snap_like": "dimacs_snap",
}


@dataclass(frozen=True)
class ShapeCheck:
    """Outcome of one qualitative comparison against the paper."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "OK " if self.passed else "DIFF"
        return f"[{status}] {self.name}: {self.detail}"


def ordering_holds(solved: Mapping[str, Mapping[int, int]], k: int) -> bool:
    """Return True if kDC >= KDBB >= MADEC in solved instances for the given k."""
    kdc = solved.get("kDC", {}).get(k, 0)
    kdbb = solved.get("KDBB", {}).get(k, 0)
    madec = solved.get("MADEC", {}).get(k, 0)
    return kdc >= kdbb >= madec


def compare_table2_shape(
    measured: Mapping[str, Mapping[str, Mapping[int, int]]],
    k_values: Sequence[int],
) -> List[ShapeCheck]:
    """Compare a measured Table 2 against the paper's, collection by collection.

    ``measured`` maps reproduction collection names to
    ``{algorithm: {k: solved}}`` tables (the output of
    :func:`repro.bench.harness.count_solved` per collection).
    """
    checks: List[ShapeCheck] = []
    for repro_name, solved in measured.items():
        paper_name = COLLECTION_NAME_MAP.get(repro_name)
        for k in k_values:
            ordered = ordering_holds(solved, k)
            checks.append(
                ShapeCheck(
                    name=f"{repro_name} k={k} ordering",
                    passed=ordered,
                    detail="kDC >= KDBB >= MADEC"
                    if ordered
                    else f"measured counts {{alg: solved}} = "
                    f"{ {alg: solved[alg].get(k, 0) for alg in solved} }",
                )
            )
            if paper_name is not None and k in TABLE2_SOLVED[paper_name]["kDC"]:
                paper_best = paper_winner_table2(paper_name, k)
                counts = {alg: solved[alg].get(k, 0) for alg in solved}
                best_count = max(counts.values()) if counts else 0
                measured_best = sorted(alg for alg, c in counts.items() if c == best_count)
                checks.append(
                    ShapeCheck(
                        name=f"{repro_name} k={k} winner",
                        passed=measured_best == paper_best,
                        detail=f"paper winner {paper_best}, measured winner {measured_best}",
                    )
                )
    return checks


def trend_is_non_decreasing(values: Sequence[float], tolerance: float = 1e-9) -> bool:
    """Return True if the sequence never decreases (up to ``tolerance``)."""
    return all(b >= a - tolerance for a, b in zip(values, values[1:]))
