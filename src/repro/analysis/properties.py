"""Properties of maximum k-defective cliques (Section 4.3: Tables 5, 6 and 7).

Three analyses are reproduced:

* **Table 5** — ratio of the maximum k-defective clique size over the maximum
  clique size (average and maximum per graph collection);
* **Table 6** — number of graphs whose maximum k-defective clique is an
  extension of a maximum clique (i.e. contains a clique of maximum size);
* **Table 7** — average percentage of vertices inside the maximum k-defective
  clique that are not fully connected to the rest of the clique.

The paper takes the maximum clique size ω from MC-BRB; any exact solver
serves that purpose, and a 0-defective clique is a clique, so here ω and
Table 6's containment test are kDC solves at ``k = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import SolverConfig
from ..core.solver import KDCSolver
from ..graphs.graph import Graph, Vertex

__all__ = [
    "DefectiveCliqueProperties",
    "analyze_graph",
    "size_ratio",
    "extends_maximum_clique",
    "fraction_not_fully_connected",
    "aggregate_properties",
]


@dataclass(frozen=True)
class DefectiveCliqueProperties:
    """Per-graph, per-k property record used by the Tables 5–7 analyses."""

    graph_name: str
    k: int
    max_clique_size: int
    max_defective_clique_size: int
    size_ratio: float
    extends_max_clique: bool
    fraction_not_fully_connected: float
    solved: bool


def size_ratio(defective_size: int, clique_size: int) -> float:
    """Return ``defective_size / clique_size`` (0.0 when the clique size is 0)."""
    if clique_size == 0:
        return 0.0
    return defective_size / clique_size


def extends_maximum_clique(graph: Graph, clique: Sequence[Vertex], max_clique_size: int) -> bool:
    """Return ``True`` if ``clique`` contains a clique of size ``max_clique_size``.

    This is the paper's Table 6 criterion: the reported maximum k-defective
    clique "is an extension of a maximum clique" when some maximum clique of
    the graph is a subset of it.
    """
    return _extends(KDCSolver(), graph, clique, max_clique_size)[0]


def _extends(
    solver: KDCSolver, graph: Graph, clique: Sequence[Vertex], max_clique_size: int
) -> Tuple[bool, bool]:
    """:func:`extends_maximum_clique` under ``solver``'s budget, and whether the answer is exact."""
    if max_clique_size == 0:
        return True, True
    if len(clique) < max_clique_size:
        return False, True
    inner = solver.solve(graph.subgraph(clique), 0)
    extends = inner.size >= max_clique_size
    return extends, extends or inner.optimal


def fraction_not_fully_connected(graph: Graph, clique: Sequence[Vertex]) -> float:
    """Return the fraction of clique vertices with at least one non-neighbour inside the clique."""
    members = list(clique)
    if not members:
        return 0.0
    member_set = set(members)
    not_full = 0
    for v in members:
        nbrs = graph.neighbors(v)
        if any(u != v and u not in nbrs for u in member_set):
            not_full += 1
    return not_full / len(members)


def analyze_graph(
    graph: Graph,
    k: int,
    graph_name: str = "graph",
    config: Optional[SolverConfig] = None,
    time_limit: Optional[float] = None,
) -> DefectiveCliqueProperties:
    """Solve maximum clique and maximum k-defective clique on ``graph`` and report the Table 5–7 metrics.

    Every solve (ω, the k solve and the containment test) runs under one
    budget: ``config``'s when given, else ``time_limit``.
    """
    if config is None:
        config = SolverConfig(time_limit=time_limit)
    return _analyze_k_values(KDCSolver(config), graph, (k,), graph_name)[0]


def _analyze_k_values(
    solver: KDCSolver, graph: Graph, k_values: Sequence[int], graph_name: str
) -> List[DefectiveCliqueProperties]:
    """:func:`analyze_graph` at each of ``k_values``, solving ω once; every solve is ``solver``'s."""
    clique_result = solver.solve(graph, 0)
    omega = clique_result.size
    records = []
    for k in k_values:
        defective = solver.solve(graph, k)
        extends, exact = _extends(solver, graph, defective.clique, omega)
        records.append(DefectiveCliqueProperties(
            graph_name=graph_name,
            k=k,
            max_clique_size=omega,
            max_defective_clique_size=defective.size,
            size_ratio=size_ratio(defective.size, omega),
            extends_max_clique=extends,
            fraction_not_fully_connected=fraction_not_fully_connected(graph, defective.clique),
            solved=defective.optimal and clique_result.optimal and exact,
        ))
    return records


def aggregate_properties(records: Iterable[DefectiveCliqueProperties]) -> Dict[str, float]:
    """Aggregate per-graph records into the row format of Tables 5–7.

    Only records with ``solved=True`` are aggregated, matching the paper's
    convention of reporting properties only for instances solved within the
    time limit.
    """
    solved: List[DefectiveCliqueProperties] = [r for r in records if r.solved]
    if not solved:
        return {
            "count": 0,
            "avg_ratio": 0.0,
            "max_ratio": 0.0,
            "num_extending_max_clique": 0,
            "avg_pct_not_fully_connected": 0.0,
        }
    ratios = [r.size_ratio for r in solved]
    return {
        "count": len(solved),
        "avg_ratio": sum(ratios) / len(ratios),
        "max_ratio": max(ratios),
        "num_extending_max_clique": sum(1 for r in solved if r.extends_max_clique),
        "avg_pct_not_fully_connected": 100.0
        * sum(r.fraction_not_fully_connected for r in solved)
        / len(solved),
    }
