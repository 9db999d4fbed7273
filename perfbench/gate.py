"""Correctness gate: every answer must be a valid, optimal k-defective clique
whose size equals an independent reference.

The reference is the KDBB baseline (``repro.baselines.KDBBSolver``), a
separate exact algorithm with its own heuristic, bounds and branching.  It
runs in freshly spawned worker processes on a copy of the input's edge list,
so it never shares a graph object, or the traced run's wrappers, with the
program, and never while a timed operation runs.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from multiprocessing import resource_tracker
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import inputs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A spec rebuilds one input graph: ("gnp", n, p, seed) or ("powerlaw", n, m, p, seed).
Spec = Tuple


def spec_edges(spec: Spec) -> List[inputs.Edge]:
    if spec[0] == "gnp":
        return inputs.gnp_edges(*spec[1:])
    if spec[0] == "powerlaw":
        return inputs.powerlaw_cluster_edges(*spec[1:])
    raise ValueError(f"unknown graph spec {spec!r}")


def check_answer(
    adj: Mapping[int, Set[int]],
    clique: Sequence[int],
    k: int,
    optimal: bool,
    reference: Optional[int],
) -> Optional[str]:
    """Why the answer is wrong, or ``None`` when it passes."""
    if not optimal:
        return "answer is not marked optimal"
    members = set(clique)
    if len(members) != len(clique):
        return "clique repeats a vertex"
    if not members <= adj.keys():
        return "clique names a vertex outside the graph"
    missing = sum(1 for u, v in combinations(members, 2) if v not in adj[u])
    if missing > k:
        return f"clique misses {missing} edges, more than k={k}"
    if reference is None:
        return "no reference size"
    if len(clique) != reference:
        return f"size {len(clique)} differs from reference {reference}"
    return None


def _kdbb_size(edges: Iterable[inputs.Edge], k: int) -> int:
    from repro.baselines import KDBBSolver
    from repro.graphs import Graph

    result = KDBBSolver().solve(Graph(edges=list(edges)), k)
    if not result.optimal:
        raise RuntimeError("reference solve did not finish")
    return result.size


def program_env() -> Dict[str, str]:
    """The environment for a child process that imports the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Reference:
    """Reference sizes from ``workers`` spawned processes.

    Every call blocks until its sizes are in, so a workload that asks
    between two timed operations never has the reference running during one.
    """

    def __init__(self, workers: int) -> None:
        self._pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))

    def size(self, edges: Sequence[inputs.Edge], k: int) -> int:
        return self._pool.submit(_kdbb_size, edges, k).result()

    def sizes(self, tasks: Sequence[Tuple[Sequence[inputs.Edge], int]]) -> List[int]:
        return list(self._pool.map(_kdbb_size, *zip(*tasks)))

    def close(self) -> None:
        self._pool.shutdown()
        # The pool's queues start multiprocessing's resource-tracker process,
        # which nobody waits for: it would outlive the benchmark by a moment.
        # The workers have exited here, so closing its pipe ends it.
        resource_tracker._resource_tracker._stop()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
