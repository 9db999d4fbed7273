"""Seeded inputs for the benchmark, generated without the program under test.

The program only ever sees what these functions produce: edge-list files
and JSON-lines protocol payloads.  Generating them here keeps a change to
``repro.graphs.generators`` from silently changing the workloads.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

Edge = Tuple[int, int]


def gnp_edges(n: int, p: float, seed: int) -> List[Edge]:
    """Erdős–Rényi G(n, p) edge list."""
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def powerlaw_cluster_edges(n: int, m: int, p: float, seed: int) -> List[Edge]:
    """Holme–Kim power-law cluster graph: preferential attachment of ``m``
    edges per new vertex, each after the first closing a triangle with
    probability ``p``."""
    rng = random.Random(seed)
    adj: List[Set[int]] = [set() for _ in range(n)]
    repeated = list(range(m))
    edges: List[Edge] = []

    def link(u: int, v: int) -> None:
        repeated.append(v)
        if v not in adj[u]:  # a target may already be linked by a closed triangle
            adj[u].add(v)
            adj[v].add(u)
            edges.append((v, u))

    for source in range(m, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        pool = list(targets)
        target = pool.pop()
        link(source, target)
        count = 1
        while count < m:
            if rng.random() < p:
                closing = [w for w in adj[target] if w != source and w not in adj[source]]
                if closing:
                    link(source, rng.choice(sorted(closing)))
                    count += 1
                    continue
            target = pool.pop()
            link(source, target)
            count += 1
        repeated.extend([source] * m)
    return edges


def write_edge_list(edges: List[Edge], path: str) -> None:
    with open(path, "w") as handle:
        handle.write("".join(f"{u} {v}\n" for u, v in edges))


def adjacency(edges: List[Edge]) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


class Churn:
    """Seeded stream of small edge deltas over one evolving graph.

    Each step adds two uniformly random non-edges and removes one uniformly
    random edge that existed before the step, so every delta is a valid
    transition.
    """

    def __init__(self, edges: List[Edge], seed: int) -> None:
        self.rng = random.Random(seed)
        self.adj = adjacency(edges)
        self.vertices = sorted(self.adj)
        self.edges = [tuple(sorted(e)) for e in edges]
        self.index = {e: i for i, e in enumerate(self.edges)}

    def _absent(self, u: int, v: int) -> bool:
        return u != v and v not in self.adj[u]

    def _add(self, u: int, v: int) -> List[int]:
        e = (min(u, v), max(u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.index[e] = len(self.edges)
        self.edges.append(e)
        return list(e)

    def _remove(self, e: Edge) -> List[int]:
        u, v = e
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        i = self.index.pop(e)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i
        return list(e)

    def step(self) -> Tuple[List[List[int]], List[List[int]]]:
        rng = self.rng
        adds: List[List[int]] = []
        while len(adds) < 2:
            u, v = rng.sample(self.vertices, 2)
            if self._absent(u, v):
                adds.append(self._add(u, v))
        while True:
            e = self.edges[rng.randrange(len(self.edges))]
            if list(e) not in adds:
                return adds, [self._remove(e)]
