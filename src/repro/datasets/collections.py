"""Synthetic benchmark collections standing in for the paper's graph corpora.

The paper evaluates on three collections — 139 "real-world graphs", 114
Facebook social networks, and 37 DIMACS10&SNAP graphs — none of which can be
downloaded in this offline environment, and none of which would be tractable
for a pure-Python exact solver at their original sizes.  In their place
this module generates three synthetic collections whose qualitative
structure matches what the kDC algorithm exploits:

* ``real_world_like`` — power-law / preferential-attachment graphs with
  varied density plus a few planted near-cliques (mirrors the heterogeneous
  Network Data Repository collection);
* ``facebook_like`` — dense community-structured social graphs (mirrors the
  socfb-* Facebook networks, which contain large near-cliques);
* ``dimacs_snap_like`` — a mix of meshes, sparse random graphs, caveman
  communities and split graphs (mirrors the DIMACS10 & SNAP mix).

Every instance is generated from an explicit seed, so collections are
reproducible across runs and machines.  Three scales are available: ``tiny``
(unit tests / CI), ``small`` (default benchmark harness) and ``medium``
(longer experiments).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from ..exceptions import InvalidParameterError
from ..graphs import generators
from ..graphs.graph import Graph

__all__ = [
    "DatasetInstance",
    "COLLECTION_NAMES",
    "SCALES",
    "real_world_like_collection",
    "facebook_like_collection",
    "dimacs_snap_like_collection",
    "get_collection",
    "all_collections",
]

#: Names of the three collections, mirroring the paper's Table 2 columns.
COLLECTION_NAMES = ("real_world_like", "facebook_like", "dimacs_snap_like")

#: Available collection scales (number of instances / vertex counts grow with scale).
SCALES = ("tiny", "small", "medium")


@dataclass
class DatasetInstance:
    """A named graph instance belonging to a synthetic collection."""

    name: str
    collection: str
    #: zero-argument callable building the graph (graphs are built lazily and cached)
    builder: Callable[[], Graph] = field(repr=False)
    _graph: Optional[Graph] = field(default=None, repr=False)

    @property
    def graph(self) -> Graph:
        """Build (once) and return the instance graph."""
        if self._graph is None:
            self._graph = self.builder()
        return self._graph

    def describe(self) -> str:
        """Return a one-line description including basic size statistics."""
        g = self.graph
        return f"{self.collection}/{self.name}: n={g.num_vertices}, m={g.num_edges}"


_SCALE_FACTORS: Dict[str, float] = {"tiny": 0.35, "small": 1.0, "medium": 2.0}
_SCALE_COUNTS: Dict[str, int] = {"tiny": 4, "small": 10, "medium": 16}


def _check_scale(scale: str) -> None:
    if scale not in _SCALE_FACTORS:
        raise InvalidParameterError(f"unknown scale {scale!r}; expected one of {SCALES}")


def _sized(base: int, scale: str, minimum: int = 20) -> int:
    return max(minimum, int(base * _SCALE_FACTORS[scale]))


def real_world_like_collection(scale: str = "small", seed: int = 20230901) -> List[DatasetInstance]:
    """Generate the ``real_world_like`` collection (heterogeneous sparse graphs)."""
    _check_scale(scale)
    count = _SCALE_COUNTS[scale]
    instances: List[DatasetInstance] = []
    for i in range(count):
        instance_seed = seed + i
        kind = i % 4
        if kind == 0:
            n = _sized(150 + 30 * i, scale)
            instances.append(
                DatasetInstance(
                    name=f"ba_{i:02d}",
                    collection="real_world_like",
                    builder=_bind(generators.barabasi_albert_graph, n, 4, seed=instance_seed),
                )
            )
        elif kind == 1:
            n = _sized(140 + 25 * i, scale)
            instances.append(
                DatasetInstance(
                    name=f"plc_{i:02d}",
                    collection="real_world_like",
                    builder=_bind(generators.powerlaw_cluster_graph, n, 5, 0.5, seed=instance_seed),
                )
            )
        elif kind == 2:
            n = _sized(120 + 20 * i, scale)
            clique = max(8, n // 12)
            instances.append(
                DatasetInstance(
                    name=f"planted_{i:02d}",
                    collection="real_world_like",
                    builder=_bind(
                        generators.planted_defective_clique_graph,
                        n,
                        clique,
                        3,
                        background_p=0.04,
                        seed=instance_seed,
                    ),
                )
            )
        else:
            n = _sized(100 + 20 * i, scale)
            p = 0.06 + 0.01 * (i % 3)
            instances.append(
                DatasetInstance(
                    name=f"gnp_{i:02d}",
                    collection="real_world_like",
                    builder=_bind(generators.gnp_random_graph, n, p, seed=instance_seed),
                )
            )
    return instances


def facebook_like_collection(scale: str = "small", seed: int = 20230902) -> List[DatasetInstance]:
    """Generate the ``facebook_like`` collection (dense community social graphs)."""
    _check_scale(scale)
    count = _SCALE_COUNTS[scale]
    instances: List[DatasetInstance] = []
    for i in range(count):
        instance_seed = seed + i
        n = _sized(100 + 18 * i, scale)
        communities = 4 + i % 4
        intra = 0.45 + 0.04 * (i % 3)
        instances.append(
            DatasetInstance(
                name=f"socfb_{i:02d}",
                collection="facebook_like",
                builder=_bind(
                    generators.social_network_graph,
                    n,
                    num_communities=communities,
                    intra_p=intra,
                    inter_p=0.01,
                    seed=instance_seed,
                ),
            )
        )
    return instances


def dimacs_snap_like_collection(scale: str = "small", seed: int = 20230903) -> List[DatasetInstance]:
    """Generate the ``dimacs_snap_like`` collection (meshes, caveman graphs, split graphs, sparse G(n, m))."""
    _check_scale(scale)
    count = max(3, _SCALE_COUNTS[scale] - 2)
    instances: List[DatasetInstance] = []
    for i in range(count):
        instance_seed = seed + i
        kind = i % 4
        if kind == 0:
            side = max(5, _sized(10 + i, scale, minimum=5))
            instances.append(
                DatasetInstance(
                    name=f"mesh_{i:02d}",
                    collection="dimacs_snap_like",
                    builder=_bind(generators.mesh_graph, side, side + 2),
                )
            )
        elif kind == 1:
            cliques = 6 + i
            size = max(5, _sized(8, scale, minimum=5))
            instances.append(
                DatasetInstance(
                    name=f"caveman_{i:02d}",
                    collection="dimacs_snap_like",
                    builder=_bind(generators.relaxed_caveman_graph, cliques, size, 0.15, seed=instance_seed),
                )
            )
        elif kind == 2:
            clique = max(10, _sized(16, scale, minimum=8))
            independent = clique * 3
            instances.append(
                DatasetInstance(
                    name=f"split_{i:02d}",
                    collection="dimacs_snap_like",
                    builder=_bind(generators.split_graph, clique, independent, 0.4, seed=instance_seed),
                )
            )
        else:
            n = _sized(150 + 25 * i, scale)
            m = n * 4
            instances.append(
                DatasetInstance(
                    name=f"gnm_{i:02d}",
                    collection="dimacs_snap_like",
                    builder=_bind(generators.gnm_random_graph, n, m, seed=instance_seed),
                )
            )
    return instances


_COLLECTION_BUILDERS = {
    "real_world_like": real_world_like_collection,
    "facebook_like": facebook_like_collection,
    "dimacs_snap_like": dimacs_snap_like_collection,
}


def get_collection(name: str, scale: str = "small", seed: Optional[int] = None) -> List[DatasetInstance]:
    """Return the named collection at the requested scale.

    Parameters
    ----------
    name:
        One of :data:`COLLECTION_NAMES`.
    scale:
        One of :data:`SCALES`.
    seed:
        Optional override of the collection's default seed.
    """
    if name not in _COLLECTION_BUILDERS:
        raise InvalidParameterError(
            f"unknown collection {name!r}; expected one of {COLLECTION_NAMES}"
        )
    builder = _COLLECTION_BUILDERS[name]
    if seed is None:
        return builder(scale=scale)
    return builder(scale=scale, seed=seed)


def all_collections(scale: str = "small") -> Dict[str, List[DatasetInstance]]:
    """Return every collection at the requested scale, keyed by collection name."""
    return {name: get_collection(name, scale=scale) for name in COLLECTION_NAMES}


def _bind(func: Callable[..., Graph], *args, **kwargs) -> Callable[[], Graph]:
    """Return a zero-argument builder capturing ``func`` and its arguments."""

    def build() -> Graph:
        return func(*args, **kwargs)

    return build
