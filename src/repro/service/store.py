"""Digest-keyed graph store with per-``(graph, k)`` prepared-artifact slots.

The store is the service's memory: each graph is loaded once (keyed by its
canonical content digest, so re-adding the same graph — even built in a
different vertex order — is a no-op) and each ``(graph, k, prepare-config)``
combination is prepared at most once, no matter how many concurrent requests
ask for it.  Single-flight deduplication hands every concurrent requester the
same in-progress :class:`~concurrent.futures.Future` instead of preparing the
artifact twice.

A graph is digested in full once, when it is added.  The stored copy keeps
the digest's row sum, so an edge-delta successor's digest costs only the
rows the delta touches (see :mod:`repro.graphs.graph`), and the digest the
store keys by is handed to the prepare instead of being recomputed.

Both caches are optionally bounded: ``max_graphs`` / ``max_prepared`` turn
them into LRU caches, so a long-lived service under an endless stream of
novel graphs degrades to evictions (counted in :meth:`stats`) instead of
growing without bound.  Evicting a graph also drops its prepared artifacts —
they are unreachable once :meth:`get` no longer resolves the digest.

Durability is optional and best-effort: with a
:class:`~repro.service.persistence.ServicePersistence` attached, every added
graph and prepared artifact is snapshotted to disk after it lands in the
in-memory cache.  An edge-delta successor is durable by its delta alone, one
fsynced ``deltas.wal`` record, and is snapshotted only once it lies
:data:`SNAPSHOT_INTERVAL` steps from its nearest snapshotted ancestor, so a
step costs what its delta touched and a restart replays at most that many
deltas onto a snapshot.  Construction restores whatever the state directory
holds: the snapshots, then every successor the delta WAL rebuilds, and only
then applies ``max_graphs`` (counted in :meth:`stats` as ``restored_*``).  A
restore re-digests every graph snapshot rather than trusting its filename,
so a state directory written under an older digest format comes back under
current digests, with its journals and prepared snapshots migrated
(``migrated_digests`` in :meth:`stats`).  Persistence
failures — full disk, bad permissions — log a warning and leave the store
running in-memory; they never fail the request that triggered the write.
On-disk snapshots are not deleted on LRU eviction (they are content-
addressed and cheap), so a restart may restore more than the evicting
process last held.

The store also pickles: live synchronisation state (the lock, in-flight
futures) and the persistence attachment are excluded, so a pickled store
round-trips into an independent, fully functional in-memory copy.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistence import ServicePersistence

from ..core.config import SolverConfig
from ..core.prepared import PreparedInstance, prepare_instance
from ..dynamic.delta import EdgeDelta
from ..dynamic.delta import apply_delta as _apply_edge_delta
from ..exceptions import InvalidParameterError, UnknownGraphError
from ..graphs.graph import Graph
from ..testing import chaos as faults

__all__ = ["GraphStore"]

logger = logging.getLogger("repro.service.store")

#: A successor this many edge-delta steps from its nearest snapshotted
#: ancestor is snapshotted; nearer ones are durable by their delta WAL record
#: alone.  It bounds the deltas a restart replays onto one snapshot.
SNAPSHOT_INTERVAL = 32

#: Cache key of one prepared-artifact slot: the digest, ``k``, and the three
#: prepare-relevant configuration knobs (everything else — backend, workers,
#: budgets — is execute-side and shares the artifact).
_PreparedKey = Tuple[str, int, str, bool, bool]


class GraphStore:
    """Thread-safe store of graphs and their prepared solve artifacts.

    All methods may be called concurrently; preparation of distinct slots
    proceeds in parallel while requests for the *same* slot block on one
    shared computation (single-flight).

    Parameters
    ----------
    max_graphs:
        LRU cap on stored graphs (``None`` = unbounded, the default).
    max_prepared:
        LRU cap on cached prepared artifacts (``None`` = unbounded).
    persistence:
        Optional :class:`~repro.service.persistence.ServicePersistence`;
        when given, construction restores its graph/prepared snapshots and
        delta WAL, and every later addition is made durable best-effort.
    """

    def __init__(
        self,
        max_graphs: Optional[int] = None,
        max_prepared: Optional[int] = None,
        persistence: Optional["ServicePersistence"] = None,
    ) -> None:
        if max_graphs is not None and max_graphs < 1:
            raise InvalidParameterError("max_graphs must be a positive integer or None")
        if max_prepared is not None and max_prepared < 1:
            raise InvalidParameterError("max_prepared must be a positive integer or None")
        self.max_graphs = max_graphs
        self.max_prepared = max_prepared
        self._persistence = persistence
        self._lock = threading.Lock()
        self._graphs: "OrderedDict[str, Graph]" = OrderedDict()
        self._names: Dict[str, str] = {}
        self._prepared: "OrderedDict[_PreparedKey, PreparedInstance]" = OrderedDict()
        self._inflight: Dict[_PreparedKey, Future] = {}
        # Digest chain of edge-delta mutations: child digest -> parent digest
        # (and the delta that produced the child).  Links outlive graph
        # eviction — they are tiny and let delta_chain() answer even when an
        # intermediate snapshot has been LRU-evicted.
        self._parents: Dict[str, str] = {}
        self._deltas: Dict[str, EdgeDelta] = {}
        # Steps from each stored graph to its nearest snapshotted ancestor;
        # absent means 0 (a root, or a graph snapshotted since).  A failed
        # snapshot leaves it in place, so the next successor retries.
        self._since_snapshot: Dict[str, int] = {}
        self._prepares = 0
        self._prepared_hits = 0
        self._graph_evictions = 0
        self._prepared_evictions = 0
        self._restored_graphs = 0
        self._restored_prepared = 0
        self._mutations = 0
        self._restored_deltas = 0
        self._migrated_digests = 0
        if persistence is not None:
            self._restore(persistence)

    def _restore(self, persistence: "ServicePersistence") -> None:
        """Warm the caches from on-disk snapshots (best-effort, never fatal).

        Every snapshot is re-digested instead of trusting its filename, so a
        state directory written under an older digest format restores under
        current digests and never serves a graph under an old one; the
        on-disk state keyed by old digests is then migrated (see
        :meth:`~repro.service.persistence.ServicePersistence.migrate_digests`).

        ``max_graphs`` applies only once the whole delta WAL has replayed: a
        successor rebuilds from its parent, which an earlier eviction could
        have dropped.  The cap then keeps the most recently mutated graphs.
        """
        try:
            with self._lock:
                renamed: Dict[str, str] = {}
                for file_digest, name, graph in persistence.load_graphs():
                    digest = graph.content_digest()
                    if digest != file_digest:
                        renamed[file_digest] = digest
                    if digest in self._graphs:
                        continue
                    self._graphs[digest] = graph
                    if name:
                        self._names[digest] = name
                    self._restored_graphs += 1
                links = self._restore_deltas_locked(persistence, renamed)
                self._evict_graphs_locked()
                if renamed:
                    self._migrated_digests = len(renamed)
                    logger.warning("state directory holds %d graph(s) under an old digest "
                                   "format; migrating to current digests", len(renamed))
                    try:
                        persistence.migrate_digests(renamed, links)
                    except Exception:
                        logger.warning("migrating on-disk state to current digests failed",
                                       exc_info=True)
                for key, artifact in persistence.load_prepared():
                    # An artifact whose graph snapshot is gone (or was just
                    # evicted by the cap) is unreachable; skip it.
                    if key[0] not in self._graphs or key in self._prepared:
                        continue
                    self._prepared[key] = artifact
                    self._restored_prepared += 1
                    if self.max_prepared is not None:
                        while len(self._prepared) > self.max_prepared:
                            self._prepared.popitem(last=False)
                            self._prepared_evictions += 1
        except Exception:
            logger.warning("restoring store state failed; continuing with what loaded",
                           exc_info=True)

    def _restore_deltas_locked(
        self, persistence: "ServicePersistence", renamed: Dict[str, str]
    ) -> List[Tuple[str, str, Optional[str], Tuple, Tuple]]:
        """Replay the delta WAL: re-link the digest chain and rebuild every
        successor that has no snapshot of its own.

        The WAL is append-ordered, so a parent record always lands before
        its children — a whole chain re-materializes from one surviving
        ancestor snapshot.  Each rebuilt successor counts as a restored
        graph and gets back its distance from that snapshot.  A record that
        does not replay cleanly (digest mismatch, absent parent, invalid
        payload) is skipped with a warning; a crash mid-mutation therefore
        degrades to serving the predecessor, never to torn state.

        ``renamed`` maps old-format digests to current ones.  Records are
        read through it, and a successor rebuilt from a renamed parent joins
        it under the digest the rebuild computes (an old-format record's
        digest cannot be checked).  Returns the records that replayed, in
        current digests.
        """
        links = []
        for parent, child, name, adds, removes in persistence.replay_deltas():
            try:
                delta = EdgeDelta(adds=adds, removes=removes)
            except Exception:
                logger.warning("delta WAL record for %s is invalid; skipped", child[:12])
                continue
            old_format = parent in renamed
            if child in renamed and not old_format:
                logger.warning("delta WAL parent %s has no current digest; link to %s dropped",
                               parent[:12], child[:12])
                continue
            parent = renamed.get(parent, parent)
            child = renamed.get(child, child)
            if child not in self._graphs:
                source = self._graphs.get(parent)
                if source is None:
                    logger.warning(
                        "delta WAL parent %s not restored; successor %s unavailable",
                        parent[:12], child[:12],
                    )
                    continue
                try:
                    successor, succ_digest = _apply_edge_delta(source, delta)
                except Exception:
                    logger.warning("replaying delta onto %s failed; skipped",
                                   parent[:12], exc_info=True)
                    continue
                if old_format:
                    renamed[child] = succ_digest
                    child = succ_digest
                elif succ_digest != child:
                    logger.warning(
                        "replayed delta digest %s does not match WAL record %s; skipped",
                        succ_digest[:12], child[:12],
                    )
                    continue
                self._graphs[child] = successor
                if name:
                    self._names[child] = name
                self._restored_graphs += 1
                self._since_snapshot[child] = self._since_snapshot.get(parent, 0) + 1
            else:
                # Snapshots restore in filesystem order; the WAL holds the
                # true mutation order.  Re-touch each child as it replays so
                # "most recently touched bearer of a name" resolves to the
                # chain tip again after a restart.
                self._graphs.move_to_end(child)
            self._parents[child] = parent
            self._deltas[child] = delta
            self._restored_deltas += 1
            links.append((parent, child, name, delta.adds, delta.removes))
        return links

    # ------------------------------------------------------------------ #
    # Graphs
    # ------------------------------------------------------------------ #
    def add(self, graph: Graph, name: Optional[str] = None) -> str:
        """Register ``graph`` (copied) and return its content digest.

        Adding a graph whose digest is already present stores nothing and
        returns the existing digest; ``name`` is a human-readable label kept
        for listings only.  The digest and the copy are made before the
        store's lock is taken, so a large add never stalls requests for
        other graphs.  With ``max_graphs`` set, inserting beyond the cap
        evicts the least-recently-used graph (and its prepared artifacts).
        """
        digest = graph.content_digest()
        # Copy outside the lock: a large graph's copy must not stall every
        # other store operation.  A re-add just drops it.
        stored: Optional[Graph] = graph.copy()
        with self._lock:
            if digest not in self._graphs:
                self._graphs[digest] = stored
                self._evict_graphs_locked()
            else:
                stored = None
                self._graphs.move_to_end(digest)
            if name is not None:
                self._names[digest] = name
        if stored is not None and self._persistence is not None:
            # Outside the lock: the snapshot fsyncs, and a slow (or failing)
            # disk must not serialise every other store operation behind it.
            try:
                self._persistence.save_graph(digest, name, stored)
            except Exception:
                logger.warning("persisting graph %s failed; kept in memory only",
                               digest[:12], exc_info=True)
                with self._lock:
                    if digest in self._graphs:
                        # No snapshot to replay from: its first successor
                        # takes one instead.
                        self._since_snapshot[digest] = SNAPSHOT_INTERVAL
        return digest

    def _evict_graphs_locked(self) -> None:
        if self.max_graphs is None:
            return
        while len(self._graphs) > self.max_graphs:
            evicted, _ = self._graphs.popitem(last=False)
            self._names.pop(evicted, None)
            self._since_snapshot.pop(evicted, None)
            self._graph_evictions += 1
            # Prepared artifacts of an evicted graph are unreachable through
            # the public surface (get() fails first); free them too.
            for key in [k for k in self._prepared if k[0] == evicted]:
                del self._prepared[key]
                self._prepared_evictions += 1

    def get(self, digest: str) -> Graph:
        """Return the stored graph for ``digest`` (the store's own copy; do not mutate)."""
        with self._lock:
            graph = self._graphs.get(digest)
            if graph is not None:
                self._graphs.move_to_end(digest)
        if graph is None:
            raise UnknownGraphError(digest)
        return graph

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._graphs

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def graphs(self) -> Dict[str, str]:
        """Return ``{digest: name}`` for every stored graph (unnamed -> ``""``)."""
        with self._lock:
            return {d: self._names.get(d, "") for d in self._graphs}

    def resolve(self, ref: str) -> str:
        """Resolve a digest *or* a human-readable name to a stored digest.

        A digest match wins; otherwise a name carried by exactly one current
        graph resolves to it (among several bearers — names are labels, not
        keys — the most recently touched one wins, which for a mutate-by-name
        stream is the latest successor).  Anything else raises
        :class:`~repro.exceptions.UnknownGraphError`.
        """
        with self._lock:
            if ref in self._graphs:
                return ref
            match: Optional[str] = None
            for digest in self._graphs:  # OrderedDict: oldest -> newest
                if self._names.get(digest) == ref:
                    match = digest
        if match is None:
            raise UnknownGraphError(ref)
        return match

    # ------------------------------------------------------------------ #
    # Edge-delta mutations
    # ------------------------------------------------------------------ #
    def apply_delta(
        self, digest: str, delta: EdgeDelta, name: Optional[str] = None
    ) -> str:
        """Apply ``delta`` to the stored graph ``digest``; return the successor digest.

        The successor is stored as a first-class graph under its own content
        digest, derived from the predecessor's in O(sum of the touched
        vertices' degrees), with a ``parent_digest`` link back to it.  It
        shares its untouched rows with the predecessor (see
        :meth:`Graph.copy <repro.graphs.graph.Graph.copy>`), which stays
        untouched and servable.  With persistence attached, the delta is
        WAL-journaled so a ``--state-dir`` restart rebuilds the successor
        and keeps the digest chain, and the successor is also snapshotted
        once it is :data:`SNAPSHOT_INTERVAL` steps from its nearest
        snapshotted ancestor.  Everything observable happens only after the
        successor is fully built, so a crash mid-mutation (exercised via the
        ``dynamic.apply`` chaos point) leaves the store exactly as it was.

        With ``max_prepared`` set, the predecessor's prepared artifacts are
        dropped eagerly — a mutated-away snapshot is the coldest thing in
        the cache, and the freed slots go to its successors.
        """
        with self._lock:
            source = self._graphs.get(digest)
            if source is not None:
                self._graphs.move_to_end(digest)
                steps = self._since_snapshot.get(digest, 0) + 1
        if source is None:
            raise UnknownGraphError(digest)
        # The store's graphs are never mutated in place, so reading `source`
        # outside the lock is safe; apply_delta copies before touching it.
        successor, succ_digest = _apply_edge_delta(source, delta)
        faults.fire("dynamic.apply", digest=digest, child=succ_digest,
                    adds=len(delta.adds), removes=len(delta.removes))
        if self._persistence is not None:
            # The fsynced WAL record is the successor's durability point.  It
            # lands before the successor is published, so no mutation of the
            # successor can be journaled ahead of it and a replay always
            # meets a parent before its children.  Outside the lock, like
            # add()'s snapshot: a slow disk must not serialise the store.
            try:
                self._persistence.append_delta(digest, succ_digest, name, delta)
            except Exception:
                logger.warning("journaling delta %s -> %s failed; snapshotting the successor",
                               digest[:12], succ_digest[:12], exc_info=True)
                steps = SNAPSHOT_INTERVAL
        with self._lock:
            if succ_digest not in self._graphs:
                self._graphs[succ_digest] = successor
                self._since_snapshot[succ_digest] = steps
            else:
                self._graphs.move_to_end(succ_digest)
            snapshot_due = self._since_snapshot.get(succ_digest, 0) >= SNAPSHOT_INTERVAL
            if name is not None:
                self._names[succ_digest] = name
            self._parents[succ_digest] = digest
            self._deltas[succ_digest] = delta
            self._mutations += 1
            if self.max_prepared is not None:
                for key in [key for key in self._prepared if key[0] == digest]:
                    del self._prepared[key]
                    self._prepared_evictions += 1
            self._evict_graphs_locked()
        if snapshot_due and self._persistence is not None:
            # Bounds the replay a restart needs.  A failure keeps the
            # distance, so the next successor tries again.
            try:
                self._persistence.save_graph(succ_digest, name, successor)
            except Exception:
                logger.warning("snapshotting successor %s failed; the next successor retries",
                               succ_digest[:12], exc_info=True)
            else:
                with self._lock:
                    self._since_snapshot.pop(succ_digest, None)
        return succ_digest

    def parent_digest(self, digest: str) -> Optional[str]:
        """The digest this one was mutated from, or ``None`` for roots."""
        with self._lock:
            return self._parents.get(digest)

    def delta_chain(
        self, ancestor: str, descendant: str, max_steps: int = 64
    ) -> Optional[list]:
        """The delta path ``ancestor -> descendant`` as ``[(digest, delta), ...]``.

        Each entry is the successor digest and the delta that produced it,
        oldest first — exactly the replay an
        :class:`~repro.dynamic.incremental.IncrementalSolver` positioned at
        ``ancestor`` needs to answer ``descendant``.  Returns ``None`` when
        no link path exists (or it exceeds ``max_steps``, past which a full
        solve is the better deal anyway).  ``ancestor == descendant`` is the
        empty chain.
        """
        with self._lock:
            chain = []
            current = descendant
            for _ in range(max_steps + 1):
                if current == ancestor:
                    chain.reverse()
                    return chain
                parent = self._parents.get(current)
                if parent is None:
                    return None
                chain.append((current, self._deltas[current]))
                current = parent
            return None

    # ------------------------------------------------------------------ #
    # Prepared artifacts
    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(digest: str, k: int, config: SolverConfig) -> _PreparedKey:
        return (digest, k, config.initial_heuristic, config.use_rr5, config.use_rr6)

    def prepared(
        self, digest: str, k: int, config: Optional[SolverConfig] = None
    ) -> PreparedInstance:
        """Return the prepared artifact for ``(digest, k, config)``, building it once.

        The first caller of a slot runs :func:`prepare_instance`, passing it
        ``digest`` so the graph is not digested again; concurrent callers of
        the same slot wait on that computation instead of repeating it, and
        later callers get the cached artifact immediately.
        A failed preparation is not cached — the next request retries.
        """
        if config is None:
            config = SolverConfig()
        key = self._key(digest, k, config)
        with self._lock:
            artifact = self._prepared.get(key)
            if artifact is not None:
                self._prepared_hits += 1
                self._prepared.move_to_end(key)
                return artifact
            inflight = self._inflight.get(key)
            if inflight is None:
                graph = self._graphs.get(digest)
                if graph is None:
                    raise UnknownGraphError(digest)
                inflight = Future()
                self._inflight[key] = inflight
                owner = True
            else:
                owner = False
        if not owner:
            return inflight.result()
        try:
            faults.fire("store.prepare", digest=digest, k=k)
            artifact = prepare_instance(graph, k, config, digest=digest)
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            inflight.set_exception(exc)
            raise
        with self._lock:
            self._prepared[key] = artifact
            self._prepares += 1
            del self._inflight[key]
            if self.max_prepared is not None:
                while len(self._prepared) > self.max_prepared:
                    self._prepared.popitem(last=False)
                    self._prepared_evictions += 1
        inflight.set_result(artifact)
        if self._persistence is not None:
            try:
                self._persistence.save_prepared(key, artifact)
            except Exception:
                logger.warning("persisting prepared artifact for %s failed; kept in memory only",
                               digest[:12], exc_info=True)
        return artifact

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        """Counters: stored graphs/artifacts, builds, cache hits, evictions,
        restores, and digests migrated from an older format."""
        with self._lock:
            return {
                "graphs": len(self._graphs),
                "prepares": self._prepares,
                "prepared_hits": self._prepared_hits,
                "prepared_artifacts": len(self._prepared),
                "graph_evictions": self._graph_evictions,
                "prepared_evictions": self._prepared_evictions,
                "restored_graphs": self._restored_graphs,
                "restored_prepared": self._restored_prepared,
                "mutations": self._mutations,
                "restored_deltas": self._restored_deltas,
                "migrated_digests": self._migrated_digests,
            }

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict[str, object]:
        """Snapshot the cached data, excluding live synchronisation state.

        The lock, the in-flight futures and the persistence attachment are
        process-local and unpicklable; the unpickled copy gets a fresh lock,
        an empty in-flight table (waiters cannot travel between processes —
        any in-progress preparation simply re-runs on first request) and no
        persistence (re-attach explicitly if the copy should persist).
        """
        with self._lock:
            return {
                "max_graphs": self.max_graphs,
                "max_prepared": self.max_prepared,
                "graphs": OrderedDict(self._graphs),
                "names": dict(self._names),
                "prepared": OrderedDict(self._prepared),
                "parents": dict(self._parents),
                "deltas": dict(self._deltas),
                "prepares": self._prepares,
                "prepared_hits": self._prepared_hits,
                "graph_evictions": self._graph_evictions,
                "prepared_evictions": self._prepared_evictions,
                "restored_graphs": self._restored_graphs,
                "restored_prepared": self._restored_prepared,
                "mutations": self._mutations,
                "restored_deltas": self._restored_deltas,
                "migrated_digests": self._migrated_digests,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.max_graphs = state["max_graphs"]
        self.max_prepared = state["max_prepared"]
        self._persistence = None
        self._lock = threading.Lock()
        self._graphs = OrderedDict(state["graphs"])
        self._names = dict(state["names"])
        self._prepared = OrderedDict(state["prepared"])
        self._inflight = {}
        self._parents = dict(state.get("parents", {}))
        self._deltas = dict(state.get("deltas", {}))
        self._since_snapshot = {}
        self._prepares = state["prepares"]
        self._prepared_hits = state["prepared_hits"]
        self._graph_evictions = state["graph_evictions"]
        self._prepared_evictions = state["prepared_evictions"]
        self._restored_graphs = state["restored_graphs"]
        self._restored_prepared = state["restored_prepared"]
        self._mutations = state.get("mutations", 0)
        self._restored_deltas = state.get("restored_deltas", 0)
        self._migrated_digests = state.get("migrated_digests", 0)
