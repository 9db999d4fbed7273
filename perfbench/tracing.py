"""Traced mode: spans around each layer's public entry points.

The wrappers are installed from the benchmark's own files by rebinding the
names the program's callers look up (module globals and class attributes);
nothing under ``src/`` changes.  Each call records one span: name, start,
end, parent span (the enclosing span on the same thread) and request id.
Spans stay in memory and are written out when the run ends.

Request ids are assigned per protocol request.  Work the scheduler runs on
an executor thread is attributed to the request that asked for the same
``(digest, k)``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (span name, owners, attribute).  An owner is "module" or "module:Class";
# every owner whose callers could reach the function is rebound.
TARGETS: Sequence[Tuple[str, Sequence[str], str]] = (
    ("graphs.io.parse", ["repro.graphs.io"], "load_graph"),
    ("graphs.graph.digest", ["repro.graphs.graph:Graph"], "content_digest"),
    ("graphs.graph.copy", ["repro.graphs.graph:Graph"], "copy"),
    ("graphs.graph.relabel", ["repro.graphs.graph:Graph"], "relabel"),
    ("core.heuristics.degen_opt", ["repro.core.heuristics"], "degen_opt"),
    ("graphs.kcore.rr5", ["repro.core.reductions"], "core_reduce_in_place"),
    ("graphs.truss.rr6", ["repro.core.reductions"], "truss_reduce_in_place"),
    ("graphs.degeneracy.order",
     ["repro.core.prepared", "repro.core.heuristics", "repro.core.decompose",
      "repro.dynamic.incremental"], "degeneracy_ordering"),
    ("core.prepared.prepare", ["repro.core.solver", "repro.service.store"], "prepare_instance"),
    ("core.solver.solve", ["repro.core.solver:KDCSolver"], "solve"),
    ("core.solver.solve_prepared", ["repro.core.solver:KDCSolver"], "solve_prepared"),
    ("core.decompose.solve", ["repro.core.solver", "repro.dynamic.incremental"], "solve_decomposed"),
    ("core.decompose.ego_build", ["repro.core.decompose"], "build_ego_subproblem"),
    ("core.fastpath.engine", ["repro.core.fastpath:BitsetEngine"], "run"),
    ("service.server.request", ["repro.service.server"], "handle_request"),
    ("service.scheduler.run", ["repro.service.scheduler:SolverService"], "_run"),
    ("service.store.add", ["repro.service.store:GraphStore"], "add"),
    ("service.store.prepared", ["repro.service.store:GraphStore"], "prepared"),
    ("service.persistence.save_graph", ["repro.service.persistence:ServicePersistence"], "save_graph"),
    ("service.persistence.append_delta", ["repro.service.persistence:ServicePersistence"], "append_delta"),
    ("service.persistence.append_result", ["repro.service.persistence:ServicePersistence"], "append_result"),
    ("dynamic.delta.apply", ["repro.dynamic.incremental"], "apply_delta"),
    ("dynamic.delta.apply", ["repro.service.store"], "_apply_edge_delta"),
    ("dynamic.delta.affected", ["repro.dynamic.incremental"], "affected_anchors"),
    ("dynamic.incremental.apply", ["repro.dynamic.incremental:IncrementalSolver"], "apply"),
)

# Span (field order): id, name, start, end, parent id, thread id, request id, attrs.
Span = Tuple[int, str, float, float, Optional[int], int, Optional[int], Dict]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._request_ids = itertools.count()
        self._local = threading.local()
        self._request_by_key: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        state = self._state()
        attrs: Dict = {}
        request = state.request
        if name == "service.server.request":
            payload = args[1] if len(args) > 1 else kwargs.get("payload")
            if isinstance(payload, dict):
                attrs["op"] = payload.get("op")
                request = next(self._request_ids)
                if attrs["op"] == "solve":
                    self._request_by_key[(payload.get("digest"), payload.get("k"))] = request
        elif name == "service.scheduler.run":
            request = self._request_by_key.get((args[2], args[3]))
        outer_request = state.request
        state.request = request
        parent = state.stack[-1] if state.stack else None
        sid = next(self._ids)
        state.stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == "core.prepared.prepare":
                attrs["working_n"] = result.working_n
            return result
        finally:
            end = time.perf_counter()
            state.stack.pop()
            state.request = outer_request
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), request, attrs)
            )

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Rebind every target in :data:`TARGETS` to a tracing wrapper."""
        for name, owners, attr in TARGETS:
            for owner in owners:
                module_name, _, class_name = owner.partition(":")
                target = importlib.import_module(module_name)
                if class_name:
                    target = getattr(target, class_name)
                fn = getattr(target, attr)
                if getattr(fn, "__wrapped_by_perfbench__", False):
                    continue
                setattr(target, attr, self.wrap(name, fn))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(s) for s in json.load(handle)]


# ---------------------------------------------------------------------- #
# Ledger: per-layer self time and share of the root spans
# ---------------------------------------------------------------------- #
# Layers whose self time the ledger prints, by span-name prefix.
LEDGER_LAYERS = (
    "graphs.io", "graphs.graph", "core.heuristics", "graphs.kcore", "graphs.truss",
    "graphs.degeneracy", "core.prepared", "core.solver", "core.decompose",
    "core.fastpath", "service.server", "service.scheduler", "service.store",
    "service.persistence", "dynamic.delta", "dynamic.incremental",
)
SEARCH_LAYERS = ("core.decompose", "core.fastpath")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


class Ledger:
    """Totals over one run's spans, keyed by span name or name prefix.

    With a ``(start, end)`` window, only spans that started inside it count,
    so set-up work and the final ``stats`` request stay out.
    """

    def __init__(self, spans: Sequence[Span], root: str,
                 window: Optional[Tuple[float, float]] = None) -> None:
        if window is not None:
            spans = [s for s in spans if window[0] <= s[2] <= window[1]]
        self.spans = spans
        own = self_times(spans)
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        for s in spans:
            name = s[1]
            self.self_s[name] = self.self_s.get(name, 0.0) + own[s[0]]
            self.total_s[name] = self.total_s.get(name, 0.0) + (s[3] - s[2])
            self.calls[name] = self.calls.get(name, 0) + 1
        self.root_s = self.total_s.get(root, 0.0)
        # A request's root span waits while an executor thread does its work:
        # charge that work to the executor's spans, not to the root's self time.
        requests = {s[6] for s in spans if s[1] == root and s[6] is not None}
        for s in spans:
            if s[4] is None and s[1] != root and s[6] in requests:
                self.self_s[root] -= s[3] - s[2]

    def layer_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k == prefix or k.startswith(prefix + "."))

    def share(self, prefixes: Sequence[str]) -> float:
        if self.root_s <= 0:
            return 0.0
        return sum(self.layer_self(p) for p in prefixes) / self.root_s

    def attr_values(self, name: str, attr: str) -> List:
        return [s[7][attr] for s in self.spans if s[1] == name and attr in s[7]]

    def lines(self) -> List[str]:
        out = [f"ledger root {self.root_s:.4f} s over {len(self.spans)} spans"]
        for layer in LEDGER_LAYERS:
            own = self.layer_self(layer)
            share = own / self.root_s if self.root_s > 0 else 0.0
            out.append(f"ledger {layer:<22} self {own:10.4f} s  share {share:7.2%}")
        return out


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
