"""Exactness of the incremental content digest.

:meth:`Graph.content_digest` sums one hash per vertex row, and
:func:`repro.dynamic.apply_delta` derives a successor's digest from its
predecessor's by re-hashing only the rows a delta touches.  A derived digest
is a cache key the service trusts, so it must always equal the digest
computed from scratch, whatever the labels, the insertion order or the
mutators used in between; and distinct graphs must never share one.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import EdgeDelta, apply_delta
from repro.dynamic.delta import apply_delta_in_place
from repro.exceptions import EdgeNotFoundError
from repro.graphs import Graph, gnp_random_graph

#: Mixed int and str labels, including look-alikes ("0" vs 0).
LABELS = st.one_of(st.integers(0, 9), st.sampled_from(["a", "b", "0", "1", "x y"]))
EDGES = st.tuples(LABELS, LABELS).filter(lambda e: e[0] != e[1])

#: Every graph the differential suite builds, as (n, p, seed).
DIFFERENTIAL_SPECS = (
    [(30, 0.25, 0), (30, 0.40, 1), (45, 0.30, 2), (60, 0.20, 3)]
    + [(60, 0.30, 0), (70, 0.25, 1), (55, 0.35, 7), (60, 0.30, 5), (45, 0.30, 13), (25, 0.35, 11)]
    + [(40 + 10 * (s % 5), 0.15 + 0.05 * (s % 4), s) for s in range(8)]
    + [(20 + 2 * s, 0.30 + 0.03 * s, s) for s in range(5)]
    + [(160, 0.15, s) for s in range(3)]
)


def scratch_digest(graph):
    """The digest computed from nothing: a pickle round trip drops the kept sum."""
    return pickle.loads(pickle.dumps(graph)).content_digest()


def shuffled_rebuild(graph, rng):
    """The same graph built from scratch in a random vertex and edge order."""
    vertices = graph.vertices()
    rng.shuffle(vertices)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in graph.edges()]
    rng.shuffle(edges)
    rebuilt = Graph(vertices=vertices)
    rebuilt.add_edges(edges)
    return rebuilt


def present_edges(graph):
    """The graph's edges in an order that does not depend on hash seeds."""
    return sorted((tuple(sorted(e, key=repr)) for e in graph.edges()), key=repr)


def content_key(graph):
    return frozenset(graph.vertices()), frozenset(frozenset(e) for e in graph.edges())


def draw_delta(data, graph):
    present = present_edges(graph)
    removes = data.draw(st.lists(st.sampled_from(present), max_size=3, unique=True)) if present else []
    adds = [e for e in data.draw(st.lists(EDGES, max_size=4)) if not graph.has_edge(*e)]
    if not adds and not removes:
        return None
    return EdgeDelta(adds=adds, removes=removes)


class TestDerivedDigest:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_delta_sequences_match_scratch_digests(self, data):
        graph = Graph(edges=data.draw(st.lists(EDGES, max_size=12)),
                      vertices=data.draw(st.lists(LABELS, max_size=3)))
        digest = graph.content_digest()
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        for _ in range(data.draw(st.integers(1, 6))):
            delta = draw_delta(data, graph)
            if delta is None:
                continue
            successor, derived = apply_delta(graph, delta)
            assert derived == scratch_digest(successor)
            assert derived == shuffled_rebuild(successor, rng).content_digest()
            assert successor.content_digest() == derived

            # The swapped delta undoes it; vertices the adds created stay
            # behind, isolated.
            undone = successor.copy()
            inverse = EdgeDelta(adds=delta.removes, removes=delta.adds)
            undone_digest = apply_delta_in_place(undone, inverse)
            created = successor.vertex_set() - graph.vertex_set()
            expected = graph.copy()
            expected.add_vertices(created)
            assert undone == expected
            assert undone_digest == scratch_digest(expected)
            if not created:
                assert undone_digest == digest
            graph, digest = successor, derived

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutators_never_hand_a_stale_sum_to_apply_delta(self, data):
        graph = Graph(edges=data.draw(st.lists(EDGES, min_size=1, max_size=12)))
        graph.content_digest()
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()) and graph.num_edges:
                graph.remove_edge(*data.draw(st.sampled_from(present_edges(graph))))
            else:
                graph.add_edge(*data.draw(EDGES))
            delta = draw_delta(data, graph)
            if delta is None:
                continue
            graph, derived = apply_delta(graph, delta)
            assert derived == scratch_digest(graph)

    @pytest.mark.parametrize("mutate", [
        lambda g: g.add_edge(0, 11),
        lambda g: g.remove_edge(*next(g.iter_edges())),
        lambda g: g.add_vertex("new"),
        lambda g: g.remove_vertex(3),
        lambda g: g.add_edges([(1, 11), (2, 11)]),
        lambda g: g.remove_edges(list(g.iter_edges())[:2]),
        lambda g: g.add_vertices(["p", "q"]),
        lambda g: g.remove_vertices([4, 5]),
    ])
    def test_every_mutator_drops_the_sum(self, mutate):
        graph = gnp_random_graph(12, 0.4, seed=1)
        graph.content_digest()
        mutate(graph)
        assert graph.content_digest() == scratch_digest(graph)
        assert graph.copy().content_digest() == scratch_digest(graph)

    def test_failed_update_changes_nothing(self):
        graph = gnp_random_graph(12, 0.4, seed=2)
        digest = graph.content_digest()
        before = graph.copy()
        missing = next((0, v) for v in range(1, 12) if not graph.has_edge(0, v))
        with pytest.raises(EdgeNotFoundError):
            graph.update_edges(adds=[(1, "new")], removes=[missing])
        assert graph == before and graph.content_digest() == digest


class TestNoCollisions:
    def test_churn_stream_and_differential_corpus(self):
        graphs = [(g, g.content_digest()) for g in (
            gnp_random_graph(n, p, seed=seed) for n, p, seed in DIFFERENTIAL_SPECS
        )]
        rng = random.Random(7)
        current = gnp_random_graph(60, 0.2, seed=3)
        vertices = current.vertices()
        for _ in range(300):
            adds = []
            while len(adds) < 2:
                u, v = rng.sample(vertices, 2)
                if not current.has_edge(u, v) and {u, v} not in map(set, adds):
                    adds.append((u, v))
            removes = [rng.choice(current.edges())] if rng.random() < 0.7 else []
            current, digest = apply_delta(current, EdgeDelta(adds=adds, removes=removes))
            graphs.append((current, digest))
            # walk back sometimes, so equal graphs recur along the stream
            if rng.random() < 0.2:
                current, digest = apply_delta(current, EdgeDelta(adds=removes, removes=adds))
                graphs.append((current, digest))

        by_digest = {}
        by_content = {}
        for graph, digest in graphs:
            assert digest == scratch_digest(graph)
            key = content_key(graph)
            assert by_digest.setdefault(digest, key) == key, "two distinct graphs share a digest"
            assert by_content.setdefault(key, digest) == digest, "equal graphs digest differently"
        assert len(by_digest) > 300
