"""Tests for the bitset search state: invariants and lockstep parity with SearchState."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    BitsetSearchState,
    ReductionWorklist,
    SearchState,
    bitset_color_classes,
    bitset_ub1_from_classes,
    bitset_ub3_degree_sequence,
    ub1_improved_coloring,
    ub3_degree_sequence,
)
from repro.core.bitset_state import bits_of, iter_bits, mask_of
from repro.core.fastpath import bitset_rr3
from repro.graphs import gnp_random_graph


def _adjacency_pair(graph):
    """Return (set adjacency list, bitmask adjacency list) for a relabeled graph."""
    relabeled, _, _ = graph.relabel()
    n = relabeled.num_vertices
    adj_sets = [set(relabeled.neighbors(v)) for v in range(n)]
    adj_bits = [mask_of(adj_sets[v]) for v in range(n)]
    return adj_sets, adj_bits, n


class TestBitHelpers:
    def test_mask_of_roundtrip(self):
        assert mask_of([0, 3, 7]) == 0b10001001
        assert bits_of(0b10001001) == [0, 3, 7]
        assert list(iter_bits(0b10001001)) == [0, 3, 7]

    def test_empty_mask(self):
        assert bits_of(0) == []
        assert list(iter_bits(0)) == []
        assert mask_of([]) == 0

    def test_bits_of_matches_iter_bits_on_wide_masks(self):
        rng = random.Random(7)
        for _ in range(50):
            mask = rng.getrandbits(300)
            assert bits_of(mask) == list(iter_bits(mask))


class TestBitsetSearchState:
    def test_initial_state_invariants(self):
        g = gnp_random_graph(15, 0.4, seed=2)
        _, adj_bits, n = _adjacency_pair(g)
        state = BitsetSearchState.initial(adj_bits, k=2)
        state.check_invariants()
        assert state.graph_size == n
        assert state.instance_size == n
        assert state.total_edges() == g.num_edges

    def test_add_and_remove_keep_invariants(self):
        g = gnp_random_graph(14, 0.5, seed=3)
        _, adj_bits, n = _adjacency_pair(g)
        state = BitsetSearchState.initial(adj_bits, k=3)
        state.add_to_solution(0)
        state.check_invariants()
        state.remove_candidate(max(bits_of(state.cand_bits)))
        state.check_invariants()
        assert state.last_added == 0
        assert len(state.solution) == 1

    def test_detects_corrupted_counters(self):
        g = gnp_random_graph(10, 0.5, seed=5)
        _, adj_bits, _ = _adjacency_pair(g)
        state = BitsetSearchState.initial(adj_bits, k=1)
        state.add_to_solution(0)
        state.missing_in_solution += 1
        with pytest.raises(AssertionError):
            state.check_invariants()

    @pytest.mark.parametrize("seed", range(6))
    def test_lockstep_with_set_state(self, seed):
        """Random transition sequences keep both state types identical.

        At every step the bitset UB1 and UB3 also equal the set backend's
        bounds: UB1 on fresh colour classes and on classes captured a few
        steps earlier (the engine's repaired coloring).
        """
        g = gnp_random_graph(16, 0.35 + 0.05 * (seed % 3), seed=seed)
        adj_sets, adj_bits, n = _adjacency_pair(g)
        k = seed % 4
        set_state = SearchState.initial(adj_sets, k)
        bit_state = BitsetSearchState.initial(adj_bits, k)
        rng = random.Random(100 + seed)
        captured = []

        for _ in range(n):
            candidates = sorted(set_state.candidates)
            if not candidates:
                break
            v = rng.choice(candidates)
            if rng.random() < 0.5 and set_state.missing_if_added(v) <= k:
                set_state.add_to_solution(v)
                bit_state.add_to_solution(v)
            else:
                set_state.remove_candidate(v)
                bit_state.remove_candidate(v)
            set_state.check_invariants()
            bit_state.check_invariants()

            assert bit_state.solution == set_state.solution
            assert bits_of(bit_state.cand_bits) == sorted(set_state.candidates)
            assert bit_state.missing_in_solution == set_state.missing_in_solution
            assert bit_state.total_edges() == set_state.total_edges()
            assert bit_state.total_missing() == set_state.total_missing()
            assert bit_state.is_defective_clique() == set_state.is_defective_clique()
            assert bit_state.slack() == set_state.slack()
            cost = bit_state.cost_masks()
            for u in set_state.candidates:
                in_split = min(set_state.non_nbrs_in_solution[u], len(cost) - 1)
                assert (cost[in_split] >> u) & 1
                assert bit_state.missing_if_added(u) == set_state.missing_if_added(u)
                assert bit_state.degree(u) == set_state.degree_in_graph[u]

            assert bitset_ub3_degree_sequence(bit_state) == ub3_degree_sequence(set_state)
            fresh = bitset_color_classes(bit_state)
            captured.append(fresh)
            stale = captured[max(0, len(captured) - 4)]
            for classes in (fresh, stale):
                live = [bits_of(m & bit_state.cand_bits) for m in classes]
                expected = ub1_improved_coloring(set_state, [c for c in live if c])
                assert bitset_ub1_from_classes(bit_state, classes) == expected

    def test_graph_vertices_solution_first(self):
        g = gnp_random_graph(9, 0.6, seed=8)
        _, adj_bits, _ = _adjacency_pair(g)
        state = BitsetSearchState.initial(adj_bits, k=2)
        state.add_to_solution(4)
        verts = state.graph_vertices()
        assert verts[0] == 4
        assert sorted(verts) == list(range(9))


def _rr3_reference(state, lower_bound):
    """The removals of RR3 as the sorted-prefix rule states them, by (cost, id)."""
    needed = lower_bound - len(state.solution)
    cand = bits_of(state.cand_bits)
    if needed < 0 or needed >= len(cand):
        return 0
    cost = state.non_nbrs
    ordered = sorted(cand, key=lambda v: (cost(v), v))
    threshold = state.slack() - sum(cost(v) for v in ordered[:needed])
    return mask_of(v for v in ordered[needed:] if cost(v) > threshold)


@pytest.mark.parametrize("seed", range(8))
def test_rr3_matches_sorted_prefix_rule(seed):
    """RR3 removes exactly the sorted-prefix rule's candidates.

    The states come from unchecked additions, so they also hold candidates
    above the slack (RR1's pending work) and, at times, a negative slack:
    the cases where the reserved prefix reaches past the slack.
    """
    g = gnp_random_graph(18, 0.3 + 0.05 * (seed % 4), seed=seed)
    _, adj_bits, n = _adjacency_pair(g)
    k = seed % 4
    state = BitsetSearchState.initial(adj_bits, k)
    state.begin_trail()
    rng = random.Random(300 + seed)
    for _ in range(n // 2):
        candidates = bits_of(state.cand_bits)
        if not candidates:
            break
        v = rng.choice(candidates)
        if rng.random() < 0.6:
            state.add_to_solution(v)
        else:
            state.remove_candidate(v)
        for lower_bound in range(len(state.solution) - 1, state.graph_size + 1):
            expected = _rr3_reference(state, lower_bound)
            before = state.cand_bits
            mark = state.trail_mark()
            removed = bitset_rr3(state, lower_bound, ReductionWorklist())
            assert before & ~state.cand_bits == expected
            assert removed == expected.bit_count()
            state.rewind_to(mark)
