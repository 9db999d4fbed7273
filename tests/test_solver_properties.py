"""Property-based tests cross-checking all exact solvers against each other and brute force."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    KDBBSolver,
    MADECSolver,
    brute_force_maximum_defective_clique,
)
from repro.core import (
    KDCSolver,
    SolverConfig,
    find_maximum_defective_clique,
    is_k_defective_clique,
    is_maximal_k_defective_clique,
)
from repro.graphs import Graph, gnp_random_graph


def graphs(max_vertices: int = 11):
    """Strategy building small random graphs via seeded G(n, p)."""
    return st.builds(
        gnp_random_graph,
        st.integers(min_value=1, max_value=max_vertices),
        st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=50, deadline=None)
def test_kdc_matches_brute_force(g, k):
    expected = len(brute_force_maximum_defective_clique(g, k))
    result = find_maximum_defective_clique(g, k)
    assert result.size == expected
    assert is_k_defective_clique(g, result.clique, k)
    assert is_maximal_k_defective_clique(g, result.clique, k)


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_kdc_t_matches_brute_force(g, k):
    expected = len(brute_force_maximum_defective_clique(g, k))
    result = find_maximum_defective_clique(g, k, variant="kDC-t")
    assert result.size == expected


@given(graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_baselines_match_kdc(g, k):
    reference = find_maximum_defective_clique(g, k).size
    assert KDBBSolver().solve(g, k).size == reference
    assert MADECSolver().solve(g, k).size == reference


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_solution_size_monotone_in_k(g, k):
    smaller = find_maximum_defective_clique(g, k).size
    larger = find_maximum_defective_clique(g, k + 1).size
    assert smaller <= larger <= smaller + 1 + k + 1  # loose sanity bracket
    assert larger <= g.num_vertices


@given(graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_adding_edges_never_shrinks_solution(g, k):
    """Adding an edge can only help: the maximum k-defective clique size is monotone under edge addition."""
    before = find_maximum_defective_clique(g, k).size
    # add one missing edge, if any
    missing = g.missing_edges()
    if not missing:
        return
    augmented = g.copy()
    augmented.add_edge(*missing[0])
    after = find_maximum_defective_clique(augmented, k).size
    assert after >= before


@given(graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=25, deadline=None)
def test_solution_size_at_least_heuristic_floor(g, k):
    """The exact solution can never be smaller than sqrt-style trivial floors."""
    result = find_maximum_defective_clique(g, k)
    assert result.size >= 1
    if g.num_edges > 0:
        assert result.size >= 2


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_bitset_backend_matches_set_backend(g, k):
    """The bitset fast path and the dict/set backend find the same optimum."""
    set_result = KDCSolver(SolverConfig(backend="set")).solve(g, k)
    bitset_result = KDCSolver(SolverConfig(backend="bitset")).solve(g, k)
    assert bitset_result.size == set_result.size
    assert is_k_defective_clique(g, bitset_result.clique, k)
    assert is_maximal_k_defective_clique(g, bitset_result.clique, k)


@given(graphs(), st.integers(min_value=0, max_value=4))
@settings(max_examples=30, deadline=None)
def test_decomposed_bitset_backend_matches_set_backend(g, k):
    """Forcing the degeneracy decomposition must not change the optimum."""
    set_result = KDCSolver(SolverConfig(backend="set")).solve(g, k)
    decomposed = KDCSolver(
        SolverConfig(backend="bitset", decompose_threshold=1)
    ).solve(g, k)
    assert decomposed.size == set_result.size
    assert is_k_defective_clique(g, decomposed.clique, k)


@given(graphs(), st.integers(min_value=0, max_value=3))
@settings(max_examples=20, deadline=None)
def test_bitset_backend_matches_for_theoretical_variant(g, k):
    """Backend equivalence also holds with every practical technique disabled."""
    base = SolverConfig(
        use_ub1=False, use_ub2=False, use_ub3=False,
        use_rr3=False, use_rr4=False, use_rr5=False, use_rr6=False,
        initial_heuristic="none",
    )
    from dataclasses import replace

    set_result = KDCSolver(replace(base, backend="set")).solve(g, k)
    bitset_result = KDCSolver(replace(base, backend="bitset")).solve(g, k)
    assert bitset_result.size == set_result.size
