"""Integration tests: all exact solvers agree across the synthetic benchmark collections.

These tests exercise the full pipeline (dataset generation → preprocessing →
search → result mapping) on every instance of the tiny collections, which is
exactly what the benchmark harness does, and cross-check the solvers against
each other since brute force is out of reach at these sizes.
"""

from __future__ import annotations

import pytest

from repro.baselines import KDBBSolver, MADECSolver
from repro.core import find_maximum_defective_clique, is_k_defective_clique, is_maximal_k_defective_clique
from repro.datasets import COLLECTION_NAMES, get_collection
from repro.extensions import enumerate_maximal_defective_cliques

K_VALUES = (1, 3)


def _instances():
    for name in COLLECTION_NAMES:
        for inst in get_collection(name, scale="tiny"):
            yield inst


@pytest.mark.parametrize("k", K_VALUES)
def test_kdc_and_kdbb_agree_on_every_tiny_instance(k):
    for inst in _instances():
        graph = inst.graph
        kdc = find_maximum_defective_clique(graph, k, time_limit=30.0)
        kdbb = KDBBSolver(time_limit=30.0).solve(graph, k)
        assert kdc.optimal and kdbb.optimal, inst.name
        assert kdc.size == kdbb.size, inst.name
        assert is_k_defective_clique(graph, kdc.clique, k), inst.name
        assert is_maximal_k_defective_clique(graph, kdc.clique, k), inst.name


def test_kdc_and_madec_agree_on_small_instances():
    # MADEC is slow; restrict to the smallest instance of each collection with k = 1.
    for name in COLLECTION_NAMES:
        inst = min(get_collection(name, scale="tiny"), key=lambda i: i.graph.num_vertices)
        graph = inst.graph
        kdc = find_maximum_defective_clique(graph, 1, time_limit=30.0)
        madec = MADECSolver(time_limit=30.0).solve(graph, 1)
        assert madec.optimal, inst.name
        assert kdc.size == madec.size, inst.name


@pytest.mark.parametrize("k", K_VALUES)
def test_defective_clique_at_least_as_large_as_clique(k):
    for inst in _instances():
        graph = inst.graph
        omega = max(len(c) for c in enumerate_maximal_defective_cliques(graph, 0))
        size = find_maximum_defective_clique(graph, k, time_limit=30.0).size
        assert size >= omega, inst.name
        # Removing one endpoint of each of the <= k missing edges from a
        # k-defective clique leaves a clique, so the size can exceed the
        # maximum clique size by at most k.
        assert size <= omega + k, inst.name


@pytest.mark.parametrize("variant", ["kDC/UB1", "kDC/RR3&4", "kDC-Degen"])
def test_ablation_variants_agree_with_full_kdc_on_tiny_facebook(variant):
    for inst in get_collection("facebook_like", scale="tiny"):
        graph = inst.graph
        full = find_maximum_defective_clique(graph, 2, time_limit=30.0)
        ablated = find_maximum_defective_clique(graph, 2, variant=variant, time_limit=30.0)
        assert full.optimal and ablated.optimal, inst.name
        assert full.size == ablated.size, (inst.name, variant)
