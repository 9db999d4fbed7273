"""Tests for the baseline solvers (KDBB-style, MADEC+-style, max clique, brute force)."""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines import (
    KDBBSolver,
    MADECSolver,
    MaxCliqueSolver,
    brute_force_maximum_defective_clique,
    brute_force_maximum_size,
    enumerate_defective_cliques,
    maximum_clique,
    maximum_clique_size,
)
from repro.core import is_k_defective_clique
from repro.exceptions import InvalidParameterError
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    powerlaw_cluster_graph,
    star_graph,
)


class TestBruteForce:
    def test_empty_graph(self):
        assert brute_force_maximum_defective_clique(Graph(), 1) == []

    def test_complete_graph(self):
        assert brute_force_maximum_size(complete_graph(5), 0) == 5

    def test_cycle(self):
        assert brute_force_maximum_size(cycle_graph(5), 0) == 2
        assert brute_force_maximum_size(cycle_graph(5), 1) == 3

    def test_rejects_large_graphs(self):
        with pytest.raises(InvalidParameterError):
            brute_force_maximum_defective_clique(gnp_random_graph(40, 0.1, seed=1), 1)

    def test_result_is_valid(self):
        g = gnp_random_graph(10, 0.5, seed=2)
        for k in (0, 2):
            solution = brute_force_maximum_defective_clique(g, k)
            assert is_k_defective_clique(g, solution, k)

    def test_enumeration(self):
        g = complete_graph(3)
        cliques = list(enumerate_defective_cliques(g, 0, min_size=2))
        # 3 edges + 1 triangle
        assert len(cliques) == 4

    def test_enumeration_size_limit(self):
        with pytest.raises(InvalidParameterError):
            list(enumerate_defective_cliques(gnp_random_graph(30, 0.1, seed=1), 0))


class TestMaxClique:
    def test_known_graphs(self):
        assert maximum_clique_size(complete_graph(7)) == 7
        assert maximum_clique_size(cycle_graph(5)) == 2
        assert maximum_clique_size(cycle_graph(3)) == 3
        assert maximum_clique_size(star_graph(5)) == 2
        assert maximum_clique_size(Graph()) == 0

    def test_clique_is_actually_a_clique(self):
        g = gnp_random_graph(30, 0.4, seed=3)
        clique = maximum_clique(g)
        assert g.is_clique(clique)

    def test_against_networkx(self):
        networkx = pytest.importorskip("networkx")
        for seed in range(6):
            g = gnp_random_graph(25, 0.35, seed=seed)
            nx_graph = networkx.Graph(g.edges())
            nx_graph.add_nodes_from(g.vertices())
            expected = max(
                (len(c) for c in networkx.find_cliques(nx_graph)), default=0
            )
            assert maximum_clique_size(g) == expected

    def test_matches_brute_force_k0(self):
        for seed in range(6):
            g = gnp_random_graph(11, 0.5, seed=seed)
            assert maximum_clique_size(g) == brute_force_maximum_size(g, 0)

    def test_figure2(self, fig2):
        result = MaxCliqueSolver().solve(fig2)
        assert result.size == 5
        assert result.algorithm == "MaxClique"


class TestKDBBAndMADEC:
    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_matches_brute_force(self, solver_cls):
        for seed in range(10):
            g = gnp_random_graph(11, 0.45, seed=seed)
            k = seed % 4
            expected = brute_force_maximum_size(g, k)
            result = solver_cls().solve(g, k)
            assert result.optimal
            assert result.size == expected
            assert is_k_defective_clique(g, result.clique, k)

    @pytest.mark.parametrize("solver_cls,name", [(KDBBSolver, "KDBB"), (MADECSolver, "MADEC")])
    def test_algorithm_names(self, solver_cls, name):
        result = solver_cls().solve(complete_graph(4), 1)
        assert result.algorithm == name

    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_empty_graph(self, solver_cls):
        result = solver_cls().solve(Graph(), 1)
        assert result.size == 0 and result.optimal

    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_budget_interruption(self, solver_cls):
        g = gnp_random_graph(80, 0.35, seed=9)
        result = solver_cls(node_limit=2).solve(g, 3)
        assert is_k_defective_clique(g, result.clique, 3)

    def test_kdc_explores_no_more_nodes_than_madec(self):
        """The pruning machinery of kDC should not lose to MADEC's on community-like graphs."""
        from repro.core import find_maximum_defective_clique
        from repro.graphs import social_network_graph

        g = social_network_graph(60, num_communities=4, intra_p=0.5, seed=2)
        k = 3
        kdc_nodes = find_maximum_defective_clique(g, k).stats.nodes
        madec_nodes = MADECSolver().solve(g, k).stats.nodes
        assert kdc_nodes <= madec_nodes


# --------------------------------------------------------------------------- #
# Golden results
# --------------------------------------------------------------------------- #
#: The first six graphs of ``tests/test_trail.py``'s ``GOLDEN_GRAPHS``, as
#: ``(n, p, seed)``.  The last two are left out: MADEC takes seconds on each
#: at k = 3.
GOLDEN_SMALL_GRAPHS = (
    (12, 0.5, 101), (16, 0.7, 102), (20, 0.35, 103), (22, 0.15, 110),
    (24, 0.6, 104), (28, 0.45, 105),
)
#: ``powerlaw_cluster_graph`` arguments ``(n, m, p, seed)``, solved by KDBB.
GOLDEN_POWERLAW_GRAPHS = ((1500, 10, 0.3, 1), (2000, 8, 0.3, 2))

# (graph index, k) -> SHA-256 of the result, per solver.
GOLDEN_SMALL = {
    "KDBB": {
        (0, 0): '019ab395688bd077a3e9cecfda9a50cd7cfb147c57355aa2e8db1e932de8f233',
        (0, 1): '405573ab399ba1ce03ae5b377ec4bd367d5b1b0668bf4e9c7253e076984e5072',
        (0, 2): '3216c356cd7a4fe4349957091f91f58e3eb6cf4f5f7bfbeba5aa6cd4e1f5a6e2',
        (0, 3): '782ddada7a072932caa224b480de6009f072093f7a73fcfb563b0f4054b6ffd8',
        (1, 0): 'cf73329fee640cfd9e118195a6897401198023cfac6076a9c9e76f172106f29b',
        (1, 1): '51d65d2a657f3e49383bd9052213bc7a2885a28675f3a2d3dbc24744ef98370d',
        (1, 2): '0b7f10072569c23eacd0dc3f31bafaf41f0900dbf13fb103763924894766cbe8',
        (1, 3): 'b7a3cf71ed663c3b9a386354f2fa8826fc0eb4f6407e23770b22f1d0c8cf2547',
        (2, 0): 'cdcd4582ee9ae68c14f9ce6f9ffe2f2767d140ea8ceae6c7e38de1bf2a988e39',
        (2, 1): '44bf35da0ab4e81d9b9b25b8eb7e67e9ee5bc03298ee3d4da3476f77390e1f2b',
        (2, 2): '09a96cd1a9d6852cdcae83d7055598fd16a1e5a5d50c82937feceebceaa59994',
        (2, 3): '93eecf22bcff2fe9958fa51160e0e2ec85978b5d47d97b258063dda61eb909ba',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '7b02865a2398ab531b5f30de782c6350b269b240303fcd69f6566184b1fcfbc1',
        (3, 2): 'a77074050bac0f562f93118d09f9115e49e8b53417e7fefc8b28f11d7c10deab',
        (3, 3): 'd1f3c2296f985e1d37efe8caa9c4d2ee39c6a59bbd110f678b05e3160d41bcf0',
        (4, 0): 'd885ccab3560aea651c987db610bf88384dd036925ccc877e5e735363c057c87',
        (4, 1): '5b4be8613d4ad7a739fcbab7b09e3d2f625ff1f212b71662688cd06286fa3180',
        (4, 2): '543bb317fd956b28ccce09e139dc1c8ed4cf7f6a93bf3d9da8c0362d47a4b8a6',
        (4, 3): 'dcc18f526c9cc11d07795385a1129b99aa5cc2a6428c4de02fbeec98d212d855',
        (5, 0): '8bfba612e212f4d678736fc7e6d5f6c4e25bf8670e440d9b6f345ff58b116ef5',
        (5, 1): 'c116a6d274a67b38c87f79d4ba23f57fa0f3e62eb6e9a571eb1742ed347c8f11',
        (5, 2): '32b339bd9b730018b068e1c0fad50c493ca7a016102dd3ab3d014ba72b6eddea',
        (5, 3): '8f4c0495efcb9aa711d2600f8fc994201eac085b627b5cfb614dbe15f8b4c0fe',
    },
    "MADEC": {
        (0, 0): '9b49729b25d89afd1841bf03261646703e0e46cd2efb8f54b66c54a8fed1ac33',
        (0, 1): '73a61b7ca5ce8311d4a9515166eeb6d719d2a1eea7e2167d85ada75c3816b6d3',
        (0, 2): '2f9271970dceddd31dc8885f2e90ea7fd334b756316ffdf1eb7b253b1b93a758',
        (0, 3): 'a1592c59d3efde9b402f21795c93b369931d532fda9e811dd36409946cca2a21',
        (1, 0): 'd24e3cebbdacbfa2107982021bc35098f5796f895b0c368161e5625065815b62',
        (1, 1): '7828a5cce6d4016fe4ddd38a13867cff8018e12e7d0cf1d26c93b4bc05778236',
        (1, 2): '76f9e4ad2761c6d84ddc318db148e012590a8e58ec3c5e8ff0178d62bd500863',
        (1, 3): 'dfd77991c572d165d770b5308c13ff4550e4125840de092d16c0e9d7466db426',
        (2, 0): '36f4141ef09b4b57fdfe6afa2561dbebd7a31ac856929d4b230be474d8d5cd3c',
        (2, 1): '97d86a212a0d614231bc4ab97431f13838188f9df8c07ec647f51e81e33fa581',
        (2, 2): '880c358cc6f583396d652ff05bbe531e0b846a21ede91143eca1995ad8906a3b',
        (2, 3): '8119c13d797218ff9878cab8476403a048df86c7fdd00eedee9c94b738ab5743',
        (3, 0): '0929937a78cabb9fca0b0df97cb49e54c4f35f1db648491f092e3cd981713528',
        (3, 1): 'f39befa12af576d920a4a6ff882c0a04ba7c8f4425f498bfb344ddd654781945',
        (3, 2): '03c828606782185b11a29ab67ab9e9afa6e4eccc2bd45e9e0c24c2c3c4ea90c1',
        (3, 3): 'e992f6cde51f7bf721ffe62eac49578c77019aefd12b8af2ab3c529ab51bc753',
        (4, 0): '26e58f5a8b83137b35e0e67046f71b5d787472fbc442ddbf965f1a0e15b15ddd',
        (4, 1): '9af7e1918e97c9fc7b519c566a579feb47779559632459df53d4560efc677ef2',
        (4, 2): '35c01a23c9c3ee0bd65734856b4f4c231e12a2d19e9796088459a15bc682a801',
        (4, 3): 'f5cf4fd9a916e454ec0ea31c05395d5cbd93833d8fa181c2f5354c14cac5a0f1',
        (5, 0): 'd9bf9a11614044677efd64ff37aa66012c71bfc1d25e07844ad7212feef219c1',
        (5, 1): 'ee9f3c6c83351cb76466ad54dd93996d34a0601622bea42ae449d2a3fd88697b',
        (5, 2): 'cfad21f6dd82d3444b0da92806512e10cb6e1f6618f383deb52bf5d106b23618',
        (5, 3): 'b1ff656c897f1c330498806877584815b52b76dd1bfdec3d9229252010cb26bc',
    },
}
GOLDEN_POWERLAW_KDBB = {
    (0, 2): '9ae5dee457b71e259ebcf4ffe60260de5869a11e56c3d498e779bbd5723c7fe6',
    (0, 3): '81d584bcca1773b70597a727c67671398152b496d5a0064838bee51c4f8b1fa3',
    (1, 2): '5da7b5b8ce559ba3d5901ab4f912656b6d6ed2812e8c61373dbe011d0666616c',
    (1, 3): '9a10b886568698eb1a3f0c3f7d94adac27a398333ed61f88333d8c180cc2b03c',
}


def result_digest(result):
    """SHA-256 over the answer and the search counters of ``result``."""
    stats = result.stats
    fields = (
        result.clique,
        result.optimal,
        stats.nodes,
        stats.leaves,
        stats.prunes_by_bound,
        stats.max_depth,
        stats.improvements,
        stats.initial_solution_size,
        stats.preprocess_removed_vertices,
        stats.preprocess_removed_edges,
        sorted(stats.reductions.items()),
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _assert_matches(golden, actual):
    mismatches = sorted(case for case, digest in golden.items() if actual[case] != digest)
    assert not mismatches, f"baseline result changed (graph index, k): {mismatches}"


class TestGoldenResults:
    """KDBB and MADEC results pinned answer and counter for counter.

    KDBB is perfbench's correctness reference, so its answers are pinned.
    So are both solvers' node, leaf and prune counts, the initial solution
    and the removal counts: MADEC's coloring bound and both branch orders
    read candidate sets, so a change in how the root adjacency is built
    could change the search tree without changing the optimum.

    The hashes were recorded on CPython 3.11.7 before the baselines were
    moved onto ``prepare_instance``, and the move had to leave them
    unchanged.  Like the trail and prepare goldens, they depend on set
    iteration order, so a disagreement on another interpreter is an
    interpreter difference first.
    """

    @pytest.mark.parametrize("solver_cls", [KDBBSolver, MADECSolver])
    def test_small_corpus_results_unchanged(self, solver_cls):
        actual = {
            (index, k): result_digest(solver_cls().solve(gnp_random_graph(*spec), k))
            for index, spec in enumerate(GOLDEN_SMALL_GRAPHS)
            for k in range(4)
        }
        _assert_matches(GOLDEN_SMALL[solver_cls.name], actual)

    def test_powerlaw_kdbb_results_unchanged(self):
        actual = {}
        for index, (n, m, p, seed) in enumerate(GOLDEN_POWERLAW_GRAPHS):
            graph = powerlaw_cluster_graph(n, m, p, seed=seed)
            for k in (2, 3):
                actual[(index, k)] = result_digest(KDBBSolver().solve(graph, k))
        _assert_matches(GOLDEN_POWERLAW_KDBB, actual)
