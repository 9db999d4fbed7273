"""Tests for the baseline solvers (KDBB-style, MADEC+-style, brute force) and kDC's maximum clique."""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.baselines import (
    KDBBSolver,
    MADECSolver,
    brute_force_maximum_defective_clique,
    brute_force_maximum_size,
    enumerate_defective_cliques,
)
from repro.core import (
    KDCSolver,
    VARIANT_NAMES,
    is_k_defective_clique,
    maximum_clique,
    maximum_clique_size,
    variant_config,
)
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
        clique = maximum_clique(fig2)
        assert len(clique) == 5
        assert fig2.is_clique(clique)


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
    # kDC's six paper variants on backend="set".
    'kDC': {
        (0, 0): '019ab395688bd077a3e9cecfda9a50cd7cfb147c57355aa2e8db1e932de8f233',
        (0, 1): '405573ab399ba1ce03ae5b377ec4bd367d5b1b0668bf4e9c7253e076984e5072',
        (0, 2): '3216c356cd7a4fe4349957091f91f58e3eb6cf4f5f7bfbeba5aa6cd4e1f5a6e2',
        (0, 3): 'ce17361fe7df4d70ab59ef07088a0998dfb8040c9b5a4533c177ca70bf74a0da',
        (1, 0): '8f238423b26c223c0d977dbd821923ea081fb81b73652a89a20907186771b6cd',
        (1, 1): 'c2e48912c0a812dd1146951f67ce4641de810a1c32c5c59430fac810e46d07f1',
        (1, 2): '807f65289defccbbf701b486b373ff990ae9d0638e469233676cba22d1bfd6d9',
        (1, 3): 'f97c3e600a474b35e8d63729d326b2e69339a6d6427db94473dab26ff2107abf',
        (2, 0): 'cdcd4582ee9ae68c14f9ce6f9ffe2f2767d140ea8ceae6c7e38de1bf2a988e39',
        (2, 1): '44bf35da0ab4e81d9b9b25b8eb7e67e9ee5bc03298ee3d4da3476f77390e1f2b',
        (2, 2): 'edef42a75650cf92a9d18dd39ca6ce992d7fcecd0e1b277decd7710dc12eeed5',
        (2, 3): '2d6f226209ed9ea7f3ab342a3a3f6e42a9272f3da064f9aae6e21592614e23a2',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '7b02865a2398ab531b5f30de782c6350b269b240303fcd69f6566184b1fcfbc1',
        (3, 2): 'a77074050bac0f562f93118d09f9115e49e8b53417e7fefc8b28f11d7c10deab',
        (3, 3): '71b6d720bc3f1869b802e0331ef8dd487a4a81824a981a3e066ea558f5aa6dc5',
        (4, 0): 'e87f306b7bb90b1098d193d2660fc0b4ddc28023b9f2c1aec597d890ad0dae39',
        (4, 1): '5b4be8613d4ad7a739fcbab7b09e3d2f625ff1f212b71662688cd06286fa3180',
        (4, 2): '543bb317fd956b28ccce09e139dc1c8ed4cf7f6a93bf3d9da8c0362d47a4b8a6',
        (4, 3): '61ce71b380f03bc739b114ecbeb91d01b4e970fcc3003bc5d024de779aba6e8e',
        (5, 0): '8bfba612e212f4d678736fc7e6d5f6c4e25bf8670e440d9b6f345ff58b116ef5',
        (5, 1): 'c116a6d274a67b38c87f79d4ba23f57fa0f3e62eb6e9a571eb1742ed347c8f11',
        (5, 2): '32b339bd9b730018b068e1c0fad50c493ca7a016102dd3ab3d014ba72b6eddea',
        (5, 3): 'a18effd864ad6155b6254e95208a4672623da2400592093f3e43ae46a1eb3f05',
    },
    'kDC-t': {
        (0, 0): '71e0bcb19a65ec7561127af05846e4681ec79568ba3d723b973c791f04dda374',
        (0, 1): 'a083ead9c854613b02f83cda840025c46b7c7caee7e6b703647c88e08c5871f7',
        (0, 2): '8fc032b2517eeb11f3daab0e55a73e264efb5f1513274fab46ebb214fac4963d',
        (0, 3): 'a621eeb2ae0f10e8a67b2c7c8fcf0b62d2be360a44fc05c75d52b85a69225a84',
        (1, 0): '2f520422e289cc886ea53212822726784bd65a9358bf0a22d1358c7933b773ea',
        (1, 1): '19f173036f318eee0f3e93e8782aa93c0353f6ff00d856baf90392de914e5edb',
        (1, 2): '34e1d6620beaa8cdf96813fca0fe94a8bd68e2410d29b7c754e5c63dfa5be8bf',
        (1, 3): 'f44874d0ae88d367ef2ea52f134273f5a21a93a8f369d8054e38b1d4164e5c92',
        (2, 0): 'bfdae8e50e98d35780a1e117a0aafd7c4af364dfb7d4c9a2b9f46f237fd52dcf',
        (2, 1): 'ea8219091988240313daa02d4a6a22a3d1e1d7fc4aad8104c7a8352a3c7ff7d9',
        (2, 2): '30adb20ebb003dad3d48be5b36e21388e00d15a858be9c4c618b35c1cf656e26',
        (2, 3): 'b5af05f1868357648b1ec0d01c2113b354a1236e863eb3a6ffc9f42a4136a02c',
        (3, 0): '13710c9ffe8928262544d2c86eb517fb0aebdaf7760f39244c16c4a7968d3f3a',
        (3, 1): 'aa8184c49518795817e7a93d2a23345400e1849dec752f9b1063ead1e85c819e',
        (3, 2): 'a84b08c81eaf6ddee6d567dec64ad22c55648bb5d18c4acbd2007c4745e7060c',
        (3, 3): '8d5ccc5b002ad5e9c253cb194019eec609fd23968eea0d85b74e2c00a6ef8d2b',
        (4, 0): '54c21d9c815886309a6170321beda87ef05e52b615c51edd964b15f99c87d075',
        (4, 1): '95204ffd59916f6ef157edd44695c1858e560dca58a5eca55832a4895e7ffbda',
        (4, 2): '1c5f7df3c5b6f7732e52eee1b261b9b7dc4df7061e8674de18bcda1a2e561db0',
        (4, 3): 'bdff8fe2e2de8ef616372b3bffb08e9603e9648faccce80ddb2c94f865afc1d7',
        (5, 0): '958dd3e35769a91b5301d0b180f3fa214fab467002a235322f6113bc41a6cb41',
        (5, 1): '6a1cb1f38ebff260fd627936752fda683bffecbe28dc422ca3eefb015a21010e',
        (5, 2): '4c4928c86d2e707e983d3e6d865b7023be5a4e655d1525538446df3de162d11a',
        (5, 3): 'a542a0731349977eb988385b11efbf5638ff3eaffdd2bae7fb6beca272b83eea',
    },
    'kDC/UB1': {
        (0, 0): '019ab395688bd077a3e9cecfda9a50cd7cfb147c57355aa2e8db1e932de8f233',
        (0, 1): '405573ab399ba1ce03ae5b377ec4bd367d5b1b0668bf4e9c7253e076984e5072',
        (0, 2): '3216c356cd7a4fe4349957091f91f58e3eb6cf4f5f7bfbeba5aa6cd4e1f5a6e2',
        (0, 3): '84692c6422ab9c4d44e546a533ca09329a79af3867148c7f4476163a53f69a6b',
        (1, 0): '8f238423b26c223c0d977dbd821923ea081fb81b73652a89a20907186771b6cd',
        (1, 1): 'c2e48912c0a812dd1146951f67ce4641de810a1c32c5c59430fac810e46d07f1',
        (1, 2): '807f65289defccbbf701b486b373ff990ae9d0638e469233676cba22d1bfd6d9',
        (1, 3): 'b1e5f58d9bf42123b1d04bb33104a135f33723f7db2b0d6bc87676b7c9848c25',
        (2, 0): 'cdcd4582ee9ae68c14f9ce6f9ffe2f2767d140ea8ceae6c7e38de1bf2a988e39',
        (2, 1): '44bf35da0ab4e81d9b9b25b8eb7e67e9ee5bc03298ee3d4da3476f77390e1f2b',
        (2, 2): 'ee286275becc4ca6b3c16af69e89bc9130e8e773c93740b25d6a3f1256e2926b',
        (2, 3): 'ff5c1c9aaf49e27834aa42d86745ab77eb51266296047cc1127fd9ecc860457f',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '7b02865a2398ab531b5f30de782c6350b269b240303fcd69f6566184b1fcfbc1',
        (3, 2): 'a77074050bac0f562f93118d09f9115e49e8b53417e7fefc8b28f11d7c10deab',
        (3, 3): 'ae213e47273392c6427cbb84535de7c97117ed5e0e080873b62fe5d0a652c05b',
        (4, 0): 'e87f306b7bb90b1098d193d2660fc0b4ddc28023b9f2c1aec597d890ad0dae39',
        (4, 1): '5b4be8613d4ad7a739fcbab7b09e3d2f625ff1f212b71662688cd06286fa3180',
        (4, 2): '543bb317fd956b28ccce09e139dc1c8ed4cf7f6a93bf3d9da8c0362d47a4b8a6',
        (4, 3): 'aa415303db8100da7a587a59b6d008afca801b39140ef3b734f44348f8c6e54f',
        (5, 0): '8bfba612e212f4d678736fc7e6d5f6c4e25bf8670e440d9b6f345ff58b116ef5',
        (5, 1): 'c116a6d274a67b38c87f79d4ba23f57fa0f3e62eb6e9a571eb1742ed347c8f11',
        (5, 2): '32b339bd9b730018b068e1c0fad50c493ca7a016102dd3ab3d014ba72b6eddea',
        (5, 3): '59632ac8ac4ab73567a987d5e7ca2f60c6a91011db96e069548d12e4df07f030',
    },
    'kDC/RR3&4': {
        (0, 0): '019ab395688bd077a3e9cecfda9a50cd7cfb147c57355aa2e8db1e932de8f233',
        (0, 1): '405573ab399ba1ce03ae5b377ec4bd367d5b1b0668bf4e9c7253e076984e5072',
        (0, 2): '3216c356cd7a4fe4349957091f91f58e3eb6cf4f5f7bfbeba5aa6cd4e1f5a6e2',
        (0, 3): '68dc7d20bc585fe319762fcfb3c5ab447286cffa64d3049f0e78771a2d35b842',
        (1, 0): '8f238423b26c223c0d977dbd821923ea081fb81b73652a89a20907186771b6cd',
        (1, 1): '2d0f6bfab6aff26b8846352cc09b5d630575c4a2cbd64c0dca7e8e142cd029dd',
        (1, 2): '0a18aed1bfa4079d3bbbf7d7027e861e74243f71fb7e70f11da26a243be54c2c',
        (1, 3): 'e1e833ba3dc39a84a4e92e77cbca28be573c60a793285f085571dc285dc00df5',
        (2, 0): 'cdcd4582ee9ae68c14f9ce6f9ffe2f2767d140ea8ceae6c7e38de1bf2a988e39',
        (2, 1): '44bf35da0ab4e81d9b9b25b8eb7e67e9ee5bc03298ee3d4da3476f77390e1f2b',
        (2, 2): '4ed2cf4f3957d68ad7d77a285af08cccfd9f48d08351c27e02d0cb0429e87fe4',
        (2, 3): 'e43b991bf24d931256101b09e0c23d67e2ef2d61cf4350467403f5165bd3d346',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '7b02865a2398ab531b5f30de782c6350b269b240303fcd69f6566184b1fcfbc1',
        (3, 2): 'a77074050bac0f562f93118d09f9115e49e8b53417e7fefc8b28f11d7c10deab',
        (3, 3): 'fe4f55a28c926f332deb6c8a869bf602b803889820b805cb87c92e07a22b5b82',
        (4, 0): 'e87f306b7bb90b1098d193d2660fc0b4ddc28023b9f2c1aec597d890ad0dae39',
        (4, 1): '5b4be8613d4ad7a739fcbab7b09e3d2f625ff1f212b71662688cd06286fa3180',
        (4, 2): '543bb317fd956b28ccce09e139dc1c8ed4cf7f6a93bf3d9da8c0362d47a4b8a6',
        (4, 3): '9265709bae89c3aaaf7d2fb18bf642cc880865bffcd435f56c62b00ab01028ea',
        (5, 0): '8bfba612e212f4d678736fc7e6d5f6c4e25bf8670e440d9b6f345ff58b116ef5',
        (5, 1): 'c116a6d274a67b38c87f79d4ba23f57fa0f3e62eb6e9a571eb1742ed347c8f11',
        (5, 2): '32b339bd9b730018b068e1c0fad50c493ca7a016102dd3ab3d014ba72b6eddea',
        (5, 3): '4a678ff1f50f0631d5a0ea8be044ff6cfe8205c9bba58aed45090c9ab69740f2',
    },
    'kDC/UB1&RR3&4': {
        (0, 0): '019ab395688bd077a3e9cecfda9a50cd7cfb147c57355aa2e8db1e932de8f233',
        (0, 1): '405573ab399ba1ce03ae5b377ec4bd367d5b1b0668bf4e9c7253e076984e5072',
        (0, 2): '3216c356cd7a4fe4349957091f91f58e3eb6cf4f5f7bfbeba5aa6cd4e1f5a6e2',
        (0, 3): 'fe01bb0c8d15ea30a6b0467d0b753dfe6cddb667cab49ca0d64dd3b5f7b2d581',
        (1, 0): '8f238423b26c223c0d977dbd821923ea081fb81b73652a89a20907186771b6cd',
        (1, 1): '2d0f6bfab6aff26b8846352cc09b5d630575c4a2cbd64c0dca7e8e142cd029dd',
        (1, 2): '993eef3108b5bb623b8b2c3bc3e181ce3b9e4f63b7c6e943e8383ae4facdee8b',
        (1, 3): 'eacb0acfe971695eb03632bd47f4ac486aed134260552663e13a0a64175a0cc6',
        (2, 0): 'cdcd4582ee9ae68c14f9ce6f9ffe2f2767d140ea8ceae6c7e38de1bf2a988e39',
        (2, 1): '44bf35da0ab4e81d9b9b25b8eb7e67e9ee5bc03298ee3d4da3476f77390e1f2b',
        (2, 2): '91c656caf07af6f8c20cd1de033c75bfba5a27a8b7a4ff66f98c32a570081588',
        (2, 3): '45a95ec1ebcb52739d984ba2a528a9b29537d1ecb32eab9626fb74bdf4b84696',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '7b02865a2398ab531b5f30de782c6350b269b240303fcd69f6566184b1fcfbc1',
        (3, 2): 'a77074050bac0f562f93118d09f9115e49e8b53417e7fefc8b28f11d7c10deab',
        (3, 3): '743ea625c71a0317fac715028f47f71eadec60e76b55de4296acc4824dc9840f',
        (4, 0): 'e87f306b7bb90b1098d193d2660fc0b4ddc28023b9f2c1aec597d890ad0dae39',
        (4, 1): '5b4be8613d4ad7a739fcbab7b09e3d2f625ff1f212b71662688cd06286fa3180',
        (4, 2): '543bb317fd956b28ccce09e139dc1c8ed4cf7f6a93bf3d9da8c0362d47a4b8a6',
        (4, 3): '5518bb8a7ff1db3de13ab2423328a7ee5336129d4e13344103374c3d5e79b3b0',
        (5, 0): '8bfba612e212f4d678736fc7e6d5f6c4e25bf8670e440d9b6f345ff58b116ef5',
        (5, 1): 'c116a6d274a67b38c87f79d4ba23f57fa0f3e62eb6e9a571eb1742ed347c8f11',
        (5, 2): '32b339bd9b730018b068e1c0fad50c493ca7a016102dd3ab3d014ba72b6eddea',
        (5, 3): '6a23838b76c2ff278713f783a50d0f2cf4b1e2852c741d3844e4161006a43634',
    },
    'kDC-Degen': {
        (0, 0): '9b49729b25d89afd1841bf03261646703e0e46cd2efb8f54b66c54a8fed1ac33',
        (0, 1): '1a9c34f84b3d6123d33b57ad302706704b199949e6cb382baf5eb4e986f8f3c5',
        (0, 2): 'fb039a509ac82da23182713eba475c94c59ff942c626a9e071041300ae48e9a8',
        (0, 3): '0b0c802fe8aa9bd3ce1530762baec45e417f1f370b9171af819c0f969abb06a4',
        (1, 0): 'fe49980292d883a8cd8f9f6f454a9a4a76ccf9afbd96c3022d251856c4e3fd51',
        (1, 1): '843b27acb57c92477b74189c3f6cd4dcc5acb1e9d0c9176e291b98a860ec3f80',
        (1, 2): '610588356ce17779fa8d5e32964b00d6f81145ef7e7f205ed6baad05f4c9cddd',
        (1, 3): 'a99390b4b415b0bbd855455563a1e09a11461a574e3634d209b960bca3db4c0f',
        (2, 0): 'a93f841bd228d145828801c07e023f1b8217f3f65bc4706d9da906ebf2fba638',
        (2, 1): 'c41c78f84fb321f6e1125189192876a210954cf5e978dc97302b7e727c90216d',
        (2, 2): '0ae678e4919bcdd7c93af80700cc65b56a28d30246ed5b04667d62373bf49000',
        (2, 3): '94f141a63bee647e3bc07b78969964166a3c532abf47564d14e913bba242f094',
        (3, 0): '3e3d425ccfbce70aed7b223d049f7dfb5e8f77db3fd4a47e43d0a63f97e9e3c5',
        (3, 1): '13d1e39518ce5008042d351edce842f010b1aad59902bb1b9536eec960674846',
        (3, 2): '50a654a45f261448a96903e2789bfb520fb463f011a3c2f3e6d499506362b381',
        (3, 3): 'ddbd1d161916d743e9f0e1f5174db392a66c074dc122d6bca2cf8097680057df',
        (4, 0): '26e58f5a8b83137b35e0e67046f71b5d787472fbc442ddbf965f1a0e15b15ddd',
        (4, 1): '873b4aada1a0b7e6ff4cee74df2eb829d5c6d14c865eb0162bf0a756260afed5',
        (4, 2): '9b56041efdb94c82bbb8bd61988a67b4579ea80879e54ad83709336add4c142d',
        (4, 3): 'ef4ddb2bf8414b9bb153170180b1ea6668a28751595fba27d10c0d8684a68826',
        (5, 0): 'd9bf9a11614044677efd64ff37aa66012c71bfc1d25e07844ad7212feef219c1',
        (5, 1): 'aafab1236eba0cf14e714eb6daa383bbcbdcfa415d789393a732885bb1098aca',
        (5, 2): 'ec7095131ea33c94b8660bd34ad04dc7e5bc71cbdd6639e3aa8075a7b04ceafe',
        (5, 3): '85936510632c90e8656ebfb038e19701cab947f3d2645715593908c1bdabf9d5',
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


def _set_backend_variant(name):
    """kDC variant ``name`` on the set backend."""
    config = dataclasses.replace(variant_config(name), backend="set")
    return KDCSolver(config, name=name)


#: Factories of the solvers whose small-corpus results are pinned.
SMALL_CORPUS_SOLVERS = [KDBBSolver, MADECSolver] + [
    pytest.param(functools.partial(_set_backend_variant, name), id=f"set-{name}")
    for name in VARIANT_NAMES
]


def _assert_matches(golden, actual):
    mismatches = sorted(case for case, digest in golden.items() if actual[case] != digest)
    assert not mismatches, f"baseline result changed (graph index, k): {mismatches}"


class TestGoldenResults:
    """KDBB, MADEC and the set backend's results pinned answer and counter for counter.

    KDBB is perfbench's correctness reference, so its answers are pinned.
    So are both solvers' node, leaf and prune counts, the initial solution
    and the removal counts: MADEC's coloring bound and both branch orders
    read candidate sets, so a change in how the root adjacency is built
    could change the search tree without changing the optimum.

    kDC's six paper variants on ``backend="set"`` are pinned the same way.
    The differential suite pins only their sizes, so without these a change
    to the set backend's search tree would pass unnoticed.

    The baseline hashes were recorded on CPython 3.11.7 before the baselines
    were moved onto ``prepare_instance``, the set-backend hashes before the
    baselines were moved onto the set backend's branch-and-bound, and both
    moves had to leave them unchanged.  Like the trail and prepare goldens,
    they depend on set iteration order, so a disagreement on another
    interpreter is an interpreter difference first.
    """

    @pytest.mark.parametrize("make_solver", SMALL_CORPUS_SOLVERS)
    def test_small_corpus_results_unchanged(self, make_solver):
        actual = {
            (index, k): result_digest(make_solver().solve(gnp_random_graph(*spec), k))
            for index, spec in enumerate(GOLDEN_SMALL_GRAPHS)
            for k in range(4)
        }
        _assert_matches(GOLDEN_SMALL[make_solver().name], actual)

    def test_powerlaw_kdbb_results_unchanged(self):
        actual = {}
        for index, (n, m, p, seed) in enumerate(GOLDEN_POWERLAW_GRAPHS):
            graph = powerlaw_cluster_graph(n, m, p, seed=seed)
            for k in (2, 3):
                actual[(index, k)] = result_digest(KDBBSolver().solve(graph, k))
        _assert_matches(GOLDEN_POWERLAW_KDBB, actual)
