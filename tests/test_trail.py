"""Trail (undo-stack) engine tests: golden DFS traces and push/pop restoration.

Two properties pin the branch-and-bound engine:

* **Golden traces** — on a fixed seeded corpus of small G(n, p) graphs the
  engine must visit exactly the recorded search tree: the same node, prune,
  leaf and recolor counts, the same optimum and, where the engine runs
  directly, the same SHA-256 of its DFS trace (the ``(S, cand)`` bitmask pair
  at every node, in visit order).  Four shapes are pinned: kDC on the whole
  graph, kDC-t (Algorithm 1), a forced anchor vertex (the decomposition's
  subproblem shape) and the forced degeneracy decomposition.  The values
  were recorded just before the copy-per-child engine was removed and
  replace the lockstep against it that this suite used to run.  A fifth
  table pins default solves at the benchmark's dense-search scale.  A change
  that alters the tree on purpose must re-record them and say why.
* **Push/pop** — any sequence of trailed transitions (additions, single
  removals and batched removal sweeps) followed by a rewind restores the
  :class:`BitsetSearchState` bit-for-bit, including nested marks.

Exactness of the default configuration is checked here against the set
backend and exhaustively in ``tests/test_differential.py``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitsetEngine,
    BitsetSearchState,
    KDCSolver,
    SearchStats,
    SolverConfig,
    variant_config,
)
from repro.core.bitset_state import bits_of, mask_of
from repro.graphs import gnp_random_graph


def _adjacency_bits(graph):
    relabeled, _, _ = graph.relabel()
    n = relabeled.num_vertices
    adj = [mask_of(relabeled.neighbors(v)) for v in range(n)]
    return adj, n


def graphs(min_vertices=2, max_vertices=24):
    return st.builds(
        gnp_random_graph,
        st.integers(min_value=min_vertices, max_value=max_vertices),
        st.floats(min_value=0.05, max_value=0.9),
        seed=st.integers(min_value=0, max_value=10_000),
    )


# --------------------------------------------------------------------------- #
# Golden DFS traces
# --------------------------------------------------------------------------- #
#: The golden corpus: seeded G(n, p) graphs as ``(n, p, seed)``; every table
#: below is keyed by ``(index into this tuple, k)``.
GOLDEN_GRAPHS = (
    (12, 0.5, 101), (16, 0.7, 102), (20, 0.35, 103), (22, 0.15, 110),
    (24, 0.6, 104), (28, 0.45, 105), (30, 0.7, 108), (26, 0.85, 109),
)

# Engine-direct shapes: (nodes, prunes_by_bound, leaves, recolor_full,
# recolor_repair, optimum, SHA-256 of the DFS trace).  kDC-t has no bounds,
# so its tree grows fast with n; it is pinned on the graphs with n <= 22.
GOLDEN_KDC = {
    (0, 0): (7, 1, 1, 2, 3, 4, "a201f03ab5b302b4b8cc9d868365a248ee9cf480bf50bb1413300c218a927cc9"),
    (0, 1): (11, 1, 1, 5, 5, 5, "b0f4a09de59edab89eae61da6b553903bfcda50a53043cc4ce16f8d21967dbc7"),
    (0, 2): (15, 1, 3, 5, 7, 6, "40ec51afa64b2503ba8939791772ad1d53b6e7426551f12454d76ca3b09228b6"),
    (0, 3): (31, 3, 8, 7, 16, 6, "577b1e85b80abb776980f2ff2c50ef5d59d341f62ed544cd6fce8df8668fad8c"),
    (0, 4): (25, 7, 4, 11, 15, 7, "2caad2dcef9334ab6d82b0518958c459f2e04855544e4d4ee8896fccef56ecce"),
    (1, 0): (5, 0, 1, 1, 1, 8, "316a66775c34b7c25d035c0d32257e5463183f65b770bf4d5af5b6c2bb84e766"),
    (1, 1): (15, 1, 3, 8, 7, 8, "2fdb752e7f0c7f018db5b3f6806d296474b4c857fbb94d33de3a1358df50014e"),
    (1, 2): (19, 2, 4, 8, 10, 9, "b702ec7200460703c7c9f166b94ee952241fbdac28f3db85c2a198a4ccccf45b"),
    (1, 3): (63, 8, 15, 17, 37, 9, "ddc47ad62cd694961dd490b8ef8ed53ccd64b71c8b2d8c7298c3b165910fe300"),
    (1, 4): (63, 9, 13, 19, 38, 10, "27059b58870e0dac5cc160fadb68f7e18ac50af0ddc2df6fd99bc286400111c8"),
    (2, 0): (9, 1, 1, 3, 4, 4, "39ab258c170ae7da896d1c749ffddb9d16a60ba41a5eacaa296ca639a26daeb4"),
    (2, 1): (11, 2, 2, 5, 6, 5, "0ec3aab14bf71d8612bac839aef04af5c6c19adfa6601e11f7187a0c011c9f81"),
    (2, 2): (53, 4, 12, 8, 27, 5, "7b468921815fd9b372f2a7cae41113a0da9f2f6a71e51add2a716fc6bce7e992"),
    (2, 3): (59, 3, 13, 12, 29, 6, "5460c3a99484994790f5490d49593e3d03384b40bfbfbfcc3f1ae26feb404868"),
    (2, 4): (129, 19, 25, 32, 75, 6, "5252d002591edaedb954741cab8e04fc86e25376c18c90cb2bd824b92db17ed8"),
    (3, 0): (7, 0, 2, 1, 2, 4, "3134b4c9b218586a292f3829f6334986186edd41bfbd6097d5d23c7da50c629b"),
    (3, 1): (5, 0, 2, 1, 1, 4, "9462a9936e4106ca30a7a549d7baf19627570e5354f6bdd8f367033b3dedbcc6"),
    (3, 2): (9, 0, 3, 1, 3, 5, "0de8df2dc18d376122a1f58d5070e8b316a760389fbc9d02799b40dc339994e5"),
    (3, 3): (29, 2, 5, 3, 15, 5, "3912c9a76a6b089bcdea67c5fd0c08ac40609eafe6f0b25bc33d4b1757596b1c"),
    (3, 4): (101, 13, 15, 28, 56, 5, "67e0c2708150308c596bea5b22937ec43a10299c4e505beeecb4f0bf534f4fae"),
    (4, 0): (9, 2, 1, 3, 5, 8, "a27d16c1b056b81b50591b59c96292347d59160f11bc70837a1803044886d588"),
    (4, 1): (65, 7, 2, 20, 34, 8, "04eec02b9c1b0e9a9ccb75b4aae03f535def8564172411cd5d2079afefd28343"),
    (4, 2): (71, 14, 3, 22, 43, 9, "dc1f7b38759e07a61fa09607b73f2d0ba5ef32392fa88dcd24a221113bcfd499"),
    (4, 3): (281, 39, 16, 68, 157, 9, "816156a35f69e185d50f60aa196cf8dca2d5cab2e3d50cd769dd727ca8dfcee7"),
    (4, 4): (277, 57, 12, 71, 160, 10, "ba631402f1c8e0bfc2300a418eeeaa1d98e2b641037a79844b675d1de5711b52"),
    (5, 0): (25, 0, 3, 2, 11, 6, "bbf1c0aaf37e13d5cda53ad00fd16bae90a7ed3de50c4b46a02582cd13eee451"),
    (5, 1): (47, 1, 5, 5, 22, 7, "4814336f1215857447365cf149445bbcbac53f5c3a7db9dc51bddca73c2082f2"),
    (5, 2): (113, 6, 8, 20, 56, 7, "4922b29ecef66ac2dd44b8206baf96905a7183cdfe606bc3ba092ecc3f6f9713"),
    (5, 3): (245, 23, 14, 63, 129, 7, "f3786d2d2d68825936c17d1e1b472d16297013d887b731914d4da337207f61e7"),
    (5, 4): (197, 35, 10, 43, 111, 8, "89930ca1505586d22f70162ca131117c261116d674c1bef5f90c0dbbb4a94655"),
    (6, 0): (17, 5, 1, 6, 12, 10, "155285f2924dc3d75708e34730d92698a96ac6f2ee011724733915556ff65a0c"),
    (6, 1): (55, 9, 2, 16, 33, 11, "d4a93d52db6638b246eb536f984c053fa5299f43a15e611b6211f1b7f4c9772a"),
    (6, 2): (261, 47, 2, 65, 161, 11, "35335382306e441e32f872812fe33dc7e3f762816f46f0e29026025a7713030d"),
    (6, 3): (441, 88, 10, 111, 277, 12, "465cbb417690cce3cb557282cec29e3c2dcc385dc54e4702e007241991ff96be"),
    (6, 4): (803, 235, 17, 266, 532, 12, "7da4e8bf5da88690dd3479eb9c629eff7ab43d6112382ee7545929046d58ba5f"),
    (7, 0): (31, 10, 1, 12, 24, 11, "e8c2b130891ec268c2e8f53f39be6747f2cd0beb077bf19401e02be4ea3f28d2"),
    (7, 1): (87, 27, 3, 29, 65, 12, "e60fce8cf6243279ef077fd01230b0cdf191761cb3b110458a13dd4841872005"),
    (7, 2): (329, 98, 13, 134, 221, 12, "af8a02ad20e37e8ebe2879ae58c2233a1159751ddd294797febc2b119a97b349"),
    (7, 3): (405, 140, 18, 181, 288, 13, "cd2b1e4668f082b859460f1c12c79720ffaa9a38e35f9044200f0f11ae4e7659"),
    (7, 4): (1683, 547, 120, 662, 1195, 13, "e4c982ada34b3a6a0cf55b0d70955ff6c3a210d8115e5e8e76fb51f1c78be08c"),
}

GOLDEN_KDC_T = {
    (0, 0): (55, 0, 28, 0, 0, 4, "ad01b28552d22bbd0016330e566aef697419ec04c446c69ed6485a174d60683d"),
    (0, 1): (183, 0, 92, 0, 0, 5, "36f409b4c2108512b21cc8ad8df959b947039ec55ac0aac7cb6be93d6bb5718d"),
    (0, 2): (383, 0, 192, 0, 0, 6, "5a6a96aba64cd09833a1a6262e7bbbbb30b10528166fe0136359f121a53e6874"),
    (0, 3): (621, 0, 311, 0, 0, 6, "e8adb336c2558fb8bd477a92e616536234f0be41e5ded293a5ed37cbabe466d5"),
    (0, 4): (849, 0, 425, 0, 0, 7, "d4d2793ea386c583e2473fec9b241c862d4ed42c4005103a98af9f2020e42d6c"),
    (1, 0): (23, 0, 12, 0, 0, 8, "27186c1d7e034a7ae516f326a086cdf8631e83c5e9a1974ef5e4a915442dbaa3"),
    (1, 1): (79, 0, 40, 0, 0, 8, "f1e2acb2443abcff951ee8705a6a6cf97a9545c203e364edbe67d5e09e38a7cd"),
    (1, 2): (175, 0, 88, 0, 0, 9, "7c09bbbe62fbe7f97ed31a22ecc5c8b4261f4d0ed917de40f04bd2a1036f130a"),
    (1, 3): (305, 0, 153, 0, 0, 9, "229b6fb78f2f093224261327773786cd71f7cde2b1726463635b0837d9435e56"),
    (1, 4): (483, 0, 242, 0, 0, 10, "fab5371eaf4f41e3f19da0fa2000d0ba58ad2aa84259824158775752248e1b21"),
    (2, 0): (125, 0, 63, 0, 0, 4, "468d341a639df173fdc3fb1af6cf40f0a3b5ce9ae0b871de418582922ea5563b"),
    (2, 1): (585, 0, 293, 0, 0, 5, "9bf6c20055bf825c4229e5b4f24002c44b4cec2c93c923c399fc9d978b086514"),
    (2, 2): (1719, 0, 860, 0, 0, 5, "641bd7664da4c356606033f4077dcb93c2de79511abdb63619c4270476e0e7dc"),
    (2, 3): (3433, 0, 1717, 0, 0, 6, "5d32705788bfe82b403ad6548f7bc34e5b7bd82afe8486e2360e2d7e67810c29"),
    (2, 4): (6585, 0, 3293, 0, 0, 6, "bd6c1183423a2f4b0a4fc0a0eb4d7602b2984e53e08af8c57354a49d04951f5b"),
    (3, 0): (81, 0, 41, 0, 0, 4, "010f74a095f741f397e06f8198e0fdcce82e07efb9d38aa73cbb7092af1b586e"),
    (3, 1): (529, 0, 265, 0, 0, 4, "d42fdaba77e25244b9764c6277ed6c5c23de8a9af062c014da381ac61b21e5c1"),
    (3, 2): (1389, 0, 695, 0, 0, 5, "a49d267177a33ff94fa110833dae32f4ef915445ed8792d616a6f8abb0326e18"),
    (3, 3): (3367, 0, 1684, 0, 0, 5, "56bffce723407d5045e91afa76b536588eb3cb54158fbb0cc3f90dbb76381f66"),
    (3, 4): (5453, 0, 2727, 0, 0, 5, "8d8af13b43e9360c717633bd1e104fc6a663f6d44f6bd35b0bf694460572eb03"),
}

GOLDEN_ANCHOR = {
    (0, 0): (3, 0, 1, 1, 0, 3, "e095fa0c516d252549379497f1c7452fdb9bfb8f47d0aaf517017b3ee6c711b6"),
    (0, 1): (5, 0, 1, 1, 1, 4, "d992da8504322ab62b4fe53a0693638c48a3e19bbfe6dde610ddc457efa26af7"),
    (0, 2): (7, 1, 1, 2, 3, 5, "556a4101a280e38a86c4906053e668ad82dfb6762c843fa8578561ea03fab899"),
    (0, 3): (9, 2, 2, 2, 4, 6, "abf657628e71a1074e1b7800cdceecb82a7ec1f354e5c41300ff5ac96aaec91a"),
    (0, 4): (27, 8, 6, 11, 20, 6, "53b8bd2fcac0a6218f36649c0b620a62e8e43e3e086323a855b911b357b2ced0"),
    (1, 0): (3, 0, 1, 1, 0, 8, "7d1942b2c80720c40b8cf18b65d837c715e8df9c8d12a4479e8507c0be6b9acf"),
    (1, 1): (11, 0, 3, 5, 4, 8, "ab7a74d31677bf0c06c7ba6bea0a8d72025e9fbaa2437a06ac2da746dc3e6032"),
    (1, 2): (13, 1, 3, 5, 6, 9, "41273712bb6e2072bfbf3dc55497133defa6b8ccae48344948101c1713cc75a3"),
    (1, 3): (43, 3, 14, 15, 22, 9, "eba4984e0a9c71ade09bdf04682889b75be3adb9d3a02d869d320eb135993077"),
    (1, 4): (41, 4, 13, 14, 23, 10, "4e6bdca1792ea15a6781e9f5fd799c705ed78b3ca228200b7106e4008974b40e"),
    (2, 0): (5, 0, 1, 1, 1, 4, "6255bef13789320533b1bfb2a952b7b0bfc1fc1ead3a86ac863a6e5eb67a9115"),
    (2, 1): (19, 0, 3, 2, 8, 5, "d4b8d401ae9117d89183410627dca89664a84ab5ab8d145962fc19913c6e5e5e"),
    (2, 2): (29, 2, 6, 7, 15, 5, "677947c2ae43da230945421239ac8044d74c0e629311cc66f506beed14f7623c"),
    (2, 3): (31, 2, 8, 7, 16, 6, "f2cab0f43a8f1df1541bd7d27da235a9c3194259f4241bad9e01c38d93bbc64c"),
    (2, 4): (63, 8, 14, 18, 37, 6, "a4ffbb1ff38a8330b6c24eaffc60a27fab40f0453f6ff9138a78850e7ab13003"),
    (3, 0): (1, 0, 1, 0, 0, 2, "d7e826b6235a389df145ce57ac8ee0b2fe2cf7667e3a037484f761421bc9b62c"),
    (3, 1): (3, 0, 1, 1, 0, 3, "5f791a2312421590c9dd56287e82bedd7dcbbd76f7acb994cc063cc80f088624"),
    (3, 2): (7, 0, 2, 2, 2, 4, "7909abe10d1d3c6236f5ccca63a97d2c1f6d7c0a4937b2a1addcdd202aee769a"),
    (3, 3): (7, 1, 2, 2, 3, 4, "f678dab091f42985b184a28c6e3207516594973dafc7cfd0873068dacf211d9a"),
    (3, 4): (7, 1, 1, 2, 3, 5, "122aebd632ed1449e192e8f657ca632bb4d90836c1bd48dc7a722f3790c31bc2"),
    (4, 0): (5, 0, 1, 1, 1, 7, "47c04de31a559af830da8f0fe5994a4bf3c78f3d234714a9eac4197ea890dfb5"),
    (4, 1): (7, 1, 2, 2, 3, 8, "c2525ede7524fd3c10564faf3dfdf5806658a2c1de694c4c514460d9af390bc1"),
    (4, 2): (29, 1, 4, 6, 14, 9, "baa90e7d5355218b53470325e363ba90f3d7a7f9a95c6d5666b0a58101710ef2"),
    (4, 3): (55, 5, 5, 9, 29, 9, "5b7b9636eed589c7ede4d284b4dc0f6a596fb00bac05a4b46717362c8b449b75"),
    (4, 4): (93, 13, 11, 21, 51, 10, "1265d6d796127bfda76c670e4d4509275b460d6fb7fd0a08969ea509f96c24d4"),
    (5, 0): (5, 0, 1, 1, 1, 5, "849b17996ed0b7b3a762772babf30641580302d1bfb48fe61078146d5955aa86"),
    (5, 1): (5, 1, 1, 2, 2, 6, "098affa84140f73b9cd4685416f9b09000e0feac006a27029b1c6ceb46cd1f10"),
    (5, 2): (19, 1, 2, 2, 9, 7, "71469f9be7ea48b0300b14ce39ebc153409c6b29c86dab59413693b8901f9013"),
    (5, 3): (85, 4, 16, 10, 42, 7, "267b8eb43cd4e98fca370c34a27bdfe9a24feafaa911fa775a2e381ea1073a93"),
    (5, 4): (93, 12, 8, 26, 52, 8, "13842d8dc7bb8c747846182bf41d6bb155b4dad32c2f27264c572fa93eccc8be"),
    (6, 0): (11, 1, 2, 2, 5, 10, "81f3e593bcfdf25482cb3e9d1302cafc50aca4149473d13027f8d06ad3b1f0f7"),
    (6, 1): (13, 1, 3, 3, 6, 11, "f6235bef830950a5a61c48f19ac0cdf7b799c63e9563b5e898f714e9113c313c"),
    (6, 2): (53, 10, 3, 21, 33, 11, "c35938a88f523faac11744a2e433a102d23a69ea7b217f35082167f6da6a0f82"),
    (6, 3): (193, 36, 19, 49, 116, 11, "bf0c37ccddcdc42461a1ad98b9a255c392f068372fc97fc128885b61c625c8e4"),
    (6, 4): (193, 45, 16, 50, 123, 12, "593b305a445cab04ccb6e0bf71570e53a4559072f365374b272919ff7e22600b"),
    (7, 0): (5, 1, 1, 1, 2, 11, "9d95f663c030a7ad2936e2719c63f4a3894b555944ea1ddfd9c9ccff1353844a"),
    (7, 1): (17, 2, 2, 4, 9, 12, "c2aa4065d86a7fe8c1fe8b2dcd3f8efae5fae9b3827ab30ef1bd15849df2b7d4"),
    (7, 2): (111, 16, 13, 39, 60, 12, "db5eed2f6a0217c2dc8b6b17bad1694b3585712066eff91e0bfa6bbac0d7c74c"),
    (7, 3): (139, 38, 11, 54, 92, 13, "20eb83d1fcde0dda02612b4ff3fa1d6a55d519588d39ccd80e2a47e65fbef19c"),
    (7, 4): (563, 111, 103, 200, 347, 13, "9637de921a6d9a2de80b2776d85dff5326975f1d147705d9943d68f4b97b902c"),
}

# The forced decomposition through KDCSolver (prepare included): (nodes,
# prunes_by_bound, leaves, recolor_full, recolor_repair, optimum,
# subproblems, subproblems_pruned).  Re-recorded when build_ego_subproblem
# gained its core certificate: 15 rows moved anchors from subproblems to
# subproblems_pruned (their sum and the optimum are unchanged) and no count
# rose, because a closed anchor could not have raised the incumbent.
GOLDEN_DECOMPOSED = {
    (0, 0): (0, 0, 0, 0, 0, 4, 0, 0),
    (0, 1): (0, 0, 0, 0, 0, 5, 0, 0),
    (0, 2): (0, 0, 0, 0, 0, 6, 0, 0),
    (0, 3): (9, 5, 4, 5, 0, 6, 9, 3),
    (0, 4): (9, 4, 4, 4, 0, 7, 9, 3),
    (1, 0): (0, 0, 0, 0, 0, 8, 0, 0),
    (1, 1): (2, 0, 2, 0, 0, 8, 2, 10),
    (1, 2): (2, 0, 2, 0, 0, 9, 2, 10),
    (1, 3): (31, 7, 13, 15, 13, 9, 9, 6),
    (1, 4): (19, 7, 6, 10, 7, 10, 9, 6),
    (2, 0): (0, 0, 0, 0, 0, 4, 0, 0),
    (2, 1): (0, 0, 0, 0, 0, 5, 0, 0),
    (2, 2): (9, 2, 6, 3, 0, 5, 7, 6),
    (2, 3): (7, 3, 2, 3, 0, 6, 7, 6),
    (2, 4): (64, 18, 16, 32, 26, 6, 18, 2),
    (3, 0): (0, 0, 0, 0, 0, 4, 0, 0),
    (3, 1): (1, 0, 1, 0, 0, 4, 1, 3),
    (3, 2): (1, 0, 1, 0, 0, 5, 1, 3),
    (3, 3): (10, 2, 7, 2, 0, 5, 10, 4),
    (3, 4): (61, 15, 24, 30, 21, 5, 21, 1),
    (4, 0): (0, 0, 0, 0, 0, 8, 0, 0),
    (4, 1): (1, 0, 1, 0, 0, 8, 1, 7),
    (4, 2): (1, 0, 1, 0, 0, 9, 1, 7),
    (4, 3): (98, 22, 13, 33, 54, 9, 12, 10),
    (4, 4): (82, 27, 7, 32, 50, 10, 12, 10),
    (5, 0): (0, 0, 0, 0, 0, 6, 0, 0),
    (5, 1): (0, 0, 0, 0, 0, 7, 0, 0),
    (5, 2): (2, 0, 2, 0, 0, 7, 2, 5),
    (5, 3): (26, 8, 6, 14, 8, 7, 12, 12),
    (5, 4): (18, 8, 5, 8, 5, 8, 12, 12),
    (6, 0): (3, 0, 0, 0, 0, 10, 3, 20),
    (6, 1): (3, 2, 0, 2, 0, 11, 3, 20),
    (6, 2): (104, 27, 4, 30, 63, 11, 10, 18),
    (6, 3): (258, 71, 15, 86, 168, 12, 18, 12),
    (6, 4): (520, 163, 21, 195, 361, 12, 20, 10),
    (7, 0): (14, 2, 1, 2, 0, 11, 14, 12),
    (7, 1): (14, 7, 1, 7, 0, 12, 14, 12),
    (7, 2): (58, 19, 5, 18, 30, 12, 14, 12),
    (7, 3): (62, 29, 5, 23, 41, 13, 14, 12),
    (7, 4): (495, 188, 48, 225, 389, 13, 17, 9),
}


# Default KDCSolver solves at k = 3 on the benchmark's dense-search shapes,
# keyed by (n, p, seed) of gnp_random_graph: (nodes, prunes_by_bound, leaves,
# recolor_full, recolor_repair, optimum, subproblems).  G(140, .2) takes the
# ego-subproblem path, G(74, .35) the whole-graph engine.  The G(140, .2)
# rows were re-recorded with the core certificate, which closes 39 and 49 of
# their anchors before building them.
GOLDEN_DENSE = {
    (140, 0.2, 1): (4425, 619, 46, 1231, 2469, 7, 95),
    (140, 0.2, 2): (2163, 248, 34, 740, 1134, 7, 81),
    (74, 0.35, 1): (4475, 627, 13, 844, 2485, 8, 0),
    (74, 0.35, 2): (3497, 463, 18, 677, 1926, 8, 0),
}


def _trace_digest(trace):
    digest = hashlib.sha256()
    for solution_bits, cand_bits in trace:
        digest.update(f"{solution_bits:x}:{cand_bits:x};".encode())
    return digest.hexdigest()


def _engine_row(case, config, forced=None):
    """Run the engine over one whole corpus graph, capturing its DFS trace."""
    graph_index, k = case
    adj, n = _adjacency_bits(gnp_random_graph(*GOLDEN_GRAPHS[graph_index]))
    stats = SearchStats()
    incumbent: list = []
    engine = BitsetEngine(config, stats, lambda: None, incumbent)
    engine.trace = []
    engine.run(adj, (1 << n) - 1, k, forced=forced)
    return (
        stats.nodes, stats.prunes_by_bound, stats.leaves, stats.recolor_full,
        stats.recolor_repair, len(incumbent), _trace_digest(engine.trace),
    )


def _decomposed_row(case):
    graph_index, k = case
    config = SolverConfig(backend="bitset", decompose_threshold=1)
    result = KDCSolver(config).solve(gnp_random_graph(*GOLDEN_GRAPHS[graph_index]), k)
    stats = result.stats
    return (
        stats.nodes, stats.prunes_by_bound, stats.leaves, stats.recolor_full,
        stats.recolor_repair, result.size, stats.subproblems, stats.subproblems_pruned,
    )


def _dense_row(case):
    result = KDCSolver().solve(gnp_random_graph(*case), 3)
    stats = result.stats
    return (
        stats.nodes, stats.prunes_by_bound, stats.leaves, stats.recolor_full,
        stats.recolor_repair, result.size, stats.subproblems,
    )


def _assert_golden(golden, row):
    mismatches = {}
    for case, expected in golden.items():
        actual = row(case)
        if actual != expected:
            mismatches[case] = (expected, actual)
    assert not mismatches, f"search tree changed (case: (golden, now)): {mismatches}"


class TestLockstep:
    """The engine steps through exactly the recorded search trees."""

    def test_golden_kdc(self):
        config = SolverConfig(backend="bitset")
        _assert_golden(GOLDEN_KDC, lambda case: _engine_row(case, config))

    def test_golden_kdc_t(self):
        config = replace(variant_config("kDC-t"), backend="bitset")
        _assert_golden(GOLDEN_KDC_T, lambda case: _engine_row(case, config))

    def test_golden_forced_anchor(self):
        config = SolverConfig(backend="bitset")
        _assert_golden(GOLDEN_ANCHOR, lambda case: _engine_row(case, config, forced=0))

    def test_decomposed_node_counts_match(self):
        """Forced decomposition: node, prune, recolor and subproblem counts."""
        _assert_golden(GOLDEN_DECOMPOSED, _decomposed_row)

    def test_golden_dense(self):
        """Default solves at dense-search scale, decomposed and whole-graph."""
        _assert_golden(GOLDEN_DENSE, _dense_row)

    @given(graphs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=25, deadline=None)
    def test_default_trail_is_exact(self, g, k):
        """The default (amortised) engine configuration returns the optimum."""
        expected = KDCSolver(SolverConfig(backend="set")).solve(g, k).size
        result = KDCSolver(SolverConfig(backend="bitset")).solve(g, k)
        assert result.size == expected

    def test_trail_counters_balance(self):
        """A completed solve pops everything it pushed and counts recolors."""
        g = gnp_random_graph(90, 0.25, seed=5)
        result = KDCSolver(SolverConfig(backend="bitset")).solve(g, 2)
        stats = result.stats
        assert stats.trail_pushes > 0
        assert stats.trail_pushes == stats.trail_pops
        assert stats.recolor_full > 0
        assert stats.dirty_drained > 0


# --------------------------------------------------------------------------- #
# Push/pop restoration property
# --------------------------------------------------------------------------- #
def _snapshot(state):
    return (
        list(state.solution),
        state.solution_bits,
        state.cand_bits,
        state.missing_in_solution,
        state.cost_masks(),
        state.last_added,
    )


def _random_ops(state, rng, max_ops):
    """Apply a random mix of trailed adds, removals and batched removals.

    Returns how many trail entries were pushed: one per operation, a batch
    included.
    """
    applied = 0
    for _ in range(max_ops):
        cand = bits_of(state.cand_bits)
        if not cand:
            break
        v = rng.choice(cand)
        roll = rng.random()
        if roll < 0.5 and state.missing_if_added(v) <= state.k:
            state.add_to_solution(v)
        elif roll < 0.75:
            state.remove_candidates(mask_of(rng.sample(cand, rng.randint(1, len(cand)))))
        else:
            state.remove_candidate(v)
        applied += 1
    return applied


class TestPushPop:
    @given(
        graphs(min_vertices=3, max_vertices=18),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_rewind_restores_state_bit_for_bit(self, g, k, op_seed):
        adj, n = _adjacency_bits(g)
        state = BitsetSearchState.initial(adj, k)
        state.begin_trail()
        rng = random.Random(op_seed)

        before = _snapshot(state)
        mark = state.trail_mark()
        applied = _random_ops(state, rng, max_ops=n)
        popped = state.rewind_to(mark)
        assert popped == applied
        assert _snapshot(state) == before
        state.check_invariants()

    @given(
        graphs(min_vertices=4, max_vertices=16),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_nested_marks_rewind_independently(self, g, k, op_seed):
        """Branch-like nesting: inner rewinds restore the outer mark's context."""
        adj, n = _adjacency_bits(g)
        state = BitsetSearchState.initial(adj, k)
        state.begin_trail()
        rng = random.Random(op_seed)

        outer_before = _snapshot(state)
        outer = state.trail_mark()
        _random_ops(state, rng, max_ops=max(1, n // 3))

        inner_before = _snapshot(state)
        inner = state.trail_mark()
        _random_ops(state, rng, max_ops=max(1, n // 3))
        state.rewind_to(inner)
        assert _snapshot(state) == inner_before

        # A second subtree from the same inner mark, then unwind everything.
        _random_ops(state, rng, max_ops=max(1, n // 3))
        state.rewind_to(inner)
        assert _snapshot(state) == inner_before
        state.rewind_to(outer)
        assert _snapshot(state) == outer_before
        state.check_invariants()
