"""Golden prepare artifacts: ``prepare_instance`` output pinned field for field.

Each case records one SHA-256 over the parts of a
:class:`~repro.core.prepared.PreparedInstance` the search consumes: the
heuristic incumbent, the ``working_adj`` items in order, the degeneracy
ordering, the working edge count and the removed-vertex and removed-edge
counts.  The corpus is the seeded G(n, p) corpus of ``tests/test_trail.py``
(``GOLDEN_GRAPHS``) plus the graphs of ``tests/test_differential.py`` at
k = 0..4, and two power-law graphs large enough that the heuristic and the
RR5/RR6 peels run for thousands of steps, at k = 2 and 3.  Every case runs
under four prepare configurations: kDC, kDC-t (no heuristic, no
preprocessing), Degen instead of Degen-opt, and RR6 off.

The hashes were recorded on CPython 3.11.7 before the prepare layers were
moved onto integer rows, and the rewrite had to leave them unchanged.  Like
the trail goldens, they depend on set iteration order (the degeneracy
ordering breaks ties by it), so a disagreement on another interpreter is an
interpreter difference first.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.core import SolverConfig, prepare_instance, variant_config
from repro.graphs import gnp_random_graph, powerlaw_cluster_graph

#: ``tests/test_trail.py``'s ``GOLDEN_GRAPHS`` followed by the distinct
#: graphs of ``tests/test_differential.py``, as ``(n, p, seed)``.
SMALL_GRAPHS = (
    (12, 0.5, 101), (16, 0.7, 102), (20, 0.35, 103), (22, 0.15, 110),
    (24, 0.6, 104), (28, 0.45, 105), (30, 0.7, 108), (26, 0.85, 109),
    (30, 0.25, 0), (30, 0.40, 1), (45, 0.30, 2), (60, 0.20, 3),
    (60, 0.30, 0), (70, 0.25, 1), (55, 0.35, 7), (60, 0.30, 5),
    (45, 0.30, 13), (25, 0.35, 11),
)
#: ``powerlaw_cluster_graph`` arguments ``(n, m, p, seed)``.
POWERLAW_GRAPHS = ((1500, 10, 0.3, 1), (2000, 8, 0.3, 2))

CONFIGS = {
    "kDC": SolverConfig(),
    "kDC-t": variant_config("kDC-t"),
    "degen": SolverConfig(initial_heuristic="degen"),
    "no-rr6": SolverConfig(use_rr6=False),
}

# (graph index, k) -> SHA-256 of the artifact, per configuration.
GOLDEN_SMALL = {
    'degen': {
        (0, 0): 'e4e3e9e5f60c6f20eaed6fec14615ab27d9a04543fca6ae829d1457010a58c1e',
        (0, 1): '93d48b131bab0d12f835c61776e4cdc2533043e78678cdc463b474aa8f4815e9',
        (0, 2): '966f50af8df3520b8c410c1748da43b04673c2c4d73b2d4aad52b4a73892c874',
        (0, 3): '516b99d1347f5596ac3b3e95bff00c2b7aecf9c7cd86a1223de00fdba043484c',
        (0, 4): 'dae6ba459ead56d391194d194d3bd29623207399785ffacc9e4e7e68d06d3f8b',
        (1, 0): 'e3736cd594ca02ddb56f04e929d2e372afee36ebec0f185f69b674c14ab0709f',
        (1, 1): '524e8945121239e676a7fd3a99541f84cc684a0d830597172547276624a11acc',
        (1, 2): '670746b3ec3fdc001036f32056390339e6819e605cb25951c0bfdd131afcf6d8',
        (1, 3): 'd57b76f4a1cbc0d57632a7141ab93207fd9d6f51519d8cb819801f202ab2bc8f',
        (1, 4): '40fbdf22195f340d3ada14bf192ac66a71885017f79f103c8e360e210781be5b',
        (2, 0): '3b7acd305389ba8c98e99e14aef88128b3f0ba8b29e350c035662922d2b08b03',
        (2, 1): '4e43879ac6a38d0dd92b0f19f583f5d7be3e74b798420c27370e89dee84c36f2',
        (2, 2): '757764b438ccca37f5d789d919b507fc48870552b07cbe117f8f1a130dab2b43',
        (2, 3): '2be5a6dd4109a8b45c3fb410776a2c3c2fb8ff1b4ca2e5a852fe12b7097fd03e',
        (2, 4): 'c8a630a4bcd4bdd8cba03d911a62aa5c3ef4cddb8ede10aa7409c2c023d62ec0',
        (3, 0): '98c20a99f2d0c51397467aaeea3b6c4c68ad5e8a54e12bd1d289bdb1d6a39703',
        (3, 1): '0c1b1ae4f5352640cb3134b02062e993e172b206f4e910342339f74f7877d502',
        (3, 2): '42bbfaea4d3a2cd179a7124345a1998e9eeb765d45796d711d043af9f74d8872',
        (3, 3): 'ce812c278e1641f1dd796592bc0e97de8b3baecbe637826023b0ab7809f5dd9b',
        (3, 4): 'bb1ca165788f1c4967da89f3629f30d0b10dec8eb224925f125b5841e3e53f0b',
        (4, 0): '44128778838234439c32a35bac05e493326cf8319bcac13341c15f099fa51a1e',
        (4, 1): 'f4af389b0b27295c5407222f3e4190048de0d803d42f06022a47215688a7c8a8',
        (4, 2): '5b8f4aaacf356053c67f2a0fa174caba39557f8e58ee0bace617efb325b2fb07',
        (4, 3): '69de6c83ff30a6e7a6205131f1cb18f9ff77b0a1fc8db04272f0bf8f9f921a85',
        (4, 4): '0eeb36d2962866d3cd7aa160a1d42e00fa4324fa13589cc3a4002c0ff66b32fc',
        (5, 0): 'fa110c712177883a15a20b329ba966ce26a8ffd59f61ad779382dd787a3c0e2b',
        (5, 1): 'd78c3c9c3fd6f0dacc30bc63d8b1aae0ff9f94e9fd8270e59cd73fae0735fd32',
        (5, 2): 'e4d0f9a36669c6b11dde6bddcacb0fc62ff67d5cc1a1cd3c9541fc286e65a03a',
        (5, 3): 'eaa4ae511381a880e649f76a1246e37eac5a85a4a25e764f61a82a34c602f59f',
        (5, 4): '7732f4f8176e3a3adfb9f9f8ea1dc0bcfb5fd454eeb6c2e937834cff07d1cd80',
        (6, 0): 'a6ea4936ce5104e012e405eef8b09e08b493f22611ae23f4b649b62f9d99b939',
        (6, 1): '30f59f08abb5ed16e0e98834655385dc32b6d7da95cf2c8de15bf822c2d90346',
        (6, 2): '5648b9b92e6859cfc0c8bc36967439fca09efbc7378cbb5461398954698bfb2f',
        (6, 3): 'ad5bdf7a717058d4d535c67106d2fcb53270dfe6ca826b05e6d4a98c84d4e450',
        (6, 4): 'ad5bdf7a717058d4d535c67106d2fcb53270dfe6ca826b05e6d4a98c84d4e450',
        (7, 0): 'ec7cf46a0c881ac03d66d1f120aca11c2e67b6ea10e2b1beb89be46a60dac604',
        (7, 1): 'f0594e3bbcdae08a3d37ffd482cd2ce6db51217abc0d0cfb7efe6688e69e46a7',
        (7, 2): '7b0ba96422b38a9f3717024bf9c8beec23aaa106423ff8b87c8f65658bdd87bd',
        (7, 3): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (7, 4): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (8, 0): '3f0108440eee35fe6c5374483df43a278ba3c4bf65547634885191a89e136bfe',
        (8, 1): '9159f6c76769dfb1159219224fdb5b4b34c63b3f5a6a0e87e865481c2568b041',
        (8, 2): '6e126acfada8ae173b457e23a0bdac0eb4cbd950c9688441ebc5d296aa4ee37f',
        (8, 3): 'fb98369eab5aab3dfb30eeeda5f2e8c5a32fd40bda3e74e29522d3000de8a184',
        (8, 4): 'a78048f3d7d6c9c1defc54d85b3305ff76af9d934929c37e7ceddbe81a743f36',
        (9, 0): '1963db3cc93ea2d749971a1e559257a8d2dc61954e72c5d1ed5cc704a3b02583',
        (9, 1): '5ee4dfedaa29e4a1bfe7d3397c93cd4fe9846b9d11d7bf0a17782473009d8701',
        (9, 2): 'ca27479ab4ba3255bd79be2de59df89f9bc1fe06f94c6db1d0834d5d4ff7aa69',
        (9, 3): '4607fe17c1ad38051c0148598b4fa2c510b5615e361f06487e17d49dd3bfe744',
        (9, 4): '8b7bac5793f1b56d945b87a5efda3a7d7320e7496f07e45b84daa088aaff0284',
        (10, 0): '2f2e0de4e1013c5de601d11a4e118cabd24e9a217df0701aca823bc5cebc2548',
        (10, 1): 'ec1419fff15416028eb43e11c25b4abec97d47013275d95f89e6c47e7ac2d89f',
        (10, 2): '8db9868a1bc3166ae260f0ad4a324345650163c71e0347e0d025036c3090b0d0',
        (10, 3): 'ae6d4769dfcb5f580032e9254ff2b23af2f2200776c2d5234f1596dc411593d5',
        (10, 4): '73d1d5379db13409c92ca221bcff56758eaad5089e8f76ec3e90693ccadfe5fb',
        (11, 0): 'bdfc014e75175073dba4d48a36b7d06a3452a1de75ff249b3d7dafb7fe69aa63',
        (11, 1): 'e4539fe9adedb72836096ded22544e04fd89a15cf56df208d6f5a0b14dca9348',
        (11, 2): 'dd20f75bd471da49b12bbcbda788e294915d8ac77c0db33c88ad8f3dd342bc77',
        (11, 3): 'dfa0deefcb1928c4a0a118a1404e8bf34ffde9b750154ac853f593a6da3da86b',
        (11, 4): '822d17bb45b6a9ffe7a019c0995b50822147c4898bdc79175d6a0efc9c8f7388',
        (12, 0): 'b69351ae8709e18caffd237a462eb4a94c7c1f2c9a39dfd1c50507499e42b6cb',
        (12, 1): '2faf1e8c1399fea7cca2e5a5046e9cd062b2428c156873eeed9efd804cb132f6',
        (12, 2): 'c38b85b3ef3346a19511077a0c18f4581895760ba12ac9d3264226537a0ee5f8',
        (12, 3): '787bb22c0ea72dbc5f19e9d4ce1a73475f64295a898a6440e05700940413e542',
        (12, 4): '15117f818304ceafdd070bf1d7d702b5d233d997067a34279b5d4636f382df27',
        (13, 0): 'd14dafdf21cfbb29e565db732215e21654c0ba9af4825a2597ec632e3cc905f3',
        (13, 1): '0aa002e91886923f00ef8010b7814d0f897d1ce6312df0dcc66065fcca0973ee',
        (13, 2): '82c48f6746a7c34cfe4f130497d07a00bcdd1810de145a33c677549dd222d415',
        (13, 3): 'ed729003a6c51c9ceee79ad539a727e2701d4a18644a7ea3ccb768db7823c0d2',
        (13, 4): 'a5e7c9328d877393b266ff14e857ad05e700f47af4513ded4d31116fa83bc485',
        (14, 0): '3f498a6982bff580a1571ed4eb86bee820541f76f8838c16e76e5502f1bb113c',
        (14, 1): '65f2d53b1af5b396efe7cb1d2dbfdcad03ed9a625b74cf8fae5e61a14ecab407',
        (14, 2): '87ed6dca0449fd817571af8a827f343fec2403c60faf012373c4f037f7e6df09',
        (14, 3): 'f7b7a57915d9ee7108482f3e7200f8ad74ea7e60e58147dee2bcd79f003406a1',
        (14, 4): '4e61bd1e339b7122e59e17aab75ef439d248ab05e643e041d379d34f46a319f2',
        (15, 0): '75693a597ce7551fcc6ae9d1ff050eb0ce46d7d57adf5147e9db0362fff26564',
        (15, 1): 'aeff0283247523033f9a774ddb658e1970ed85980fbd5858fb8f1c09e13a223f',
        (15, 2): '848296a857cff5b4d0b0d8dfbecf6f3f69a96b09db5f7874122b680032530009',
        (15, 3): '4ad4171075dc0cced3c139769123cb082d4e81522767f0576c72e2dea54ba44d',
        (15, 4): 'ba4c250b010b3f6634448c6fccaa3afd9e1133e1e385cd7064f44e11887e72c3',
        (16, 0): '88acf69f8893071afb7fce9c2a6f7f515c4a463dc5b5e81b383c2cf7ddc5b965',
        (16, 1): 'bae11ed019b6efec9078af2c7c00424c881af7efd10d3ea98f30877b09a7b7d7',
        (16, 2): 'c5be1f594750a62ad48599bec8825288e3fe342dbfe628282cd365a173b5e7ee',
        (16, 3): '32af8bda846c14b01df8f5d2902e8fff58b07b63270cf9c518ef1e2f7241497d',
        (16, 4): 'fc8d79e6700a28abd29486a3cfd8e6dfe61aabd440e51545371f72008cec264d',
        (17, 0): '4868baa6fe3f34a4b00386e3f7371ea7bfac6789b3491ac63bbd3105ad86a2a0',
        (17, 1): '0f49f7bfcbd49f7ecea24592127baf9b856a68c600c696130a7a8bcdaef54b15',
        (17, 2): '8542082b5dba9855315a75c699c2dd8152c27104c3b5e6a1db3b1c77e12f3be0',
        (17, 3): 'b259e9412364f1c381dcdef319d543ad6303c7cbd4c21e0ee69916f69d1c856d',
        (17, 4): 'ac2122df003a7cdf4e8fb8a7dd4ffc5d91d795dc3ec9c421be81be5f8f095e23',
    },
    'kDC': {
        (0, 0): 'e4e3e9e5f60c6f20eaed6fec14615ab27d9a04543fca6ae829d1457010a58c1e',
        (0, 1): '93d48b131bab0d12f835c61776e4cdc2533043e78678cdc463b474aa8f4815e9',
        (0, 2): '966f50af8df3520b8c410c1748da43b04673c2c4d73b2d4aad52b4a73892c874',
        (0, 3): '516b99d1347f5596ac3b3e95bff00c2b7aecf9c7cd86a1223de00fdba043484c',
        (0, 4): 'dae6ba459ead56d391194d194d3bd29623207399785ffacc9e4e7e68d06d3f8b',
        (1, 0): 'b4a604803644f405a10ee40e37acd276bd756be11d8e580cea9c2323a084e494',
        (1, 1): '524e8945121239e676a7fd3a99541f84cc684a0d830597172547276624a11acc',
        (1, 2): '670746b3ec3fdc001036f32056390339e6819e605cb25951c0bfdd131afcf6d8',
        (1, 3): 'd57b76f4a1cbc0d57632a7141ab93207fd9d6f51519d8cb819801f202ab2bc8f',
        (1, 4): '40fbdf22195f340d3ada14bf192ac66a71885017f79f103c8e360e210781be5b',
        (2, 0): '3b7acd305389ba8c98e99e14aef88128b3f0ba8b29e350c035662922d2b08b03',
        (2, 1): '4e43879ac6a38d0dd92b0f19f583f5d7be3e74b798420c27370e89dee84c36f2',
        (2, 2): '757764b438ccca37f5d789d919b507fc48870552b07cbe117f8f1a130dab2b43',
        (2, 3): '2be5a6dd4109a8b45c3fb410776a2c3c2fb8ff1b4ca2e5a852fe12b7097fd03e',
        (2, 4): 'c8a630a4bcd4bdd8cba03d911a62aa5c3ef4cddb8ede10aa7409c2c023d62ec0',
        (3, 0): '98c20a99f2d0c51397467aaeea3b6c4c68ad5e8a54e12bd1d289bdb1d6a39703',
        (3, 1): '0c1b1ae4f5352640cb3134b02062e993e172b206f4e910342339f74f7877d502',
        (3, 2): '42bbfaea4d3a2cd179a7124345a1998e9eeb765d45796d711d043af9f74d8872',
        (3, 3): 'ce812c278e1641f1dd796592bc0e97de8b3baecbe637826023b0ab7809f5dd9b',
        (3, 4): 'bb1ca165788f1c4967da89f3629f30d0b10dec8eb224925f125b5841e3e53f0b',
        (4, 0): '1b804d5addaa9cdddea81841273ec193802523a432eb0679dab2ad2853af44b6',
        (4, 1): 'f4af389b0b27295c5407222f3e4190048de0d803d42f06022a47215688a7c8a8',
        (4, 2): '5b8f4aaacf356053c67f2a0fa174caba39557f8e58ee0bace617efb325b2fb07',
        (4, 3): '69de6c83ff30a6e7a6205131f1cb18f9ff77b0a1fc8db04272f0bf8f9f921a85',
        (4, 4): '0eeb36d2962866d3cd7aa160a1d42e00fa4324fa13589cc3a4002c0ff66b32fc',
        (5, 0): 'fa110c712177883a15a20b329ba966ce26a8ffd59f61ad779382dd787a3c0e2b',
        (5, 1): 'd78c3c9c3fd6f0dacc30bc63d8b1aae0ff9f94e9fd8270e59cd73fae0735fd32',
        (5, 2): 'e4d0f9a36669c6b11dde6bddcacb0fc62ff67d5cc1a1cd3c9541fc286e65a03a',
        (5, 3): 'eaa4ae511381a880e649f76a1246e37eac5a85a4a25e764f61a82a34c602f59f',
        (5, 4): '7732f4f8176e3a3adfb9f9f8ea1dc0bcfb5fd454eeb6c2e937834cff07d1cd80',
        (6, 0): 'cb19e0f8e3c6566625586e03b952a0032d88e6b7a8466950e1a6ea0fc2f92001',
        (6, 1): '4d7fd46ba9bd6b48aec83827500f097aba33620ec9afca992ef7f5298c8af737',
        (6, 2): 'aea2f51e252f869cf0d590fb13614288c45e887b8cb6870d44b8f6938337b613',
        (6, 3): 'ad5bdf7a717058d4d535c67106d2fcb53270dfe6ca826b05e6d4a98c84d4e450',
        (6, 4): '5bd2b50691fae8c9e18167ebfd3da9f57efe641da97f74b76b0d9a90a9654ab5',
        (7, 0): 'ec7cf46a0c881ac03d66d1f120aca11c2e67b6ea10e2b1beb89be46a60dac604',
        (7, 1): 'f0594e3bbcdae08a3d37ffd482cd2ce6db51217abc0d0cfb7efe6688e69e46a7',
        (7, 2): '7b0ba96422b38a9f3717024bf9c8beec23aaa106423ff8b87c8f65658bdd87bd',
        (7, 3): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (7, 4): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (8, 0): '3f0108440eee35fe6c5374483df43a278ba3c4bf65547634885191a89e136bfe',
        (8, 1): '9159f6c76769dfb1159219224fdb5b4b34c63b3f5a6a0e87e865481c2568b041',
        (8, 2): '6e126acfada8ae173b457e23a0bdac0eb4cbd950c9688441ebc5d296aa4ee37f',
        (8, 3): 'fb98369eab5aab3dfb30eeeda5f2e8c5a32fd40bda3e74e29522d3000de8a184',
        (8, 4): 'a78048f3d7d6c9c1defc54d85b3305ff76af9d934929c37e7ceddbe81a743f36',
        (9, 0): 'ba1f21e2ce99668ad0ffb4b4265e4aac21cd4bedb6fb75fa5a7f9241ae59df6c',
        (9, 1): '5ee4dfedaa29e4a1bfe7d3397c93cd4fe9846b9d11d7bf0a17782473009d8701',
        (9, 2): 'ca27479ab4ba3255bd79be2de59df89f9bc1fe06f94c6db1d0834d5d4ff7aa69',
        (9, 3): '4607fe17c1ad38051c0148598b4fa2c510b5615e361f06487e17d49dd3bfe744',
        (9, 4): '8b7bac5793f1b56d945b87a5efda3a7d7320e7496f07e45b84daa088aaff0284',
        (10, 0): 'a3626d44bbc8bc9ff2570e4831b325b1990d73f3253b79357020730b127cac2b',
        (10, 1): 'd329bb356db2905a2cc042de48f0e5a341b9d241458a9d16f41f30f2d4975a11',
        (10, 2): '8db9868a1bc3166ae260f0ad4a324345650163c71e0347e0d025036c3090b0d0',
        (10, 3): 'ae6d4769dfcb5f580032e9254ff2b23af2f2200776c2d5234f1596dc411593d5',
        (10, 4): '2758be71b2184ef000bdf847c73c0345482f9d33b79345e1087028b53a4351ea',
        (11, 0): 'e90a2739b5f7722870a3038d6ea04d6916cdab6cd2fb8bbc636d2e376139d5cf',
        (11, 1): '4d1119e510271115dd0533fb17bfb8e2f2a43ab9ebb02713c74c92381369e59a',
        (11, 2): 'dd20f75bd471da49b12bbcbda788e294915d8ac77c0db33c88ad8f3dd342bc77',
        (11, 3): '9814250b3fb450abfb135d5aaf514a20b1ae93b3829a1c9c2812f8f10982d02c',
        (11, 4): '822d17bb45b6a9ffe7a019c0995b50822147c4898bdc79175d6a0efc9c8f7388',
        (12, 0): '8343603440fd2ca96532b4badf8b2f72ee6ef9f0298116476b74301201f5d62f',
        (12, 1): 'a3c2adae4b36532e2b2a2a068882d2fd0cfedadf93e51f572e4fd0fae8a75f3d',
        (12, 2): 'c38b85b3ef3346a19511077a0c18f4581895760ba12ac9d3264226537a0ee5f8',
        (12, 3): '787bb22c0ea72dbc5f19e9d4ce1a73475f64295a898a6440e05700940413e542',
        (12, 4): '15117f818304ceafdd070bf1d7d702b5d233d997067a34279b5d4636f382df27',
        (13, 0): '9a4bdabb1ca864702368e1600beb710dc276146bce5fcdf8c05065fdfebaea96',
        (13, 1): 'a70d21204eecb407cd3d379098a99820546b661a8359724837c42525ebec3048',
        (13, 2): '4a645ca255129874abd5d00ac3f571bfd09416b0c9da1206e42a87cd042d8cf7',
        (13, 3): 'ed729003a6c51c9ceee79ad539a727e2701d4a18644a7ea3ccb768db7823c0d2',
        (13, 4): '8db28c72021724c7b6341b0136aefd137682ebcd5bacd8220582d8065efd430d',
        (14, 0): '3f498a6982bff580a1571ed4eb86bee820541f76f8838c16e76e5502f1bb113c',
        (14, 1): '65f2d53b1af5b396efe7cb1d2dbfdcad03ed9a625b74cf8fae5e61a14ecab407',
        (14, 2): '87ed6dca0449fd817571af8a827f343fec2403c60faf012373c4f037f7e6df09',
        (14, 3): 'f7b7a57915d9ee7108482f3e7200f8ad74ea7e60e58147dee2bcd79f003406a1',
        (14, 4): '4e61bd1e339b7122e59e17aab75ef439d248ab05e643e041d379d34f46a319f2',
        (15, 0): '564ce2057913d8788a41b231f00a2b736b0f67623458f6ad039702743a3b3f7a',
        (15, 1): '6577e1dccb9ac217b642c494d8f5dbc183a2493bb945d658572c807f48d65e6e',
        (15, 2): '4a0179f001c7da93305c802a66bd7da2fa6cafdf57a147a7238c8929e773060f',
        (15, 3): 'ec40d3d286bd15c8153d9bbb980c55ddf11e611b0af70ab6a23d4d43241b016a',
        (15, 4): 'ba4c250b010b3f6634448c6fccaa3afd9e1133e1e385cd7064f44e11887e72c3',
        (16, 0): '9f07cbd0cbbbbf42e825acefa154bf0f574a39aba81633e21129c7d01ac7fd45',
        (16, 1): 'bae11ed019b6efec9078af2c7c00424c881af7efd10d3ea98f30877b09a7b7d7',
        (16, 2): '470c49fc79b4376b19b43da2378557ca9bd8768f24ed30eb0b23a84c5f201f00',
        (16, 3): '32af8bda846c14b01df8f5d2902e8fff58b07b63270cf9c518ef1e2f7241497d',
        (16, 4): '0705d908547a5622fbbda9c7c4d17c024065e44b0aa60773fb0f80a058f9a2fc',
        (17, 0): '00a89928821ad18f440731d30d92a190507461d7ef3cf9c19dfb16efd766a6d9',
        (17, 1): 'ee00e3f62be30ccb2ec524e1bd45771929017f9fb10736c1282443d1ac8e84e2',
        (17, 2): '8542082b5dba9855315a75c699c2dd8152c27104c3b5e6a1db3b1c77e12f3be0',
        (17, 3): '8db1c01fcf6314b151cb1faa128bce876f7bb4c0194e1f13ff83c9b60f86c49e',
        (17, 4): 'ac2122df003a7cdf4e8fb8a7dd4ffc5d91d795dc3ec9c421be81be5f8f095e23',
    },
    'kDC-t': {
        (0, 0): 'dd1c0bb5e23662ee6f77f509d9428d77b5b2bdb7eb0512b9b11bd97a031f3290',
        (0, 1): 'dd1c0bb5e23662ee6f77f509d9428d77b5b2bdb7eb0512b9b11bd97a031f3290',
        (0, 2): 'dd1c0bb5e23662ee6f77f509d9428d77b5b2bdb7eb0512b9b11bd97a031f3290',
        (0, 3): 'dd1c0bb5e23662ee6f77f509d9428d77b5b2bdb7eb0512b9b11bd97a031f3290',
        (0, 4): 'dd1c0bb5e23662ee6f77f509d9428d77b5b2bdb7eb0512b9b11bd97a031f3290',
        (1, 0): '72e58949a7879bfcf8c79ceecacd9b2abef374d494ba39f6f74f5cc2a896953e',
        (1, 1): '72e58949a7879bfcf8c79ceecacd9b2abef374d494ba39f6f74f5cc2a896953e',
        (1, 2): '72e58949a7879bfcf8c79ceecacd9b2abef374d494ba39f6f74f5cc2a896953e',
        (1, 3): '72e58949a7879bfcf8c79ceecacd9b2abef374d494ba39f6f74f5cc2a896953e',
        (1, 4): '72e58949a7879bfcf8c79ceecacd9b2abef374d494ba39f6f74f5cc2a896953e',
        (2, 0): 'bb31675ddc1c4bce380301e4d14ddb483766b0910cc1bc71255eb6af8b805c0d',
        (2, 1): 'bb31675ddc1c4bce380301e4d14ddb483766b0910cc1bc71255eb6af8b805c0d',
        (2, 2): 'bb31675ddc1c4bce380301e4d14ddb483766b0910cc1bc71255eb6af8b805c0d',
        (2, 3): 'bb31675ddc1c4bce380301e4d14ddb483766b0910cc1bc71255eb6af8b805c0d',
        (2, 4): 'bb31675ddc1c4bce380301e4d14ddb483766b0910cc1bc71255eb6af8b805c0d',
        (3, 0): '81f0d72f97cf056573324116344408e960d4acf06b78a0761aef718c551897e2',
        (3, 1): '81f0d72f97cf056573324116344408e960d4acf06b78a0761aef718c551897e2',
        (3, 2): '81f0d72f97cf056573324116344408e960d4acf06b78a0761aef718c551897e2',
        (3, 3): '81f0d72f97cf056573324116344408e960d4acf06b78a0761aef718c551897e2',
        (3, 4): '81f0d72f97cf056573324116344408e960d4acf06b78a0761aef718c551897e2',
        (4, 0): 'afb1402f9cb45f1c78f90b2317883fd15f18e085c4c811cc09f02673454557a3',
        (4, 1): 'afb1402f9cb45f1c78f90b2317883fd15f18e085c4c811cc09f02673454557a3',
        (4, 2): 'afb1402f9cb45f1c78f90b2317883fd15f18e085c4c811cc09f02673454557a3',
        (4, 3): 'afb1402f9cb45f1c78f90b2317883fd15f18e085c4c811cc09f02673454557a3',
        (4, 4): 'afb1402f9cb45f1c78f90b2317883fd15f18e085c4c811cc09f02673454557a3',
        (5, 0): 'c942a678c7fd656c44fe178e16705c30ee3b72d8a86e81326c54503cd5cdcc76',
        (5, 1): 'c942a678c7fd656c44fe178e16705c30ee3b72d8a86e81326c54503cd5cdcc76',
        (5, 2): 'c942a678c7fd656c44fe178e16705c30ee3b72d8a86e81326c54503cd5cdcc76',
        (5, 3): 'c942a678c7fd656c44fe178e16705c30ee3b72d8a86e81326c54503cd5cdcc76',
        (5, 4): 'c942a678c7fd656c44fe178e16705c30ee3b72d8a86e81326c54503cd5cdcc76',
        (6, 0): '51c712350964846f9ee6903d70f7bc73bb149117878a8fc44949c5e3843dff61',
        (6, 1): '51c712350964846f9ee6903d70f7bc73bb149117878a8fc44949c5e3843dff61',
        (6, 2): '51c712350964846f9ee6903d70f7bc73bb149117878a8fc44949c5e3843dff61',
        (6, 3): '51c712350964846f9ee6903d70f7bc73bb149117878a8fc44949c5e3843dff61',
        (6, 4): '51c712350964846f9ee6903d70f7bc73bb149117878a8fc44949c5e3843dff61',
        (7, 0): '523885e6205c120b2c79d4f67a856494c4f3b57042f7e251082df3d7d46253e3',
        (7, 1): '523885e6205c120b2c79d4f67a856494c4f3b57042f7e251082df3d7d46253e3',
        (7, 2): '523885e6205c120b2c79d4f67a856494c4f3b57042f7e251082df3d7d46253e3',
        (7, 3): '523885e6205c120b2c79d4f67a856494c4f3b57042f7e251082df3d7d46253e3',
        (7, 4): '523885e6205c120b2c79d4f67a856494c4f3b57042f7e251082df3d7d46253e3',
        (8, 0): 'cb0f53adda5aad0d49fc0af9b405e7365986badad5359b98c73ccbfbe0ed8e7f',
        (8, 1): 'cb0f53adda5aad0d49fc0af9b405e7365986badad5359b98c73ccbfbe0ed8e7f',
        (8, 2): 'cb0f53adda5aad0d49fc0af9b405e7365986badad5359b98c73ccbfbe0ed8e7f',
        (8, 3): 'cb0f53adda5aad0d49fc0af9b405e7365986badad5359b98c73ccbfbe0ed8e7f',
        (8, 4): 'cb0f53adda5aad0d49fc0af9b405e7365986badad5359b98c73ccbfbe0ed8e7f',
        (9, 0): 'd3c62a50f9f6665d05f9ff5f9b4ac7d7d55cdf242aa91dbeb19fd313b1e5d717',
        (9, 1): 'd3c62a50f9f6665d05f9ff5f9b4ac7d7d55cdf242aa91dbeb19fd313b1e5d717',
        (9, 2): 'd3c62a50f9f6665d05f9ff5f9b4ac7d7d55cdf242aa91dbeb19fd313b1e5d717',
        (9, 3): 'd3c62a50f9f6665d05f9ff5f9b4ac7d7d55cdf242aa91dbeb19fd313b1e5d717',
        (9, 4): 'd3c62a50f9f6665d05f9ff5f9b4ac7d7d55cdf242aa91dbeb19fd313b1e5d717',
        (10, 0): 'd349d4b9ecf446b7c08d295a9fe6885f08da001509468569e07dab3c59129d4b',
        (10, 1): 'd349d4b9ecf446b7c08d295a9fe6885f08da001509468569e07dab3c59129d4b',
        (10, 2): 'd349d4b9ecf446b7c08d295a9fe6885f08da001509468569e07dab3c59129d4b',
        (10, 3): 'd349d4b9ecf446b7c08d295a9fe6885f08da001509468569e07dab3c59129d4b',
        (10, 4): 'd349d4b9ecf446b7c08d295a9fe6885f08da001509468569e07dab3c59129d4b',
        (11, 0): '30847710bc6bf6e82450fc778a201f200fec007b9e73ead8581c2dc9e502c477',
        (11, 1): '30847710bc6bf6e82450fc778a201f200fec007b9e73ead8581c2dc9e502c477',
        (11, 2): '30847710bc6bf6e82450fc778a201f200fec007b9e73ead8581c2dc9e502c477',
        (11, 3): '30847710bc6bf6e82450fc778a201f200fec007b9e73ead8581c2dc9e502c477',
        (11, 4): '30847710bc6bf6e82450fc778a201f200fec007b9e73ead8581c2dc9e502c477',
        (12, 0): '8e0f433512fd848e3d0f96ccc78eae35ef8717a97902cd6e10cf3ef82482ecad',
        (12, 1): '8e0f433512fd848e3d0f96ccc78eae35ef8717a97902cd6e10cf3ef82482ecad',
        (12, 2): '8e0f433512fd848e3d0f96ccc78eae35ef8717a97902cd6e10cf3ef82482ecad',
        (12, 3): '8e0f433512fd848e3d0f96ccc78eae35ef8717a97902cd6e10cf3ef82482ecad',
        (12, 4): '8e0f433512fd848e3d0f96ccc78eae35ef8717a97902cd6e10cf3ef82482ecad',
        (13, 0): 'ef38be45b2a837df63da014b92d0b4edd39a4fc8b2586b909426340b84d13317',
        (13, 1): 'ef38be45b2a837df63da014b92d0b4edd39a4fc8b2586b909426340b84d13317',
        (13, 2): 'ef38be45b2a837df63da014b92d0b4edd39a4fc8b2586b909426340b84d13317',
        (13, 3): 'ef38be45b2a837df63da014b92d0b4edd39a4fc8b2586b909426340b84d13317',
        (13, 4): 'ef38be45b2a837df63da014b92d0b4edd39a4fc8b2586b909426340b84d13317',
        (14, 0): '767a4b2a3c73c8b33ec3b481b219f5c84bbc93a646da4705a36b2dfc2969d248',
        (14, 1): '767a4b2a3c73c8b33ec3b481b219f5c84bbc93a646da4705a36b2dfc2969d248',
        (14, 2): '767a4b2a3c73c8b33ec3b481b219f5c84bbc93a646da4705a36b2dfc2969d248',
        (14, 3): '767a4b2a3c73c8b33ec3b481b219f5c84bbc93a646da4705a36b2dfc2969d248',
        (14, 4): '767a4b2a3c73c8b33ec3b481b219f5c84bbc93a646da4705a36b2dfc2969d248',
        (15, 0): '22870e7b8b90ff571c3e72ec8993edd35ec819bf658e556e11f507a9a9caaf47',
        (15, 1): '22870e7b8b90ff571c3e72ec8993edd35ec819bf658e556e11f507a9a9caaf47',
        (15, 2): '22870e7b8b90ff571c3e72ec8993edd35ec819bf658e556e11f507a9a9caaf47',
        (15, 3): '22870e7b8b90ff571c3e72ec8993edd35ec819bf658e556e11f507a9a9caaf47',
        (15, 4): '22870e7b8b90ff571c3e72ec8993edd35ec819bf658e556e11f507a9a9caaf47',
        (16, 0): '95ca82d6b90730ec768f5703a95982cf42433f31b2d4f2b941a229f870686bc7',
        (16, 1): '95ca82d6b90730ec768f5703a95982cf42433f31b2d4f2b941a229f870686bc7',
        (16, 2): '95ca82d6b90730ec768f5703a95982cf42433f31b2d4f2b941a229f870686bc7',
        (16, 3): '95ca82d6b90730ec768f5703a95982cf42433f31b2d4f2b941a229f870686bc7',
        (16, 4): '95ca82d6b90730ec768f5703a95982cf42433f31b2d4f2b941a229f870686bc7',
        (17, 0): '1d4ded62f17f81240e771e1913ccd22ebbb03af4ac2d170b089e3eb0ae40cdbd',
        (17, 1): '1d4ded62f17f81240e771e1913ccd22ebbb03af4ac2d170b089e3eb0ae40cdbd',
        (17, 2): '1d4ded62f17f81240e771e1913ccd22ebbb03af4ac2d170b089e3eb0ae40cdbd',
        (17, 3): '1d4ded62f17f81240e771e1913ccd22ebbb03af4ac2d170b089e3eb0ae40cdbd',
        (17, 4): '1d4ded62f17f81240e771e1913ccd22ebbb03af4ac2d170b089e3eb0ae40cdbd',
    },
    'no-rr6': {
        (0, 0): '0881e048602c8f327e3f5c63155efc5929583877db0a6d25f5018756ab7c7eeb',
        (0, 1): '63cccac0feed2bb1ee45c618feb9c9e2669dd9e99859e6305460230528c3058d',
        (0, 2): '44b370565f18f2e35e3f05a89caf8c873a3e42f6457516c0642e5c5ea3b9e108',
        (0, 3): '44b370565f18f2e35e3f05a89caf8c873a3e42f6457516c0642e5c5ea3b9e108',
        (0, 4): '7cf1b713e3f08bfb974988f85bb424c4ec0e75f9019cb61b2c876637ea08636f',
        (1, 0): 'b790c1cedb3eb17b723cff88c77f297659596b4ca1c5fd7ce1dcd5df68e6aca7',
        (1, 1): 'cb3f9e9e7cbcf150ae8813e170e7a92a9906177733f3921a06d4058a7dfe856d',
        (1, 2): 'd04faa2d0069cc1a6189a61911b5da74946b0522808899c356c8e82b4195ab2f',
        (1, 3): 'd04faa2d0069cc1a6189a61911b5da74946b0522808899c356c8e82b4195ab2f',
        (1, 4): 'b8dfbec69979bb1f87833383d22eb4a40ffd61c4759f8d3a291c7ffcb9991e09',
        (2, 0): '3792c777037cd6ee2012f1ccd0f71ca32658684c5d549a52084ad83ed151b3f8',
        (2, 1): 'a6430209b596b1be3eacbf7dcc4b0311326d8004e5576281b8b379568941103b',
        (2, 2): 'bcc8e7fcf836a5b7d2fb7a6f67a40fa8682447164494747773b45e90c814b097',
        (2, 3): 'bf69ee25f5a6ef42093c95351421b738c6dfc872715dd5866f54bc5e280204a4',
        (2, 4): 'bf69ee25f5a6ef42093c95351421b738c6dfc872715dd5866f54bc5e280204a4',
        (3, 0): '98c20a99f2d0c51397467aaeea3b6c4c68ad5e8a54e12bd1d289bdb1d6a39703',
        (3, 1): '8a9d94463847885982b618f1219bf03ce71be6a354cbee0e061c4b198fe32a97',
        (3, 2): '61bc9f4afac033913df44ecc4bb356075f500d4f1c0e705b62e1ce8e4138210e',
        (3, 3): '8cfaa66ea656cb5c292066533e334645a32857c8946344285ac75baaa0249382',
        (3, 4): 'bb1ca165788f1c4967da89f3629f30d0b10dec8eb224925f125b5841e3e53f0b',
        (4, 0): '502ae55f0888ffaedbee840d9b0d5ae69e5b02d7b3aed573ec58a1bff519bc2e',
        (4, 1): 'ec4c2a87187aa30adc1d45b5b92ae0ff3eada425dddb932abf89374d0ec6bc0c',
        (4, 2): '9e3148701a9b54af502469f86f8d0264d9ce6454fd73f32d7ca9d8a8d5b0df6e',
        (4, 3): '9e3148701a9b54af502469f86f8d0264d9ce6454fd73f32d7ca9d8a8d5b0df6e',
        (4, 4): '3e64b4b3902943957e5b575c416c36b62f2c908c85bf25207ea96b16a79d4352',
        (5, 0): 'e04eb2ef0fd2b6c9bec899dec55e21ffd7ec9b7a0ae16395fe2bb9a20fef1182',
        (5, 1): '160b163ce357f5c664f6bb91dd488288889f1ee66ffb46b85870aacc791ef5be',
        (5, 2): '160b163ce357f5c664f6bb91dd488288889f1ee66ffb46b85870aacc791ef5be',
        (5, 3): '160b163ce357f5c664f6bb91dd488288889f1ee66ffb46b85870aacc791ef5be',
        (5, 4): '1f6e478654ebf9fc417470b0635cdf158ced3810988bf9b04283c876d233dd9f',
        (6, 0): 'b93b0bcc25720ebb2f5246ba601e9d7ca209d8b671dc0c90ea915463127e446c',
        (6, 1): '638ccbb0299ca201974f2ff2a577bf46879f3b4851199e5af21f1b2d81b28608',
        (6, 2): '757e4f1293c4a90f72f985ed602c10faeaf4af4bb2c9d72b9d9dd50270214882',
        (6, 3): 'ad5bdf7a717058d4d535c67106d2fcb53270dfe6ca826b05e6d4a98c84d4e450',
        (6, 4): '5bd2b50691fae8c9e18167ebfd3da9f57efe641da97f74b76b0d9a90a9654ab5',
        (7, 0): 'ec7cf46a0c881ac03d66d1f120aca11c2e67b6ea10e2b1beb89be46a60dac604',
        (7, 1): 'f0594e3bbcdae08a3d37ffd482cd2ce6db51217abc0d0cfb7efe6688e69e46a7',
        (7, 2): '7b0ba96422b38a9f3717024bf9c8beec23aaa106423ff8b87c8f65658bdd87bd',
        (7, 3): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (7, 4): 'dccbca5a6d8b2e7c7da6d2c9c3d7066b57c5d64ebb265b2eb215a807afd298ad',
        (8, 0): '417f8c21c87d8f765e51a16c6d90039c6f39ca30ed23ef9581a529a6e703d284',
        (8, 1): '78b085792afd47a20fde55dfca77d86ebb057ac71fa625883574a32f97891ef0',
        (8, 2): 'fbcda45b707c1df67d590515f7a4b769c12347d822786eb500cff62b412022c1',
        (8, 3): 'fbcda45b707c1df67d590515f7a4b769c12347d822786eb500cff62b412022c1',
        (8, 4): '1807bb748aaa43a530b96be1671cea918ac65f1d7f5ea0bafc3c6bcfef581206',
        (9, 0): '37fb92fd7904c14351147d49dbce176e8fc8b2174693dba03fd9e4b6bf62c88d',
        (9, 1): '046c72a1a26593a04637b5933e53465b58d34fdaabb76316a145e70f43f98df3',
        (9, 2): '046c72a1a26593a04637b5933e53465b58d34fdaabb76316a145e70f43f98df3',
        (9, 3): 'c3c526e2cf954902db007ea07c7ad477e0f74bc4c69ae81291e116af60334133',
        (9, 4): 'c3c526e2cf954902db007ea07c7ad477e0f74bc4c69ae81291e116af60334133',
        (10, 0): 'ad914557b4f812e1395f7e5a931a91d0129cb85c0373c99c24e1bdc77f45f265',
        (10, 1): 'b0afd9f752a7b2957f82d19630382a80d3b09d1858b584fe7af02e3e6fa55a28',
        (10, 2): '78d7448d49dae47a976048ca4cd3d883afae70b26d07c371572d63fcf4daf6c1',
        (10, 3): '78d7448d49dae47a976048ca4cd3d883afae70b26d07c371572d63fcf4daf6c1',
        (10, 4): 'f51b3f633ba56495800029048b41a7618d6cb48ebfab0090cefbde0102da8bde',
        (11, 0): '332480be753aedee2ffdc00847bbe4896a2389dd50f3d84cdecff64337328d97',
        (11, 1): 'ca441e97958a7b9ca2e96aa4d7b0166305490da07e4c3dda4b0f28bb10c2aa6c',
        (11, 2): '923c5fe74cd3f3c601966de2b8749747b8b8a3d877916b42086df8e8a0dee559',
        (11, 3): '6be4c6ef7addd2614706be1ec70909158eb32eccacc0f138053391193cdc81a0',
        (11, 4): 'cc281c1635c6d1233daee9b92e5e6aba7b4c820039f6543653ffa4eab1a66f79',
        (12, 0): '48176f61f9d22186468e52df81f85b17c90771af9627483ae9fc5133136e89e1',
        (12, 1): 'ae9ba20ae682b725833ff09805c774e809e63436d07545063468e30b937cb4a8',
        (12, 2): 'a48a55a76302e4517e706aacb0c121aac547ff3978ef395a0e80db00214df9fd',
        (12, 3): 'd0cf776c358a7f34685a29d75a34383858d697cd9508badfb6c52af86a90f07b',
        (12, 4): 'd0cf776c358a7f34685a29d75a34383858d697cd9508badfb6c52af86a90f07b',
        (13, 0): 'a94fd34fcd5f5c2fc41c72387335d15fc1629a48cbdf0e181006e0b1c86d2f07',
        (13, 1): '27695ab16f82084b3f698fe184a70cf99ee5b0531ff9506b1423ef46da46f8a8',
        (13, 2): '48681f2ea140aec8f62907398a052224452ca3743a96fc4099f03980ce209bae',
        (13, 3): '443ae029594e978b2a2e8278af072f2ebbf9bff0dc1adbe8a0ec80391f7c1bc7',
        (13, 4): '4d2cdd1ccae8a0b7e653249da6b6b47e86068713aab184dda7e3002cc15244df',
        (14, 0): '50f989216af61f45aa7d91133ac5ebfaad90baacd1c22aaf7af8dbc9e6b01ddc',
        (14, 1): 'a8479e11e64003077988e9faf2648d0b42e6c7bda1cc33fddbde03d97ceb1a24',
        (14, 2): 'a8479e11e64003077988e9faf2648d0b42e6c7bda1cc33fddbde03d97ceb1a24',
        (14, 3): 'd309f41da2f0c0b2a0dfaf5da1d2c5539442da12e5ce6bc60962a80495b6e02d',
        (14, 4): 'd309f41da2f0c0b2a0dfaf5da1d2c5539442da12e5ce6bc60962a80495b6e02d',
        (15, 0): 'e4d2f606674bc2889b58a66b4f1ceb809b1b0a68619f43779d9cb379699532fb',
        (15, 1): '14c30fdb2b446274a4b22e72ae5f716c6ea77e1c810017a2eecfdc66170e65b4',
        (15, 2): '74124f696e732d5fede1d0dc50c2e2da74bb32638842fd617069dcdf5b88293d',
        (15, 3): 'd6727b56721d0dcfd163a2fb9ed2ec013dd20d1ea57d9751b0d2d7eac73880f1',
        (15, 4): '0ca15407ff9da085c1cfe582b2a5f4ef0129fcc1464159300f0d9a5963155efb',
        (16, 0): '6a9d7b059f0133022fce2a96685ed778b42351a752b1d5ad6deda1a2508dc3ff',
        (16, 1): 'f2dff784781cd0fc0351bfe258ceb7762d926aebe5b2c840390ab6d6625329cf',
        (16, 2): '226609d5161f1dea14ec5ecd46dccedb5c9aa718c91f50116ce1e83d7a2647ed',
        (16, 3): 'deaeeeaac1f83e3746e4d639631bc05df88a276dfd909948ef8a46e85a20c793',
        (16, 4): 'e905a88f896a3f5dd771ba1d31da69eb7aded6f522105c575419899d038a9cb9',
        (17, 0): '9f128197dddd3ec7e6cef635e47d35b83560009c8b11bef63d4308255b9ed890',
        (17, 1): '5cc787e5e35d722038139be95203901b7a579b5bd41a90bb0df417e51e0feb03',
        (17, 2): 'b81598b0b1a178f9059121c0d7f686934836de6aad4fee5bb4706f39164f3de1',
        (17, 3): '986faa768c5033d2c221ab8b590240090b065cd91663cd90a6c810e21923ad75',
        (17, 4): '3901077e70f8b63187f4a83f5f88df93e74b43790439cb9300a8ff4eed9b325b',
    },
}

GOLDEN_POWERLAW = {
    'degen': {
        (0, 2): '68ae1cb1973cca46374edf9316e919a7b71a181458fe33c7f0af438233560367',
        (0, 3): '6eb9f5b3f1276b6a6aaddb22e2e1249f99ce195786700f468a5f901693ced59f',
        (1, 2): 'd7fb65fc77156f91a90a0832bbe0bfb6f14e2f45056adecb554fb81f462a1864',
        (1, 3): '53e1482e092d9a5221aba12ee779996a8edeb7eb9608975ffc63a764e2f2f2c3',
    },
    'kDC': {
        (0, 2): '68ae1cb1973cca46374edf9316e919a7b71a181458fe33c7f0af438233560367',
        (0, 3): '6eb9f5b3f1276b6a6aaddb22e2e1249f99ce195786700f468a5f901693ced59f',
        (1, 2): 'd7fb65fc77156f91a90a0832bbe0bfb6f14e2f45056adecb554fb81f462a1864',
        (1, 3): '53e1482e092d9a5221aba12ee779996a8edeb7eb9608975ffc63a764e2f2f2c3',
    },
    'kDC-t': {
        (0, 2): '2bcc9fedae72059ef965c1056468036f4eaed40f6903ab4e97dc7b690d655d73',
        (0, 3): '2bcc9fedae72059ef965c1056468036f4eaed40f6903ab4e97dc7b690d655d73',
        (1, 2): 'a59d5641ecbc8ff7e52c7c08bf0c33e9362684091151cb970baa0eb837b4e228',
        (1, 3): 'a59d5641ecbc8ff7e52c7c08bf0c33e9362684091151cb970baa0eb837b4e228',
    },
    'no-rr6': {
        (0, 2): 'e780cff72327260298121c1b697dbdb1bec9f3a126333f1802ef972c96b2003c',
        (0, 3): '7408da598d5faecceee6967df845f1ed0fe81b9e2d33c067fb891ab88fa9c2b9',
        (1, 2): 'd8fed92f238503d7d8c8e407315dea82dab584d46ad01868c3ffd4259d36ab9b',
        (1, 3): 'b68c627029dad99a70a5e8ac339cad70a384b4f20673f98ebbaa01f0dd6ae675',
    },
}


@lru_cache(maxsize=None)
def _powerlaw(index):
    n, m, p, seed = POWERLAW_GRAPHS[index]
    return powerlaw_cluster_graph(n, m, p, seed=seed)


def artifact_digest(prepared):
    """SHA-256 over the search-facing fields of ``prepared``."""
    fields = (
        prepared.heuristic,
        tuple(prepared.working_adj.items()),
        prepared.ordering,
        prepared.working_num_edges,
        prepared.preprocess_removed_vertices,
        prepared.preprocess_removed_edges,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def small_digests(config_name):
    config = CONFIGS[config_name]
    return {
        (index, k): artifact_digest(
            prepare_instance(gnp_random_graph(*spec), k, config, compute_digest=False)
        )
        for index, spec in enumerate(SMALL_GRAPHS)
        for k in range(5)
    }


def powerlaw_digests(config_name):
    config = CONFIGS[config_name]
    return {
        (index, k): artifact_digest(
            prepare_instance(_powerlaw(index), k, config, compute_digest=False)
        )
        for index in range(len(POWERLAW_GRAPHS))
        for k in (2, 3)
    }


def _assert_matches(golden, actual):
    mismatches = sorted(case for case, digest in golden.items() if actual[case] != digest)
    assert not mismatches, f"prepare output changed (graph index, k): {mismatches}"


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_small_corpus_artifacts_unchanged(config_name):
    _assert_matches(GOLDEN_SMALL[config_name], small_digests(config_name))


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_powerlaw_artifacts_unchanged(config_name):
    _assert_matches(GOLDEN_POWERLAW[config_name], powerlaw_digests(config_name))
