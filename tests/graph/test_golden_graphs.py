"""Pinned digests of the dataset builds and degree-1 folds.

``CSRGraph.digest`` hashes ``indptr`` and ``adj`` byte for byte, so a
pinned digest fixes the vertex numbering, the edge set and the order
of every adjacency list.  ``FoldResult.digest`` covers the original
graph, the core, the peel parents, weights and credit.  The digests
were recorded once and are never edited: a change to how edge lists
are deduplicated, sorted or sliced into CSR fails here.

Covered: the four benchmark inputs at ``scale_factor=64`` plus the
service graph (caidaRouterLevel at 256), every Table II dataset at
1024, and the folds of one scale-free and one road graph at 64.
"""

import pytest

from repro.bc.preprocess import fold_degree_one
from repro.graph.generators import DATASETS, make_dataset

GRAPH_DIGESTS = {
    ("kron_g500-logn20", 64):
        "d145f6c5b68a5846ece90a969556bb0a5f149719bb820df551d8f7468f4b5ec2",
    ("caidaRouterLevel", 64):
        "6d7e52c8b651e8d0be27422afd53ec4cf2d11c151234c3fc5fac19bfe2933c8d",
    ("luxembourg.osm", 64):
        "9aa22b23fad5a0c190b5231b23b3eaa8a2347f520a8d209753050a04fd926a1a",
    ("delaunay_n20", 64):
        "f5c2888aad4476c942f4834dceca42d617f7809e8e35d9249ac80a376c8e4951",
    ("caidaRouterLevel", 256):
        "86d90fc9daa52d3d2ec5775187e11733b1c82539e0b35909d7cf740b75ac1e4e",
    ("af_shell9", 1024):
        "4ca30a8dd0b5b51c0e1eefdd8422cdb08c66ab60cc89dcf08ffc9fe4365aa6ba",
    ("caidaRouterLevel", 1024):
        "6cb68451e0562170002c842b0428054d3bfecc222d1abc768ee3eff7da231b02",
    ("cnr-2000", 1024):
        "634ec26bcb34afe5a69a2f748d57c05e3adba00d08694796a1ef3f6166e83a6b",
    ("com-amazon", 1024):
        "fea2cf28ec9d5481fadb94fd90ac18a2ecb0fa76c570080a40820d8b89a49a67",
    ("delaunay_n20", 1024):
        "117f4ab61b6e18ae5b8ad43dce455a7da22065c1e6d510a323fcb159b56a8615",
    ("kron_g500-logn20", 1024):
        "124fbe1969892973e678959c001f180315be8e92d47c5300fb2f5d5e07e2e2cc",
    ("loc-gowalla", 1024):
        "5264da0033d82d83233720c058368f3d4b463e83ecd3380591814b8473609b8b",
    ("luxembourg.osm", 1024):
        "4f96efceeff87cc75acce612587ae3d8b19f992ea283b96d69a16a360b9c93ad",
    ("rgg_n_2_20", 1024):
        "5a5fdf4e694d052a8ae1a23c58f23e74cc97867728899c74fd394b741d1956b0",
    ("smallworld", 1024):
        "4dfc749304c18d9bb090459ded162ac2dddcfd3e2a207f7696250449e7718809",
}

FOLD_DIGESTS = {
    "kron_g500-logn20":
        "00c325a099d00d3a0fca1e836f2a6cab5234f6d4bb28586f736c15abc76bd6d2",
    "luxembourg.osm":
        "04d442fd200a62ba994d7426a3a23004ec1135b3f9cd8a93cd7b6b85a941e4d9",
}


def test_every_table2_dataset_is_pinned():
    assert {name for name, sf in GRAPH_DIGESTS if sf == 1024} == set(DATASETS)


@pytest.mark.parametrize("name,scale_factor", sorted(GRAPH_DIGESTS),
                         ids=[f"{n}@{sf}" for n, sf in sorted(GRAPH_DIGESTS)])
def test_dataset_digest(name, scale_factor):
    g = make_dataset(name, scale_factor=scale_factor, seed=0)
    assert g.digest() == GRAPH_DIGESTS[name, scale_factor]


@pytest.mark.parametrize("name", sorted(FOLD_DIGESTS))
def test_fold_digest(name):
    g = make_dataset(name, scale_factor=64, seed=0)
    assert fold_degree_one(g).digest() == FOLD_DIGESTS[name]
