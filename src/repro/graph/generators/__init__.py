"""Synthetic graph generators mirroring the paper's Table II datasets."""

from .delaunay import delaunay_graph, delaunay_n
from .example import FIGURE1_EDGES, figure1_graph
from .kronecker import GRAPH500_PROBS, kron_g500, kronecker_graph, rmat_edges
from .mesh import stencil_mesh
from .rgg import random_geometric_graph, rgg_n_2
from .road import road_network
from .router import router_topology
from .scalefree import barabasi_albert, chung_lu, powerlaw_degree_sequence
from .smallworld import smallworld, watts_strogatz
from .social import community_graph, geosocial_graph
from .suite import DATASET_CLASSES, DATASETS, DatasetSpec, make_dataset, suite
from .webgraph import copying_web_graph

__all__ = [
    "FIGURE1_EDGES",
    "figure1_graph",
    "delaunay_graph",
    "delaunay_n",
    "GRAPH500_PROBS",
    "kron_g500",
    "kronecker_graph",
    "rmat_edges",
    "stencil_mesh",
    "random_geometric_graph",
    "rgg_n_2",
    "road_network",
    "router_topology",
    "barabasi_albert",
    "chung_lu",
    "powerlaw_degree_sequence",
    "smallworld",
    "watts_strogatz",
    "community_graph",
    "geosocial_graph",
    "copying_web_graph",
    "DATASET_CLASSES",
    "DATASETS",
    "DatasetSpec",
    "make_dataset",
    "suite",
]
