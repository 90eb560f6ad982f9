"""Graph substrate: CSR container, builders, I/O, traversal, statistics."""

from .build import (
    dedupe_edges,
    from_edges,
    from_networkx,
    induced_subgraph,
    largest_connected_component,
    relabel,
    symmetrize_edges,
    to_networkx,
)
from .csr import CSRGraph
from .io import (
    load_graph,
    read_dimacs_metis,
    read_matrix_market,
    read_snap_edgelist,
    write_dimacs_metis,
    write_matrix_market,
    write_snap_edgelist,
)
from .stats import (
    GraphStats,
    connected_component_sizes,
    degree_histogram,
    estimate_diameter,
    exact_diameter,
    graph_stats,
)
from .traversal import (
    BFSResult,
    bfs,
    bfs_distances,
    eccentricity,
    frontier_sizes,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_networkx",
    "to_networkx",
    "symmetrize_edges",
    "dedupe_edges",
    "largest_connected_component",
    "induced_subgraph",
    "relabel",
    "load_graph",
    "read_snap_edgelist",
    "write_snap_edgelist",
    "read_dimacs_metis",
    "write_dimacs_metis",
    "read_matrix_market",
    "write_matrix_market",
    "GraphStats",
    "graph_stats",
    "degree_histogram",
    "connected_component_sizes",
    "exact_diameter",
    "estimate_diameter",
    "BFSResult",
    "bfs",
    "bfs_distances",
    "frontier_sizes",
    "eccentricity",
]
