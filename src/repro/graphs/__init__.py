"""Graph substrate: data structure, decompositions, generators, and I/O.

This subpackage contains everything the kDC solver and its baselines need
from a graph library: the :class:`Graph` adjacency-set structure, degeneracy
ordering / k-core / k-truss decompositions, greedy coloring, connected
components, descriptive statistics, file I/O, and the synthetic generators
that stand in for the paper's benchmark collections.
"""

from .coloring import color_classes, greedy_coloring, is_proper_coloring
from .components import (
    bfs_distances,
    connected_components,
    diameter_lower_bound,
    is_connected,
    largest_component,
)
from .degeneracy import DegeneracyResult, core_numbers, degeneracy, degeneracy_ordering
from .generators import (
    barabasi_albert_graph,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    gnm_random_graph,
    gnp_random_graph,
    mesh_graph,
    path_graph,
    planted_defective_clique_graph,
    powerlaw_cluster_graph,
    relaxed_caveman_graph,
    social_network_graph,
    split_graph,
    star_graph,
    turan_graph,
)
from .graph import Edge, Graph, Vertex
from .io import (
    load_graph,
    read_dimacs,
    read_edge_list,
    read_metis,
    save_graph,
    write_dimacs,
    write_edge_list,
    write_metis,
)
from .kcore import core_reduce_in_place, k_core, k_core_vertices
from .paper_figures import (
    figure1_graph,
    figure2_graph,
    figure4_graph,
    figure5_graph,
    figure5_partition,
    figure6_graph,
)
from .stats import GraphStats, clustering_coefficient, degree_histogram, graph_stats
from .truss import k_truss, k_truss_edges, truss_reduce_in_place

__all__ = [
    "Graph",
    "Vertex",
    "Edge",
    "DegeneracyResult",
    "degeneracy_ordering",
    "core_numbers",
    "degeneracy",
    "k_core",
    "k_core_vertices",
    "core_reduce_in_place",
    "k_truss",
    "k_truss_edges",
    "truss_reduce_in_place",
    "greedy_coloring",
    "color_classes",
    "is_proper_coloring",
    "connected_components",
    "largest_component",
    "is_connected",
    "bfs_distances",
    "diameter_lower_bound",
    "GraphStats",
    "graph_stats",
    "clustering_coefficient",
    "degree_histogram",
    "gnp_random_graph",
    "gnm_random_graph",
    "barabasi_albert_graph",
    "powerlaw_cluster_graph",
    "relaxed_caveman_graph",
    "planted_defective_clique_graph",
    "social_network_graph",
    "mesh_graph",
    "cycle_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "complete_multipartite_graph",
    "turan_graph",
    "split_graph",
    "read_edge_list",
    "write_edge_list",
    "read_dimacs",
    "write_dimacs",
    "read_metis",
    "write_metis",
    "load_graph",
    "save_graph",
    "figure1_graph",
    "figure2_graph",
    "figure4_graph",
    "figure5_graph",
    "figure5_partition",
    "figure6_graph",
]
