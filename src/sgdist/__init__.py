"""Signed graph distances, compatibility, products and distance spectra.

The building block is :class:`SignedGraph`, a simple undirected graph with
+1/-1 edge signs.  On top of it the package computes signed shortest-path
distances and the D^max / D^min distance matrices, decides distance
compatibility and extracts negative-even-cycle witnesses, forms the
cartesian, lexicographic and tensor products with their signature rules,
assembles product distance matrices in Kronecker form, and produces exact
characteristic polynomials plus numeric distance spectra, including the
census of all 2^15 signings of the Petersen graph.
"""

from .core import (
    EdgeListError,
    SignedGraph,
    StructuralSummary,
    balance_potential,
    cycle_sign,
    has_odd_cycle,
    is_balanced,
    is_connected,
    is_geodetic,
    is_net_regular,
    is_two_connected,
    net_degree,
    net_degrees,
    parse_edge_list,
    serialize_edge_list,
    structural_predicates,
    switch,
)
from .distance import (
    IncompatibilityWitness,
    PairDistanceSummary,
    SignedDistances,
    associated_complete,
    brute_force_summary,
    distance_matrix,
    incompatible_pairs,
    is_compatible,
    least_incompatible_witness,
    signed_bfs,
    signed_distances,
)
from .products import (
    ConjectureCandidate,
    OddEvenDistance,
    cartesian,
    check_product_compatibility_theorems,
    conjecture_search,
    index_pair,
    lexicographic,
    odd_even_distance,
    pair_index,
    random_signed_gnp,
    tensor,
    tensor_distance,
    tensor_is_connected,
    uniform_sign,
)
from .spectra import (
    IntPolynomial,
    Spectrum,
    adjacency_matrix,
    cartesian_distance_formula,
    char_poly,
    char_poly_batch,
    cluster_eigenvalues,
    compatible_distance_matrix,
    eig_symmetric,
    kron,
    lex_k2_spectrum,
    lexicographic_distance_formula,
)
from .catalog import (
    PETERSEN_CLASS_POLYNOMIALS,
    PETERSEN_EDGES,
    PetersenClass,
    PetersenClassTable,
    complete_graph,
    cycle_graph,
    enumerate_petersen_signings,
    generate,
    path_graph,
    petersen_graph,
    petersen_signing,
)

__version__ = "0.1.0"
