"""Eccentric graphs, eccentricity matrices, and graph-product structure."""

from .eccentric import (
    EccentricityProfile,
    eccentric_girth,
    eccentric_graph,
    eccentricity_determinant,
    eccentricity_matrix,
    eccentricity_profile,
)
from .errors import (
    DisconnectedGraphError,
    EcclabError,
    InputError,
    NoStemError,
    PreconditionError,
    SizeCapError,
    UnsupportedSizeError,
)
from .families import FamilySpec, build_family, expected_eccentric
from .graphs import (
    DistanceData,
    Graph,
    all_pairs_distances,
    apply_vertex_map,
    bfs_distances,
    build_graph,
    connected_components,
    eccentric_sets,
    girth,
    is_connected,
)
from .intmatrix import (
    IntMatrix,
    determinant,
    determinant_oracle,
    kronecker_matrix,
)
from .invertibility import (
    DeterminantProbe,
    InvertibilityCheck,
    check_invertibility_classification,
    predicted_invertible,
    star_product_determinant_probe,
)
from .products import (
    CycleProductReport,
    ProductIndexMap,
    cartesian_product,
    check_additivity,
    check_componentwise_eccentric,
    check_kronecker_correspondence,
    cn_cn_isomorphism,
    cycle_product_structure,
    grid_eccentric_closed_form,
    kronecker_product_graph,
    predicted_tree_product_girth,
)
from .serialize import GraphDocument, graph_to_dot, load_graph, save_graph
from .suites import CheckReport, SUITE_NAMES, run_suite
from .trees import (
    DiametricalPath,
    InducedSubtree,
    Tree,
    TreeDecomposition,
    check_monotone_exclusion,
    check_structure_theorem,
    decompose,
    diametrical_paths,
    enumerate_trees,
    induced_subtree,
    predicted_tree_girth,
    prufer_decode,
    random_tree,
    stem_at,
)

__version__ = "0.1.0"
