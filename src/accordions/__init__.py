"""Accordion graphs and quartic circulant graphs.

Constructors for the families, arithmetic isomorphism deciders, explicit
witness maps from the constructive characterizations, a brute-force
isomorphism oracle, and a CLI that cross-validates everything.
"""

from .deciders import (
    AccAccVerdict,
    CiAccVerdict,
    accordion_circulant_clause,
    accordion_is_bipartite,
    accordions_isomorphic,
    circulant_is_bipartite,
    circulant_is_connected,
    circulant_iso_accordion,
    circulant_iso_torus,
    find_accordion_param,
    torus_parameters,
    unique_partner,
)
from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    InvariantViolationError,
    NotApplicableError,
)
from .graphs import (
    DIAGONAL_SPOKE,
    INNER_CYCLE,
    OUTER_CYCLE,
    VERTICAL_SPOKE,
    Graph,
    accordion,
    accordion_edge_classes,
    cartesian_product,
    circulant,
    circulant_graph,
    cycle_graph,
    cylinder_cut_edges,
    normalize_length,
    path_graph,
)
from .modarith import steps_to_gcd
from .oracle import are_isomorphic, canonical_key
from .serialize import (
    graph_from_json,
    graph_to_dot,
    graph_to_edgelist,
    graph_to_json,
    witness_from_json,
    witness_to_json,
)
from .witnesses import (
    CylinderExtension,
    VertexMap,
    accordion_from_cylinder,
    accordion_witness,
    circulant_accordion_witness,
    cycle_swap_automorphism,
    torus_witness,
    verify_witness,
)

__version__ = "0.1.0"
