"""Boolean combinations of graphs, verified at desk scale."""

from .boolfn import AnfForm, BooleanFunction, anf, enumerate_functions, from_anf
from .booldim import DimWitness, boolean_dimension, exists_representation, restricted_dimension
from .classes import ClassTag, enumerate_members, is_member, random_member
from .decompose import (
    Decomposition,
    class_L_decomposition,
    partition_complementation_sequence,
    twin_decomposition,
    vizing_matchings,
    xor_normal_form,
)
from .extremal import (
    ClassExpr,
    HnkReport,
    TheoremCheck,
    hnk,
    hnk_as_xor,
    hnk_report,
    verify_all,
    verify_chi_binding,
    verify_theorem,
)
from .gformats import emit_graph, parse_graph
from .graphs import (
    Graph,
    Partition,
    apply_boolean,
    combine,
    complement,
    induced_subgraph,
    partition_complement,
)
from .invariants import (
    ParamReport,
    biclique_number,
    chain_number,
    chromatic_number,
    clique_number,
    common_homogeneous_set,
    compute_params,
    degeneracy,
    find_odd_hole_or_antihole,
    independence_number,
    is_perfect,
    max_degree,
    neighborhood_complexity,
    strong_chain_number,
    twin_classes,
    twin_number,
    vc_dimension,
)
from .labeling import ComposedScheme, Label, compose, decode

__version__ = "0.1.0"
