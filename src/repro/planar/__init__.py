"""Centralized planar-graph toolkit: the local-computation substrate.

CONGEST nodes have unbounded local computation (the paper caps it at
poly(n) in footnote 3); this package provides everything a node - or a
merge coordinator - computes locally: graphs with canonical edge IDs,
rotation systems with face/genus machinery, a from-scratch left-right
planarity kernel (the [HT74] stand-in), biconnected decompositions
(Observation 3.2), the workload generators, and the embedding verifier.
"""

from .biconnected import (
    BiconnectedComponent,
    BiconnectedDecomposition,
    biconnected_components,
)
from .dual import DualGraph, dual_graph
from .graph import EdgeId, Graph, GraphError, NodeId, edge_id, precedes
from .kuratowski import classify_kuratowski, kuratowski_subgraph
from .lr_planarity import (
    NonPlanarGraphError,
    is_planar,
    lr_is_planar,
    lr_planarity,
    planar_embedding,
)
from .scoped import ScopedPlanarityOracle
from .rotation import (
    RotationError,
    RotationSystem,
    contracted_rotation,
    euler_genus,
    rotation_from_positions,
    trace_faces,
)
from .verify import (
    EmbeddingViolation,
    check_embedding_with_boundary,
    verify_planar_embedding,
    verify_rotation_system,
)

__all__ = [
    "Graph",
    "GraphError",
    "NodeId",
    "EdgeId",
    "edge_id",
    "precedes",
    "RotationSystem",
    "RotationError",
    "trace_faces",
    "euler_genus",
    "contracted_rotation",
    "rotation_from_positions",
    "lr_planarity",
    "lr_is_planar",
    "planar_embedding",
    "is_planar",
    "NonPlanarGraphError",
    "ScopedPlanarityOracle",
    "BiconnectedComponent",
    "BiconnectedDecomposition",
    "biconnected_components",
    "kuratowski_subgraph",
    "classify_kuratowski",
    "DualGraph",
    "dual_graph",
    "EmbeddingViolation",
    "verify_planar_embedding",
    "verify_rotation_system",
    "check_embedding_with_boundary",
]
