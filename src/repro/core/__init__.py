"""The paper's primary contribution: distributed planar embedding.

Public entry points:

* :func:`distributed_planar_embedding` / :class:`DistributedPlanarEmbedding`
  — Theorem 1.1, the O(D * min(log n, D))-round algorithm;
* :func:`trivial_baseline_embedding` — the folklore O(n) baseline
  (footnote 2) it is benchmarked against;
* the building blocks (parts, interfaces, merges, symmetry breaking)
  for experiments that probe individual lemmas.
"""

from .algorithm import (
    DegradedResult,
    DistributedPlanarEmbedding,
    EmbeddingResult,
    distributed_planar_embedding,
    distributed_planarity_test,
    self_healing_embedding,
)
from .assembly import AssemblyError, assemble, expand_copies
from .baseline import trivial_baseline_embedding
from .interface import InterfaceSkeleton, SkeletonError, interface_skeleton
from .merges import (
    MergeResult,
    charge_merge_stage,
    charge_path_coordinated_merge,
    merge_parts,
)
from .parts import (
    NonPlanarNetworkError,
    PartEmbedding,
    PartitionState,
    embed_with_boundary,
    fresh_part,
)
from .realize import RealizationError, cyclic_equal, realize_boundary_order
from .recursion import CallRecord, RecursionContext, embed_subtree
from .symmetry import StarPathDecomposition, symmetry_break
from .unrestricted import UnrestrictedMergeStats, unrestricted_path_merge

__all__ = [
    "distributed_planar_embedding",
    "distributed_planarity_test",
    "DistributedPlanarEmbedding",
    "EmbeddingResult",
    "DegradedResult",
    "self_healing_embedding",
    "trivial_baseline_embedding",
    "NonPlanarNetworkError",
    "PartEmbedding",
    "PartitionState",
    "fresh_part",
    "embed_with_boundary",
    "interface_skeleton",
    "InterfaceSkeleton",
    "SkeletonError",
    "merge_parts",
    "MergeResult",
    "charge_merge_stage",
    "charge_path_coordinated_merge",
    "realize_boundary_order",
    "RealizationError",
    "cyclic_equal",
    "symmetry_break",
    "StarPathDecomposition",
    "unrestricted_path_merge",
    "UnrestrictedMergeStats",
    "embed_subtree",
    "RecursionContext",
    "CallRecord",
    "assemble",
    "expand_copies",
    "AssemblyError",
]
