"""End-to-end verification of combinatorial planar embeddings.

The distributed algorithm's *output format* (paper, Section 2) is that
each vertex learns the clockwise order of its own edges in one fixed
planar drawing.  This module checks such an output globally:

1. the per-vertex orders assemble into a valid rotation system, and
2. the rotation system has Euler genus zero (Edmonds [Edm60]: rotation
   systems are in bijection with embeddings into orientable surfaces, and
   genus 0 means planar).

It also provides ``check_embedding_with_boundary`` for tests and
benchmarks (a merge checks itself at its glue): a part's embedding is
acceptable only if all of its half-embedded attachment vertices lie on
one face (the consequence of the safety property, Definition 3.1).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .graph import Graph, NodeId
from .rotation import RotationSystem, trace_faces

__all__ = [
    "EmbeddingViolation",
    "verify_rotation_system",
    "verify_planar_embedding",
    "check_embedding_with_boundary",
]


class EmbeddingViolation(AssertionError):
    """Raised when a claimed planar embedding fails verification."""


def verify_rotation_system(
    graph: Graph, order: Mapping[NodeId, Sequence[NodeId]]
) -> RotationSystem:
    """Assemble per-vertex orders into a rotation system, or raise."""
    try:
        return RotationSystem(graph, order)
    except ValueError as exc:
        raise EmbeddingViolation(str(exc)) from exc


def verify_planar_embedding(
    graph: Graph, order: Mapping[NodeId, Sequence[NodeId]]
) -> RotationSystem:
    """Verify that per-vertex clockwise orders form a *planar* embedding.

    Returns the validated :class:`RotationSystem`; raises
    :class:`EmbeddingViolation` otherwise.  This is the referee for every
    integration test and for the algorithm's own self-checks.
    """
    rotation = verify_rotation_system(graph, order)
    genus = rotation.genus()
    if genus != 0:
        raise EmbeddingViolation(
            f"rotation system has Euler genus {genus}, not a planar embedding"
        )
    return rotation


def check_embedding_with_boundary(
    rotation: RotationSystem, boundary: Iterable[NodeId]
) -> list[tuple[NodeId, NodeId]]:
    """Check all ``boundary`` vertices share one face; return that face.

    This is the structural consequence of the safety property that the
    whole interface machinery rests on: since the remainder of the graph
    is connected, the half-embedded edges of a part must emanate from a
    single face of the part's embedding.  Raises
    :class:`EmbeddingViolation` if no face contains all boundary
    vertices.
    """
    # One dart trace serves both the genus check and the face search.
    faces = trace_faces(rotation)
    graph = rotation.graph
    v = graph.num_nodes
    if v:
        e = graph.num_edges
        # Edgeless components are bare spheres invisible to dart tracing.
        isolated = sum(1 for node in graph.nodes() if graph.degree(node) == 0)
        f = len(faces) + isolated
        c = len(graph.connected_components())
        if 2 * c - (v - e + f) != 0:
            raise EmbeddingViolation("not a planar embedding")
    wanted = set(boundary)
    if not wanted:
        return faces[0] if faces else []
    best = None
    for face in faces:
        if wanted <= {u for u, _ in face}:
            best = face
            break
    if best is None:
        raise EmbeddingViolation(
            f"no face contains all {len(wanted)} boundary vertices"
        )
    return best
