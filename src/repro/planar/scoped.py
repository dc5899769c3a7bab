"""Planarity oracle for locally-modified planar graphs.

``RecursionContext.try_split`` repeatedly asks "is the evolving network
still planar?" after rerouting one edge bundle at a coordinator through
a fresh copy vertex.  Each query is settled by one of two steps.

1. **Witness.**  The oracle keeps a planar rotation of the graph — a
   locally checkable proof of planarity (Feuilloley et al.,
   arXiv:2005.05863) — and answers from it.  If the rerouted darts are
   cyclically consecutive in the coordinator's ring, the reroute is a
   vertex split of that ring: the copy takes the bundle's interval and
   each bundle endpoint swaps the coordinator for the copy.  The split
   rotation is a planar embedding of the modified graph, so the answer
   is "planar", proven, in O(deg) time.  Single-edge subdivisions,
   which ``try_split`` keeps untested, are applied to the rotation too
   (:meth:`note_subdivision`).

2. **Whole-graph LR test.**  Every other query — the first one, which
   finds no rotation yet, and any bundle that is not consecutive in the
   kept rotation — embeds the whole modified graph once with the LR
   kernel.  Its verdict is the answer.  A planar verdict's rotation
   replaces the old one, so the next consecutive split is a witness
   step again; a rejection keeps the old rotation, because the caller
   restores the graph exactly.

Both steps are exact, so every verdict equals a full-graph test — the
differential suite in ``tests/integration`` checks it end to end against
a networkx reference — while the common query costs one ring scan
instead of a whole-graph LR test.

The class keeps the name it had when a block-scoped LR tier
(Observation 3.2) sat between the two steps: the benchmark under
``perfbench/`` wraps ``ScopedPlanarityOracle.check_rerouted`` by name and
reads the ``full_tests`` / ``scoped_tests`` counters, which now count the
LR tests and the witness answers.
"""

from __future__ import annotations

from .graph import Graph, NodeId
from .lr_planarity import lr_planarity

__all__ = ["ScopedPlanarityOracle"]


class ScopedPlanarityOracle:
    """Witness-backed planarity decisions for one evolving graph.

    Every query increments exactly one counter: ``scoped_tests`` for a
    witness answer, ``full_tests`` for a whole-graph LR test.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph  # the evolving graph, shared by reference
        self.full_tests = 0
        self.scoped_tests = 0
        # A planar rotation of ``graph`` (vertex -> clockwise neighbor
        # tuple), or None until the first LR test builds one.
        self.rotation: dict[NodeId, tuple[NodeId, ...]] | None = None

    def stats(self) -> dict[str, int]:
        return {"full_tests": self.full_tests, "scoped_tests": self.scoped_tests}

    def note_subdivision(self, copy: NodeId, coordinator: NodeId, u: NodeId) -> None:
        """Keep the rotation in step with an untested subdivision of the
        edge ``{u, coordinator}`` by ``copy``."""
        if self.rotation is not None:
            _split_vertex(self.rotation, copy, coordinator, (u,))

    def check_rerouted(
        self, copy: NodeId, coordinator: NodeId, rerouted: list[NodeId]
    ) -> bool:
        """Planarity of the graph after the edges from ``coordinator`` to
        ``rerouted`` were moved onto ``copy`` and ``copy`` was joined to
        ``coordinator`` — the only modification since the last verdict.

        On a ``False`` verdict the caller must restore the graph exactly
        (``try_split`` does); the pre-modification graph was planar, so
        the rotation stays valid.
        """
        rotation = self.rotation
        if rotation is not None and _split_vertex(rotation, copy, coordinator, rerouted):
            self.scoped_tests += 1
            return True
        self.full_tests += 1
        embedding = lr_planarity(self.graph)
        if embedding is None:
            return False
        self.rotation = embedding.as_dict()
        return True


def _split_vertex(
    rotation: dict[NodeId, tuple[NodeId, ...]],
    copy: NodeId,
    coordinator: NodeId,
    bundle,
) -> bool:
    """Split ``coordinator`` in ``rotation`` if ``bundle`` is cyclically
    consecutive in its ring; ``False`` (rotation untouched) otherwise.

    The copy takes the bundle's interval of the ring: the coordinator
    sees the copy where the bundle was, the copy sees the coordinator
    followed by the bundle in ring order, and each bundle endpoint sees
    the copy where the coordinator was.  Every face of the old rotation
    maps to one face of the new one (the copy edge runs inside the two
    faces flanking the interval), so a planar rotation stays planar.
    """
    ring = rotation[coordinator]
    members = set(bundle)
    d = len(ring)
    k = len(members)
    start = 0
    if k < d:
        start = -1
        prev_in = ring[-1] in members
        for i, u in enumerate(ring):
            now_in = u in members
            if now_in and not prev_in:
                if start >= 0:
                    return False  # a second run: not consecutive
                start = i
            prev_in = now_in
    end = start + k
    if end <= d:
        run = ring[start:end]
        rotation[coordinator] = ring[:start] + (copy,) + ring[end:]
    else:  # the interval wraps past the end of the ring
        run = ring[start:] + ring[: end - d]
        rotation[coordinator] = (copy,) + ring[end - d : start]
    rotation[copy] = (coordinator,) + run
    for u in run:
        r = rotation[u]
        i = r.index(coordinator)
        rotation[u] = r[:i] + (copy,) + r[i + 1 :]
    return True
