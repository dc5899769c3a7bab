"""The unrestricted path-coordinated merge (paper Section 5.3).

A recursion step leaves us with the trivial path part ``P0`` and up to
Θ(n) hanging parts ``P1..Pk``, each attached to ``P0``.  Directly
coordinating Θ(n) parts over the path would exceed what its edges can
carry in O(D) rounds, so the paper reduces the part count first.  The
six steps implemented here follow the paper's numbered algorithm:

1. number the ``P0`` vertices;
2. two iterations of:
   (a) each part computes its lowest-numbered ``P0`` connection;
   (b) vertex-coordinated merges of same-low-connection clusters;
   (c) parts now connected to a single ``P0`` vertex and nothing else
       deliver their edge order and exit (*pendants*, re-attached at
       assembly);
   (d) parts connected to a single ``P0`` vertex plus the outside world
       freeze until the final merge;
   (e) every remaining merged part adopts a split-off *copy* of its
       coordinator vertex, restoring O(D) diameter; the copy is spliced
       into the part's own rotation when the edges it takes over end in
       one run of the part's outer face (:func:`adopt_copy`), and the
       part is re-embedded only otherwise;
   (f) the Lemma 5.3 symmetry breaking on the inter-part graph, colored
       by low-connection;
   (g, h) star merges on the resulting V-stars and short chains;
   (i) long color-monotone chains sit out the second iteration;
3. parts connected to exactly two ``P0`` vertices (and nothing else)
   compute their embedding and report to both;
4-5. per ``(i, j)`` pair only the highest-ID such part stays; the rest
   exit and are re-inserted at assembly in canonical ID order, except a
   part whose boundary walk interleaves its edges to ``i`` and ``j``,
   which no splice can place: it stays for the final merge;
6. one restricted path-coordinated merge over ``P0`` and the surviving
   parts finishes the job.

``P0`` itself is embedded once, against its boundary as the merge left
it, for the final merge.

Every stage's communication is charged from measured part depths and
payload sizes; the stage-by-stage part counts are recorded in
:class:`UnrestrictedMergeStats` (experiment E8 verifies the reduction to
O(|P0|) parts that makes the final merge *restricted*).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..congest.metrics import RoundMetrics
from ..planar.graph import Graph, NodeId
from ..planar.rotation import RotationSystem
from .assembly import assemble, two_terminal_bundles
from .merges import (
    MergeResult,
    charge_merge_stage,
    charge_path_coordinated_merge,
    merge_parts,
)
from .parts import (
    HalfEdge,
    PartEmbedding,
    augment_with_stubs,
    fresh_part,
    graph_depth,
    is_stub,
    next_part_id,
    stub_node,
)
from .symmetry import symmetry_break

__all__ = ["UnrestrictedMergeStats", "adopt_copy", "unrestricted_path_merge"]

# Split-off copy serials are allocated per merge driver, not from a
# process-global counter: every part ID active in a driver belongs to
# exactly one merge (recursion-path IDs are globally unique), so
# ``(coordinator, pid, serial)`` stays unique network-wide while the
# numbering depends only on the merge itself, not on how many copies
# earlier merges allocated.


@dataclass
class UnrestrictedMergeStats:
    """Per-stage accounting of one unrestricted path-coordinated merge."""

    p0_length: int = 0
    initial_parts: int = 0
    parts_after_iteration: list[int] = field(default_factory=list)
    pendants_discharged: int = 0
    frozen_external: int = 0
    parked_chain_parts: int = 0
    two_terminal_exited: int = 0
    final_instance_parts: int = 0
    symmetry_steps: list[int] = field(default_factory=list)


def _cluster(pids: list[int], adjacency: dict[int, set[int]]) -> list[list[int]]:
    """Connected components of ``pids`` under ``adjacency``."""
    remaining = set(pids)
    clusters = []
    for seed in sorted(pids):
        if seed not in remaining:
            continue
        comp = {seed}
        stack = [seed]
        while stack:
            p = stack.pop()
            for q in adjacency.get(p, ()):
                if q in remaining and q not in comp:
                    comp.add(q)
                    stack.append(q)
        remaining -= comp
        clusters.append(sorted(comp))
    return clusters


def adopt_copy(part: PartEmbedding, copy: NodeId, coordinator: NodeId) -> PartEmbedding:
    """Step 2(e) on one part: its half-edges to ``coordinator`` become
    edges to the new vertex ``copy``, which takes the one half-edge
    ``(copy, coordinator)``.

    The copy is spliced into the part's own rotation when the stubs
    ``s_i .. s_j`` it replaces are one cyclic run of the part's outer face
    (:meth:`PartEmbedding.outer_face`, holding all m stubs), met at the
    vertices ``u_i .. u_j``: each ``u_k`` gets ``copy`` in its
    stub's place, ``copy`` gets the ring ``(stub_c, u_j, .., u_i)`` and
    ``stub_c``, the stub of ``(copy, coordinator)``, the ring ``(copy,)``.
    That is planar with every stub on one face: the copy sits in the
    outer face; each pair ``u_k, u_(k+1)`` of the run closes the inner
    face ``copy -> u_k -> (the old walk) -> u_(k+1) -> copy``; the outer
    face goes on ``u_i -> copy -> stub_c -> copy -> u_j``.  The run's r
    stubs give way to two vertices and r edges to one edge more, and
    r - 1 new faces, so V - E + F does not change.  Otherwise the part
    is re-embedded (:func:`fresh_part`).
    """
    graph = part.graph.copy()
    for u, x in part.boundary:
        if x == coordinator:
            graph.add_edge(u, copy)
    boundary = [(u, x) for u, x in part.boundary if x != coordinator]
    boundary.append((copy, coordinator))
    walk = [s for _, s in part.outer_face() if is_stub(s)]
    m = len(walk)
    rerouted = [s[2] == coordinator for s in walk]
    starts = [k for k in range(m) if rerouted[k] and not rerouted[k - 1]]
    if m != len(part.boundary) or len(starts) > 1:
        return fresh_part(graph, boundary, part_id=part.part_id)
    i = starts[0] if starts else 0
    run = (walk[i:] + walk[:i])[: sum(rerouted)]
    order = part.rotation.as_dict()
    for s in run:
        del order[s]
        order[s[1]] = tuple(copy if w == s else w for w in order[s[1]])
    stub_c = stub_node((copy, coordinator))
    order[copy] = (stub_c, *(s[1] for s in reversed(run)))
    order[stub_c] = (copy,)
    rotation = RotationSystem.trusted(augment_with_stubs(graph, boundary), order)
    return PartEmbedding(part.part_id, graph, boundary, rotation, graph_depth(graph))


def path_rotation(path: list[NodeId], augmented: Graph) -> RotationSystem:
    """The rotation :func:`~repro.core.parts.embed_with_boundary` gives the
    path ``v_0 .. v_(k-1)`` whose stubs ``augmented`` holds (each vertex's
    path edges inserted before its stubs), in closed form.

    Let ``S(v)`` be ``v``'s stubs in boundary order, ``L = v_l`` the last
    vertex with a stub and ``c`` the number of vertices with one.  The
    LR kernel embeds the path, the stubs and a *rest* vertex adjacent to
    every stub.  Its DFS roots at ``v_0`` and sees path edges before
    stubs, so its tree runs down the path; backtracking, the first stub
    edge it takes is ``L``'s first stub ``s_1``, which leads to *rest*,
    from which every other stub is a tree child that closes one back edge
    to its own vertex.  Those back edges all return from below *rest*,
    sorted by the height of their vertex, so none conflicts with another,
    and each is spliced clockwise right after the tree edge by which its
    vertex reached *rest* (``v_(i+1)``, or ``s_1`` at ``L``), so ahead of
    the stubs spliced there before it: they come out reversed.  A
    vertex's parent comes first in its ring:

    * a vertex other than ``L`` gets ``(v_(i-1), v_(i+1), *reversed(S(v)))``;
    * ``L`` gets ``s_1`` then its other stubs reversed,
      ``S' = (s_1, s_m, .., s_2)``, where its two tree edges go in the
      order of their nesting depth: ``v_(l+1)`` has no back edge below it
      (depth ``2l``), while ``s_1``'s lowest return is the first vertex
      with a stub, below ``2l`` exactly when ``c > 1`` (on a tie the path
      edge, inserted first, stays first).  So ``L`` gets
      ``(v_(l-1), *S', v_(l+1))`` when it is interior and ``c > 1``, and
      ``(v_(l-1), v_(l+1), *S')`` otherwise, a missing path neighbour
      left out;
    * every stub gets ``(v,)``, *rest* removed.

    With one vertex this is ``embed_with_boundary``'s own closed form.
    """
    k, adj = len(path), augmented._adj
    order = dict.fromkeys(adj)  # the path, then the stubs in boundary order
    stubs_at = {v: [s for s in adj[v] if is_stub(s)] for v in path}
    carrying = [i for i, v in enumerate(path) if stubs_at[v]]
    last = carrying[-1] if carrying else None
    for i, v in enumerate(path):
        near = path[max(i - 1, 0) : i] + path[i + 1 : i + 2]
        stubs = stubs_at[v]
        for s in stubs:
            order[s] = (v,)
        if i != last:
            order[v] = (*near, *stubs[::-1])
        elif 0 < i < k - 1 and len(carrying) > 1:
            order[v] = (near[0], stubs[0], *stubs[:0:-1], near[1])
        else:
            order[v] = (*near, *stubs[:1], *stubs[:0:-1])
    return RotationSystem.trusted(augmented, order)


class _MergeDriver:
    """Mutable state of one unrestricted path-coordinated merge."""

    def __init__(
        self,
        p0_order: list[NodeId],
        p0_boundary: list[HalfEdge],
        hanging: list[PartEmbedding],
        metrics: RoundMetrics,
        bandwidth: int,
        split_validator=None,
        p0_id=None,
    ) -> None:
        self.p0_id = p0_id
        self.p0_order = list(p0_order)
        self.p0_set = set(p0_order)
        self.index = {v: i for i, v in enumerate(p0_order)}
        self.active: dict[int, PartEmbedding] = {p.part_id: p for p in hanging}
        self.p0_boundary: list[HalfEdge] = list(p0_boundary)
        self.gone: set[NodeId] = set()  # vertices of discharged parts
        self.skip_iteration: set[int] = set()
        self.pendants: list[tuple[NodeId, PartEmbedding]] = []
        self.exited: list[tuple[NodeId, NodeId, PartEmbedding]] = []
        self.metrics = metrics
        self.bandwidth = bandwidth
        self.split_validator = split_validator
        self._copy_serial = itertools.count(1)
        self.stats = UnrestrictedMergeStats(
            p0_length=len(p0_order), initial_parts=len(hanging)
        )

    # -- bookkeeping helpers ----------------------------------------------

    def _owner_map(self) -> dict[NodeId, int]:
        return {v: pid for pid, p in self.active.items() for v in p.vertices}

    def _p0_part(self) -> PartEmbedding:
        """The P0 path embedded against its current boundary: deduped,
        without the edges to discharged parts.  The one P0 embed of a
        merge: nothing reads a P0 rotation before this point."""
        seen = set()
        unique = []
        for h in self.p0_boundary:
            if h not in seen and h[1] not in self.gone:
                seen.add(h)
                unique.append(h)
        graph = Graph(nodes=self.p0_order)
        for a, b in zip(self.p0_order, self.p0_order[1:]):
            graph.add_edge(a, b)
        rotation = path_rotation(self.p0_order, augment_with_stubs(graph, unique))
        part_id = self.p0_id if self.p0_id is not None else next_part_id()
        return PartEmbedding(part_id, graph, unique, rotation, len(self.p0_order) - 1)

    def _replace_part(self, old_ids: list[int], result: MergeResult) -> int:
        for pid in old_ids:
            del self.active[pid]
        self.active[result.part.part_id] = result.part
        return result.part.part_id

    def _part_adjacency(self, pids: list[int]) -> dict[int, set[int]]:
        owner = self._owner_map()
        adjacency: dict[int, set[int]] = {pid: set() for pid in pids}
        wanted = set(pids)
        for pid in pids:
            for _, x in self.active[pid].boundary:
                other = owner.get(x)
                if other is not None and other != pid and other in wanted:
                    adjacency[pid].add(other)
                    adjacency.setdefault(other, set()).add(pid)
        return adjacency

    def _classify(
        self, pid: int, owner: dict[NodeId, int]
    ) -> tuple[list[int], bool, bool]:
        """(sorted distinct P0 indices, has edges to other parts, has external)."""
        part = self.active[pid]
        p0_indices: set[int] = set()
        to_parts = False
        external = False
        for _, x in part.boundary:
            if x in self.p0_set:
                p0_indices.add(self.index[x])
            elif x in owner and owner[x] != pid:
                to_parts = True
            elif x in part.vertices:  # pragma: no cover - self-edge bug guard
                raise AssertionError("boundary edge points into its own part")
            else:
                external = True
        return sorted(p0_indices), to_parts, external

    # -- the algorithm ------------------------------------------------------

    def run(self) -> tuple[PartEmbedding, UnrestrictedMergeStats]:
        if not self.active:
            merged = self._p0_part()
        else:
            for iteration in (1, 2):
                self._one_iteration(iteration)
                self.stats.parts_after_iteration.append(len(self.active))
            self._discharge_two_terminal()
            merged = self._final_merge()
        merged = self._assemble(merged)
        return merged, self.stats

    def _one_iteration(self, iteration: int) -> None:
        participants = [pid for pid in self.active if pid not in self.skip_iteration]
        if not participants:
            return
        # (a) low connections: one aggregate per part, all in parallel.
        low: dict[int, int] = {}
        for pid in participants:
            cons = [
                self.index[x]
                for _, x in self.active[pid].boundary
                if x in self.p0_set
            ]
            if not cons:  # pragma: no cover - every part keeps a P0 link
                raise AssertionError(f"part {pid} lost its P0 connection")
            low[pid] = min(cons)
        max_depth = max(self.active[pid].depth for pid in participants)
        self.metrics.charge(
            "unrestricted:low-connection",
            2 * max_depth,
            detail=f"iter{iteration}: {len(participants)} parts",
        )

        # (b) per-coordinator vertex-coordinated merges of same-low clusters.
        groups: dict[int, list[int]] = {}
        for pid, i in low.items():
            groups.setdefault(i, []).append(pid)
        # Clusters at different coordinators are vertex-disjoint and merge
        # in parallel.
        adjacency = self._part_adjacency(participants)
        stage = []
        for i in sorted(groups):
            for cluster in _cluster(groups[i], adjacency):
                if len(cluster) < 2:
                    continue
                result = merge_parts([self.active[pid] for pid in cluster])
                new_id = self._replace_part(cluster, result)
                for pid in cluster:
                    if pid != new_id:
                        low.pop(pid, None)
                low[new_id] = i
                stage.append(result)
        charge_merge_stage(
            self.metrics, stage, "merge:vertex", self.bandwidth,
            f"iter{iteration}: {len(stage)} parallel clusters",
        )

        # (c)-(e): discharge pendants, freeze externals, split off copies.
        deliveries = []
        self._split_depths: list[int] = []
        owner = self._owner_map()
        for pid in sorted(self.active):
            if pid in self.skip_iteration or pid not in low:
                continue
            p0_indices, to_parts, external = self._classify(pid, owner)
            part = self.active[pid]
            if len(p0_indices) == 1 and not to_parts and not external:
                anchor = self.p0_order[p0_indices[0]]
                self.pendants.append((anchor, part))
                del self.active[pid]
                self.gone |= part.vertices
                self.stats.pendants_discharged += 1
                deliveries.append(part.depth + 2 * len(part.boundary) + 1)
            elif len(p0_indices) == 1 and not to_parts and external:
                self.skip_iteration.add(pid)
                self.stats.frozen_external += 1
                deliveries.append(part.depth + 1)
            else:
                self._split_off_copy(pid, self.p0_order[low[pid]])
        if deliveries:
            self.metrics.charge(
                "unrestricted:discharge",
                max(deliveries),
                detail=f"iter{iteration}: {len(deliveries)} parts",
            )
        if self._split_depths:
            # All split-offs of an iteration run in parallel (disjoint parts).
            self.metrics.charge(
                "unrestricted:split-off",
                max(self._split_depths),
                detail=f"iter{iteration}: {len(self._split_depths)} copies",
            )

        # (f) symmetry breaking on the inter-part graph.
        participants = [
            pid for pid in self.active if pid not in self.skip_iteration and pid in low
        ]
        if len(participants) < 2:
            return
        adjacency = self._part_adjacency(participants)
        inter = Graph(nodes=sorted(participants))
        for pid in participants:
            for q in adjacency[pid]:
                inter.add_edge(pid, q)
        decomposition = symmetry_break(inter, {pid: low[pid] for pid in participants})
        self.stats.symmetry_steps.append(decomposition.steps)
        max_depth = max(self.active[pid].depth for pid in participants)
        self.metrics.charge(
            "unrestricted:symmetry",
            2 * max_depth * decomposition.steps,
            detail=f"iter{iteration}: {decomposition.steps} super-rounds",
        )

        # (g) V-star merges (disjoint stars merge in parallel).
        representative = {pid: pid for pid in participants}
        stage = []
        for center, leaves in decomposition.stars:
            members = [center, *leaves]
            result = merge_parts([self.active[pid] for pid in members])
            new_id = self._replace_part(members, result)
            low[new_id] = min(low[pid] for pid in members)
            for pid in members:
                representative[pid] = new_id
            stage.append(result)
        charge_merge_stage(
            self.metrics, stage, "merge:star", self.bandwidth,
            f"iter{iteration}: {len(stage)} parallel V-stars",
        )

        # (h)-(i) chain merges / parking (disjoint chains merge in parallel).
        stage = []
        for chain in decomposition.chains:
            current = sorted({representative[pid] for pid in chain})
            if len(current) <= 1:
                continue
            if len(chain) <= 3:
                result = merge_parts([self.active[pid] for pid in current])
                new_id = self._replace_part(current, result)
                low[new_id] = min(low[pid] for pid in current)
                stage.append(result)
            else:
                self.skip_iteration.update(current)
                self.stats.parked_chain_parts += len(current)
        charge_merge_stage(
            self.metrics, stage, "merge:star", self.bandwidth,
            f"iter{iteration}: {len(stage)} parallel chain merges",
        )

    def _split_off_copy(self, pid: int, coordinator: NodeId) -> None:
        """Step 2(e): adopt a secondary copy of the coordinator vertex."""
        part = self.active[pid]
        rerouted = [u for u, x in part.boundary if x == coordinator]
        if not rerouted:  # pragma: no cover - low-connection guarantees an edge
            raise AssertionError("split-off without a coordinator edge")
        copy = ("copy", coordinator, pid, next(self._copy_serial))
        if self.split_validator is not None and not self.split_validator(
            copy, coordinator, rerouted
        ):
            # The bundle cannot be made consecutive around the
            # coordinator in any planar embedding; keep the direct
            # edges (diameter cost is charged honestly either way).
            return
        if self.split_validator is None and len(rerouted) > 1:
            return  # without an oracle, only subdivision splits are safe
        new_part = adopt_copy(part, copy, coordinator)
        self.active[pid] = new_part
        self._split_depths.append(new_part.depth)
        # P0's view: the rerouted edges collapse into one virtual edge.
        rerouted_set = set(rerouted)
        self.p0_boundary = [
            (a, x)
            for a, x in self.p0_boundary
            if not (a == coordinator and x in rerouted_set)
        ]
        self.p0_boundary.append((coordinator, copy))

    def _discharge_two_terminal(self) -> None:
        """Steps 3-5: dedupe parts that touch exactly two P0 vertices."""
        ij_groups: dict[tuple[int, int], list[int]] = {}
        owner = self._owner_map()
        for pid in sorted(self.active):
            p0_indices, to_parts, external = self._classify(pid, owner)
            if len(p0_indices) == 2 and not to_parts and not external:
                ij_groups.setdefault(tuple(p0_indices), []).append(pid)
        deliveries = []
        for (ii, jj), pids in sorted(ij_groups.items()):
            keep = max(pids)
            i_vertex = self.p0_order[ii]
            j_vertex = self.p0_order[jj]
            for pid in pids:
                part = self.active[pid]
                deliveries.append(part.depth + 2 * len(part.boundary) + 1)
                if pid == keep:
                    continue
                if two_terminal_bundles(part, i_vertex, j_vertex) is None:
                    # Earlier merges fixed this walk with i and j inside
                    # one *rest* vertex, and it interleaves them: no
                    # splice can place it, so it stays for the final
                    # merge, whose instance arranges it or rejects the
                    # network.
                    continue
                self.exited.append((i_vertex, j_vertex, part))
                del self.active[pid]
                self.gone |= part.vertices
                self.stats.two_terminal_exited += 1
        if deliveries:
            self.metrics.charge(
                "unrestricted:two-terminal",
                2 * max(deliveries),
                detail=f"{len(deliveries)} (i,j)-parts",
            )

    def _final_merge(self) -> PartEmbedding:
        """Step 6: the restricted path-coordinated merge."""
        participants = [self._p0_part()] + [
            self.active[pid] for pid in sorted(self.active)
        ]
        self.stats.final_instance_parts = len(participants)
        result = merge_parts(participants)
        charge_path_coordinated_merge(
            self.metrics,
            result,
            path_length=len(self.p0_order),
            bandwidth=self.bandwidth,
            detail=f"{len(participants)} parts over |P0|={len(self.p0_order)}",
        )
        return result.part

    def _assemble(self, merged: PartEmbedding) -> PartEmbedding:
        if not (self.pendants or self.exited):
            return merged
        two_terminal = sorted(self.exited, key=lambda t: t[2].part_id)
        merged = assemble(merged, self.pendants, two_terminal)
        return replace(merged, depth=graph_depth(merged.graph))


def unrestricted_path_merge(
    p0_order: list[NodeId],
    p0_boundary: list[HalfEdge],
    hanging: list[PartEmbedding],
    metrics: RoundMetrics,
    bandwidth: int = 1,
    split_validator=None,
    p0_id=None,
) -> tuple[PartEmbedding, UnrestrictedMergeStats]:
    """Merge the path ``P0`` with its hanging parts; see the module docstring.

    ``P0`` is the path through ``p0_order`` with the half-edges
    ``p0_boundary``, and ``p0_id`` is its part ID (``None``: allocate
    one); the merge embeds it once, for the final merge.
    ``split_validator`` is the oracle for step-2(e) split-offs (see
    ``RecursionContext.try_split``); without one, only always-safe
    single-edge splits are performed.
    """
    driver = _MergeDriver(
        p0_order, p0_boundary, hanging, metrics, bandwidth, split_validator, p0_id
    )
    return driver.run()
