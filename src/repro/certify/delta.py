"""Incremental re-certification: patch proof labels under edge churn.

The E14 prover rebuilds every label from scratch — election, BFS,
convergecast, O(D) rounds network-wide — even when a single edge changed
or a single label was corrupted.  This module makes certification
*incremental*:

* :func:`repair_certificates` — the post-heal repair used by
  ``self_healing_embedding``'s escalation ladder: starting from the
  verifier's rejecting nodes, re-prove only the dirty region (plus the
  one-hop closure the verifier audits), re-check it locally, and expand
  until the region is clean — falling back to a full rebuild when it
  exceeds ``fallback_ratio * n``;
* :class:`DynamicCertifiedEmbedding` — the dynamic-graph engine for the
  new churn workload: seeded edge inserts (splitting a shared face) and
  deletes (merging the two incident faces, re-hanging the certificate
  tree when a tree edge goes away) patch the rotation system *and* the
  proof labels in place, charging only the local patch + scoped
  re-verification instead of a fresh global pipeline.

**The dirty-region rule.**  A mutation at edge ``{u, v}`` invalidates
exactly (a) the dart labels on the face walks it touches (the split or
merged faces), (b) the subtree tallies on the tree paths from the
endpoints and the affected face leaders up to the root, (c) on a tree
edge deletion, the depths of the re-hung subtree, and (d) the announced
globals ``(m, f)`` everywhere — the root re-broadcasts totals, which is
a depth-bounded announce, not a rebuild.  Everything else is untouched,
and the CONGEST verifier's locality (one exchange per edge) means
re-checking the dirty closure plus its one-hop boundary is exactly as
convincing there as a full verification.

**Round accounting.**  Patches are omniscient-prover bookkeeping (like
the E14 face labels) but their distributed cost model is charged
explicitly to the ``certify:delta`` phase under a ``certify-delta``
span: one exchange round, a convergecast from the deepest dirty node,
and a root announce of the refreshed totals.  The words charged are the
packed sizes of the patched labels alone: a patch packs only its dirty
labels (:func:`~repro.certify.compact.packed_bit_lengths`), never all
``n``, so its local bookkeeping follows the change too.  Fallback
rebuilds run the real E14 prover and pay its real rounds, so the bench
comparison (`bench_e21_compact.py`) races measured ledgers, not
assumptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from ..congest.faults import fault_override
from ..congest.message import word_bits
from ..congest.metrics import RoundMetrics
from ..obs import Tracer, maybe_span, observe
from ..planar.graph import Graph, NodeId
from ..planar.rotation import RotationSystem
from .compact import (
    CompactCertificateSet,
    encode_certificates,
    packed_bit_lengths,
    verify_compact,
)
from .labels import CertificateSet, DartLabel
from .prover import build_certificates
from .verifier import CertificationReport, CertVerifierProgram, Rejection

__all__ = [
    "DEFAULT_FALLBACK_RATIO",
    "ChurnReport",
    "DynamicCertifiedEmbedding",
    "PatchRecord",
    "RepairOutcome",
    "repair_certificates",
]

# Above this fraction of dirty nodes an incremental patch stops being
# "local": the engine and the healer both fall back to the real E14
# prover (whose O(D) rounds are then charged honestly).
DEFAULT_FALLBACK_RATIO = 0.25


# -- scoped verification -----------------------------------------------------


def _local_rejections(
    graph: Graph,
    rotation: dict[NodeId, tuple],
    certs: CertificateSet,
    nodes: Iterable[NodeId],
) -> list[Rejection]:
    """Run the verifier's per-node decision offline for ``nodes``.

    Reuses :class:`CertVerifierProgram` verbatim — same predicates, same
    rejection surface — feeding each program the exact messages its
    neighbors would send.  No network, no rounds; callers charge the
    scoped exchange themselves.
    """
    out: list[Rejection] = []
    for v in sorted(nodes, key=repr):
        prog = CertVerifierProgram(
            v, graph.neighbors(v), certs.labels.get(v), tuple(rotation.get(v, ()))
        )
        for u in prog.neighbors:
            lab = certs.labels.get(u)
            dart = None
            if lab is not None and v in lab.darts:
                dart = lab.darts[v].encode()
            prog.received[u] = ("crt", lab.tree_fields() if lab is not None else None, dart)
        prog._decide()
        out.extend(Rejection(v, predicate, detail) for predicate, detail in prog.violations)
    return out


def _closure(graph: Graph, nodes: Iterable[NodeId]) -> set[NodeId]:
    closed = set()
    for v in nodes:
        if v in graph:
            closed.add(v)
            closed.update(graph.neighbors(v))
    return closed


def _patch_words(graph: Graph, certs: CertificateSet, nodes: Iterable[NodeId]) -> int:
    """Words a patch ships: each changed label's packed size in whole words."""
    wbits = word_bits(max(1, graph.num_nodes))
    return sum(-(-b // wbits) for b in packed_bit_lengths(graph, certs, nodes).values())


def _reference_certificates(graph: Graph, rotation_system: RotationSystem) -> CertificateSet:
    """The omniscient prover's answer, with zero footprint.

    Built on a throwaway ledger with ambient chaos and every installed
    recorder suppressed: this is bookkeeping used to *source* patched
    label values, not a distributed execution — the distributed cost of
    the patch is charged explicitly by the callers.
    """
    with fault_override(None), observe():
        return build_certificates(graph, rotation_system, metrics=RoundMetrics())


# -- post-heal repair --------------------------------------------------------


@dataclass
class RepairOutcome:
    """What one :func:`repair_certificates` call did."""

    certificates: CertificateSet
    mode: str  # "patched" | "rebuilt"
    dirty: int  # nodes in the final dirty closure
    patched: int  # labels actually replaced
    rounds: int  # rounds charged for the repair
    sweeps: int = 0  # patch-and-recheck iterations


def repair_certificates(
    graph: Graph,
    rotation_system: RotationSystem,
    certificates: CertificateSet | None,
    dirty: Iterable[NodeId],
    *,
    metrics: RoundMetrics | None = None,
    tracer: Tracer | None = None,
    fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
) -> RepairOutcome:
    """Re-prove only the dirty region of a rejected certificate set.

    ``dirty`` seeds the region (typically the verifier's rejecting
    nodes); the repair patches the one-hop closure from a reference
    proof, refreshes the announced globals everywhere (the root
    re-broadcasts totals), re-checks the patched region locally with the
    unchanged verifier predicates, and expands until clean.  When the
    region grows past ``fallback_ratio * n`` the real E14 prover rebuilds
    everything instead (its rounds land on the same ledger).
    """
    ledger = metrics if metrics is not None else RoundMetrics()
    if tracer is not None and ledger.observer is None:
        ledger.observer = tracer
    n = graph.num_nodes
    threshold = max(1, int(fallback_ratio * n))
    before = ledger.rounds

    def rebuild() -> RepairOutcome:
        rebuilt = build_certificates(graph, rotation_system, metrics=ledger, tracer=tracer)
        return RepairOutcome(
            certificates=rebuilt,
            mode="rebuilt",
            dirty=n,
            patched=n,
            rounds=ledger.rounds - before,
        )

    seed = _closure(graph, dirty)
    if certificates is None or not certificates.labels or len(seed) > threshold:
        return rebuild()

    with maybe_span(tracer, "certify-delta", kind="phase", n=n) as span:
        reference = _reference_certificates(graph, rotation_system)
        rotation = {v: rotation_system.order(v) for v in graph.nodes()}
        patched_set = certificates.copy()
        announced = next(iter(reference.labels.values()))
        patched_nodes: set[NodeId] = set()
        frontier = set(seed)
        sweeps = 0
        while frontier:
            sweeps += 1
            for v in frontier:
                patched_set.labels[v] = reference.labels[v].copy()
            patched_nodes |= frontier
            # The announce: every label carries the root's refreshed
            # global fields (costed inside the per-repair charge below).
            for lab in patched_set.labels.values():
                lab.root = announced.root
                lab.n = announced.n
                lab.m = announced.m
                lab.f = announced.f
            if len(patched_nodes) > threshold:
                if span is not None:
                    span.attrs["fallback"] = "region exceeded threshold"
                return rebuild()
            check = _closure(graph, patched_nodes)
            rejections = _local_rejections(graph, rotation, patched_set, check)
            frontier = _closure(graph, {r.node for r in rejections}) - patched_nodes

        depth_of = {v: lab.depth for v, lab in reference.labels.items()}
        up = max((depth_of.get(v, 0) for v in patched_nodes), default=0)
        announce = max(depth_of.values(), default=0)
        words = _patch_words(graph, patched_set, patched_nodes)
        rounds = sweeps + up + announce
        ledger.charge(
            "certify:delta",
            rounds,
            words=words,
            detail=(
                f"patched {len(patched_nodes)}/{n} labels in {sweeps} sweep(s), "
                f"convergecast depth {up}, announce depth {announce}"
            ),
        )
        if span is not None:
            span.attrs["patched"] = len(patched_nodes)
            span.attrs["sweeps"] = sweeps
    return RepairOutcome(
        certificates=patched_set,
        mode="patched",
        dirty=len(_closure(graph, patched_nodes)),
        patched=len(patched_nodes),
        rounds=ledger.rounds - before,
        sweeps=sweeps,
    )


# -- the churn engine --------------------------------------------------------


@dataclass
class PatchRecord:
    """One mutation and what certifying it cost."""

    op: str  # "insert" | "delete"
    u: str  # repr of the endpoint (JSON-ready)
    v: str
    mode: str  # "patched" | "rebuild-cert" | "rebuild-embed"
    dirty: int  # nodes whose labels were touched
    rounds: int  # ledger rounds this op consumed (patch + verification)
    accepted: bool  # scoped (or full, on rebuild) verdict after the op

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "u": self.u,
            "v": self.v,
            "mode": self.mode,
            "dirty": self.dirty,
            "rounds": self.rounds,
            "accepted": self.accepted,
        }


@dataclass
class ChurnReport:
    """Outcome of one churn run: the op plan, per-op costs, final verdict."""

    plan: list[tuple[str, NodeId, NodeId]]
    records: list[PatchRecord]
    incremental: bool
    final_certification: CertificationReport
    stats: dict = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.final_certification.accepted and all(r.accepted for r in self.records)

    @property
    def op_rounds(self) -> int:
        return sum(r.rounds for r in self.records)

    def mean_op_rounds(self) -> float:
        return self.op_rounds / len(self.records) if self.records else 0.0

    def to_dict(self) -> dict:
        return {
            "ops": len(self.records),
            "incremental": self.incremental,
            "accepted": self.accepted,
            "op_rounds": self.op_rounds,
            "op_rounds_mean": round(self.mean_op_rounds(), 2),
            "stats": dict(self.stats),
            "records": [r.to_dict() for r in self.records],
            "final_certification": self.final_certification.to_dict(),
        }


class DynamicCertifiedEmbedding:
    """A certified planar embedding that stays certified under churn.

    Owns a private copy of the graph and its edge count (``num_edges``,
    stepped by every insert and delete, so a face walk reads its bound
    in O(1)), the live rotation system, the certificate tree
    (parent/depth/children read off the labels), and the proof labels
    themselves.  ``insert_edge`` splits the shared face of the
    endpoints; ``delete_edge`` merges the two incident faces
    (refusing bridges, which would disconnect the network) and re-hangs
    the certificate subtree when a tree edge disappears.  Each mutation
    patches only the dirty region and re-verifies it with the unchanged
    verifier predicates; ``incremental=False`` makes every op a full
    re-embed + re-certify, which is the bench's rebuild baseline.

    All rounds — the initial pipeline, per-op patches, scoped
    verifications, fallback rebuilds — accumulate on ``self.metrics``.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        incremental: bool = True,
        fallback_ratio: float = DEFAULT_FALLBACK_RATIO,
        bandwidth_words: int = 1,
        tracer: Tracer | None = None,
    ) -> None:
        if graph.num_nodes < 2:
            raise ValueError("churn needs at least two nodes")
        self.incremental = incremental
        self.fallback_ratio = fallback_ratio
        self.bandwidth_words = bandwidth_words
        self.tracer = tracer
        self.metrics = RoundMetrics()
        if tracer is not None:
            self.metrics.observer = tracer
        self.graph = graph.copy()
        self.rotation: dict[NodeId, tuple] = {}
        self.certs: CertificateSet | None = None
        self.compact: CompactCertificateSet | None = None
        self.last_certification: CertificationReport | None = None
        self.certified_ops: int | None = None  # stats["ops"] at that verification
        self.parent: dict[NodeId, NodeId | None] = {}
        self.depth: dict[NodeId, int] = {}
        self.children: dict[NodeId, list[NodeId]] = {}
        self.root: NodeId | None = None
        self.stats = {
            "ops": 0,
            "inserts": 0,
            "deletes": 0,
            "patched": 0,
            "cert_rebuilds": 0,
            "embed_rebuilds": 0,
        }
        self._rebuild_embed()

    # -- state maintenance -------------------------------------------------

    def _rebuild_embed(self) -> None:
        """Full pipeline on the current graph: embed, prove, track tree."""
        from ..core.algorithm import DistributedPlanarEmbedding

        driver = DistributedPlanarEmbedding(
            self.graph,
            bandwidth_words=self.bandwidth_words,
            tracer=self.tracer,
            certify=False,
        )
        try:
            result = driver.run()
        finally:
            if driver.last_metrics is not None:
                self.metrics.absorb_serial(driver.last_metrics)
        self.rotation = {v: tuple(order) for v, order in result.rotation.items()}
        self.num_edges = self.graph.num_edges
        self.certs = build_certificates(
            self.graph, result.rotation_system, metrics=self.metrics, tracer=self.tracer
        )
        self._refresh_tree()

    def _add_edge(self, u: NodeId, v: NodeId) -> None:
        self.graph.add_edge(u, v)
        self.num_edges += 1

    def _remove_edge(self, u: NodeId, v: NodeId) -> None:
        self.graph.remove_edge(u, v)
        self.num_edges -= 1

    def _rebuild_certificates(self) -> None:
        """Real E14 prover on the live rotation (rounds on the ledger)."""
        system = RotationSystem.trusted(self.graph, dict(self.rotation))
        self.certs = build_certificates(
            self.graph, system, metrics=self.metrics, tracer=self.tracer
        )
        self._refresh_tree()

    def _refresh_tree(self) -> None:
        labels = self.certs.labels
        self.parent = {v: lab.parent for v, lab in labels.items()}
        self.depth = {v: lab.depth for v, lab in labels.items()}
        self.children = {v: [] for v in labels}
        self.root = None
        for v, lab in labels.items():
            if lab.parent is None:
                self.root = v
            else:
                self.children[lab.parent].append(v)

    def _chain(self, node: NodeId) -> list[NodeId]:
        """``node`` and its ancestors up to the certificate root."""
        out = []
        v: NodeId | None = node
        for _ in range(len(self.parent) + 1):
            if v is None:
                return out
            out.append(v)
            v = self.parent[v]
        raise AssertionError("parent pointers do not reach the root")

    def _bump(self, origin: NodeId, dv: int = 0, dd: int = 0, df: int = 0) -> list[NodeId]:
        """Add subtree-tally deltas along ``origin``'s root chain."""
        chain = self._chain(origin)
        for a in chain:
            lab = self.certs.labels[a]
            lab.subtree_vertices += dv
            lab.subtree_degree += dd
            lab.subtree_faces += df
        return chain

    def _subtree(self, node: NodeId) -> set[NodeId]:
        out = {node}
        stack = [node]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                out.add(c)
                stack.append(c)
        return out

    def _face_walk(self, start: tuple[NodeId, NodeId]) -> list[tuple[NodeId, NodeId]]:
        """The face walk containing dart ``start``, on the live rotation."""
        limit = 2 * self.num_edges + 2
        walk = [start]
        u, v = start
        for _ in range(limit):
            ring = self.rotation[v]
            u, v = v, ring[(ring.index(u) + 1) % len(ring)]
            if (u, v) == start:
                return walk
            walk.append((u, v))
        raise AssertionError(f"face walk from {start!r} did not close")

    def _relabel_walk(self, walk: list[tuple[NodeId, NodeId]]) -> NodeId:
        """Assign fresh dart labels to one face walk; returns the leader owner."""
        lead_pos = min(range(len(walk)), key=lambda i: repr(walk[i]))
        leader = walk[lead_pos]
        for pos, (s, t) in enumerate(walk):
            self.certs.labels[s].darts[t] = DartLabel(
                face=leader, length=len(walk), index=(pos - lead_pos) % len(walk)
            )
        return leader[0]

    def _threshold(self) -> int:
        return max(1, int(self.fallback_ratio * self.graph.num_nodes))

    # -- per-op cost + verification ----------------------------------------

    def _charge_patch(self, dirty: set[NodeId], sweeps: int = 1) -> int:
        """Charge the distributed cost model of one local patch:
        one exchange per sweep + convergecast from the deepest dirty
        node + the root's announce of the refreshed ``(m, f)``."""
        up = max((self.depth[v] for v in dirty if v in self.depth), default=0)
        announce = max(self.depth.values(), default=0)
        words = _patch_words(self.graph, self.certs, dirty)
        rounds = sweeps + up + announce
        self.metrics.charge(
            "certify:delta",
            rounds,
            words=words,
            detail=f"patched {len(dirty)} labels, convergecast {up}, announce {announce}",
        )
        return rounds

    def _verify_scoped(self, dirty: set[NodeId]) -> tuple[bool, list[Rejection]]:
        """Re-run the verifier's predicates on the dirty closure only."""
        check = _closure(self.graph, dirty)
        rejections = _local_rejections(self.graph, self.rotation, self.certs, check)
        up = max((self.depth[v] for v in check if v in self.depth), default=0)
        announce = max(self.depth.values(), default=0)
        self.metrics.charge(
            "certify:delta",
            1 + up + announce,
            words=len(check),
            detail=f"scoped verify of {len(check)} nodes",
        )
        return not rejections, rejections

    def _verify_full(self) -> CertificationReport:
        """Full distributed verification through the compact codec shim."""
        self.compact = encode_certificates(self.graph, self.certs)
        self.last_certification = verify_compact(
            self.graph,
            self.rotation,
            self.compact,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.certified_ops = self.stats["ops"]
        return self.last_certification

    def _record_rebuild(self, op: str, u: NodeId, v: NodeId, mode: str) -> PatchRecord:
        before = self.metrics.rounds
        if mode == "rebuild-embed":
            self._rebuild_embed()
            self.stats["embed_rebuilds"] += 1
        else:
            self._rebuild_certificates()
            self.stats["cert_rebuilds"] += 1
        report = self._verify_full()
        return PatchRecord(
            op=op,
            u=repr(u),
            v=repr(v),
            mode=mode,
            dirty=self.graph.num_nodes,
            rounds=self.metrics.rounds - before,
            accepted=report.accepted,
        )

    # -- mutations ---------------------------------------------------------

    def insert_edge(self, u: NodeId, v: NodeId) -> PatchRecord:
        """Add edge ``{u, v}``; patch the split face's labels in place.

        The endpoints must share a face of the current embedding (any
        chord of a face keeps the embedding planar by construction).
        When they do not, the engine re-embeds from scratch — which
        raises :class:`~repro.core.parts.NonPlanarNetworkError` if the
        edge genuinely breaks planarity.
        """
        if u == v or u not in self.graph or v not in self.graph:
            raise ValueError(f"cannot insert {u!r}-{v!r}")
        if self.graph.has_edge(u, v):
            raise ValueError(f"edge {u!r}-{v!r} already present")
        self.stats["ops"] += 1
        self.stats["inserts"] += 1
        with maybe_span(self.tracer, "certify-delta", kind="phase", n=self.graph.num_nodes):
            if not self.incremental:
                self._add_edge(u, v)
                return self._record_rebuild("insert", u, v, "rebuild-embed")

            corners = self._find_shared_face(u, v)
            if corners is None:
                self._add_edge(u, v)
                return self._record_rebuild("insert", u, v, "rebuild-embed")
            a, c, old_walk = corners
            old_leader_owner = self.certs.labels[old_walk[0][0]].darts[old_walk[0][1]].face[0]

            # Rotation split: v right after a around u, u right after c
            # around v — the face-tracing successors of (a,u) and (c,v)
            # become the new darts, splitting the walk in two.
            self._add_edge(u, v)
            ring_u = list(self.rotation[u])
            ring_u.insert(ring_u.index(a) + 1, v)
            self.rotation[u] = tuple(ring_u)
            ring_v = list(self.rotation[v])
            ring_v.insert(ring_v.index(c) + 1, u)
            self.rotation[v] = tuple(ring_v)
            walk1 = self._face_walk((u, v))
            walk2 = self._face_walk((v, u))
            if len(walk1) + len(walk2) != len(old_walk) + 2:  # pragma: no cover
                raise AssertionError("face split did not conserve darts")

            dirty = {s for s, _ in walk1} | {s for s, _ in walk2} | {u, v}
            dirty |= set(self._chain(u)) | set(self._chain(v))
            dirty |= set(self._chain(old_leader_owner))
            if len(dirty) > self._threshold():
                return self._record_rebuild("insert", u, v, "rebuild-cert")

            before = self.metrics.rounds
            l1 = self._relabel_walk(walk1)
            l2 = self._relabel_walk(walk2)
            leader_delta: dict[NodeId, int] = {}
            for owner, d in ((old_leader_owner, -1), (l1, +1), (l2, +1)):
                leader_delta[owner] = leader_delta.get(owner, 0) + d
            for owner, d in leader_delta.items():
                if d:
                    self.certs.labels[owner].face_leaders += d
                    dirty |= set(self._bump(owner, df=d))
            dirty |= set(self._bump(u, dd=1))
            dirty |= set(self._bump(v, dd=1))
            for lab in self.certs.labels.values():
                lab.m += 1
                lab.f += 1
            self._charge_patch(dirty)
            ok, _rejections = self._verify_scoped(dirty)
            self.stats["patched"] += 1
            return PatchRecord(
                op="insert",
                u=repr(u),
                v=repr(v),
                mode="patched",
                dirty=len(dirty),
                rounds=self.metrics.rounds - before,
                accepted=ok,
            )

    def _find_shared_face(
        self, u: NodeId, v: NodeId
    ) -> tuple[NodeId, NodeId, list[tuple[NodeId, NodeId]]] | None:
        """Corners for inserting chord ``(u, v)``: the predecessors
        ``a`` (of ``u``'s corner) and ``c`` (of ``v``'s corner) on the
        first face walk incident to ``u`` that visits ``v``."""
        seen: set[tuple[NodeId, NodeId]] = set()
        for x in self.rotation[u]:
            if (u, x) in seen:
                continue
            walk = self._face_walk((u, x))
            seen.update(walk)
            for j in range(1, len(walk)):
                if walk[j][0] == v:
                    a = walk[-1][0]  # (a, u) precedes walk[0] == (u, x)
                    c = walk[j - 1][0]  # (c, v) precedes (v, d)
                    return a, c, walk
        return None

    def delete_edge(self, u: NodeId, v: NodeId) -> PatchRecord:
        """Remove edge ``{u, v}``; merge its two faces, patch labels.

        Bridges are refused (the network must stay connected).  Deleting
        a certificate-tree edge re-hangs the orphaned subtree on a
        neighbor outside it, shifting depths and moving its tallies
        between the old and new root chains; when no such neighbor
        exists (the subtree reconnects only through deeper vertices) or
        the dirty region exceeds the threshold, the labels are rebuilt
        by the real prover instead.
        """
        if not self.graph.has_edge(u, v):
            raise ValueError(f"no such edge: {u!r}-{v!r}")
        walk_a = self._face_walk((u, v))
        if (v, u) in walk_a:
            raise ValueError(f"edge {u!r}-{v!r} is a bridge; deleting it would disconnect")
        self.stats["ops"] += 1
        self.stats["deletes"] += 1
        with maybe_span(self.tracer, "certify-delta", kind="phase", n=self.graph.num_nodes):
            if not self.incremental:
                self._remove_edge(u, v)
                return self._record_rebuild("delete", u, v, "rebuild-embed")

            walk_b = self._face_walk((v, u))
            leader_a_owner = self.certs.labels[u].darts[v].face[0]
            leader_b_owner = self.certs.labels[v].darts[u].face[0]

            # Rotation merge: drop the darts; the two walks concatenate.
            self._remove_edge(u, v)
            self.rotation[u] = tuple(x for x in self.rotation[u] if x != v)
            self.rotation[v] = tuple(x for x in self.rotation[v] if x != u)
            merged = self._face_walk(walk_a[1])
            if len(merged) != len(walk_a) + len(walk_b) - 2:  # pragma: no cover
                raise AssertionError("face merge did not conserve darts")

            # Tree analysis (before touching any label).
            child: NodeId | None = None
            if self.parent.get(u) == v:
                child = u
            elif self.parent.get(v) == u:
                child = v
            new_parent: NodeId | None = None
            sub: set[NodeId] = set()
            if child is not None:
                sub = self._subtree(child)
                outside = [w for w in self.graph.neighbors(child) if w not in sub]
                if not outside:
                    return self._record_rebuild("delete", u, v, "rebuild-cert")
                new_parent = min(outside, key=lambda w: (self.depth[w], repr(w)))

            dirty = {s for s, _ in merged} | {u, v} | sub
            dirty |= set(self._chain(u if child != u else v))
            dirty |= set(self._chain(leader_a_owner)) | set(self._chain(leader_b_owner))
            if new_parent is not None:
                dirty |= set(self._chain(new_parent))
            if len(dirty) > self._threshold():
                return self._record_rebuild("delete", u, v, "rebuild-cert")

            before = self.metrics.rounds
            sweeps = 1
            if child is not None:
                sweeps = 2  # the re-hang is an extra local exchange
                old_parent = self.parent[child]
                lab_child = self.certs.labels[child]
                triple = (
                    lab_child.subtree_vertices,
                    lab_child.subtree_degree,
                    lab_child.subtree_faces,
                )
                # Detach the subtree's tallies from the old chain...
                for a in self._chain(old_parent):
                    lab = self.certs.labels[a]
                    lab.subtree_vertices -= triple[0]
                    lab.subtree_degree -= triple[1]
                    lab.subtree_faces -= triple[2]
                # ...re-hang child under new_parent, shifting depths...
                self.children[old_parent].remove(child)
                self.children[new_parent].append(child)
                self.parent[child] = new_parent
                lab_child.parent = new_parent
                shift = self.depth[new_parent] + 1 - self.depth[child]
                for x in sub:
                    self.depth[x] += shift
                    self.certs.labels[x].depth += shift
                # ...and attach the tallies to the new chain.
                for a in self._chain(new_parent):
                    lab = self.certs.labels[a]
                    lab.subtree_vertices += triple[0]
                    lab.subtree_degree += triple[1]
                    lab.subtree_faces += triple[2]

            del self.certs.labels[u].darts[v]
            del self.certs.labels[v].darts[u]
            lm = self._relabel_walk(merged)
            leader_delta: dict[NodeId, int] = {}
            for owner, d in ((leader_a_owner, -1), (leader_b_owner, -1), (lm, +1)):
                leader_delta[owner] = leader_delta.get(owner, 0) + d
            for owner, d in leader_delta.items():
                if d:
                    self.certs.labels[owner].face_leaders += d
                    dirty |= set(self._bump(owner, df=d))
            dirty |= set(self._bump(u, dd=-1))
            dirty |= set(self._bump(v, dd=-1))
            for lab in self.certs.labels.values():
                lab.m -= 1
                lab.f -= 1
            self._charge_patch(dirty, sweeps=sweeps)
            ok, _rejections = self._verify_scoped(dirty)
            self.stats["patched"] += 1
            return PatchRecord(
                op="delete",
                u=repr(u),
                v=repr(v),
                mode="patched",
                dirty=len(dirty),
                rounds=self.metrics.rounds - before,
                accepted=ok,
            )

    # -- churn workload ----------------------------------------------------

    def _propose_insert(self, rng: random.Random) -> tuple[str, NodeId, NodeId] | None:
        nodes = self.graph.nodes()
        for _ in range(8):
            u = rng.choice(nodes)
            x = rng.choice(list(self.rotation[u]))
            walk = self._face_walk((u, x))
            candidates = sorted(
                {s for s, _ in walk if s != u and not self.graph.has_edge(u, s)}, key=repr
            )
            if candidates:
                return ("insert", u, rng.choice(candidates))
        return None

    def _propose_delete(self, rng: random.Random) -> tuple[str, NodeId, NodeId] | None:
        edges = self.graph.edges()
        if len(edges) <= self.graph.num_nodes - 1:
            return None  # a tree: everything is a bridge
        for _ in range(8):
            a, b = rng.choice(edges)
            if (b, a) not in self._face_walk((a, b)):
                return ("delete", a, b)
        return None

    def run_churn(
        self,
        count: int,
        seed: int = 0,
        p_insert: float = 0.5,
        plan: list[tuple[str, NodeId, NodeId]] | None = None,
    ) -> ChurnReport:
        """Apply ``count`` seeded mutations (or replay an explicit plan).

        The generator proposes face-chord inserts and non-bridge deletes
        against the engine's evolving state, deterministically from
        ``seed``.  Returns a :class:`ChurnReport` whose ``plan`` can be
        replayed on another engine (e.g. ``incremental=False``) for the
        differential and round comparisons.
        """
        rng = random.Random(seed)
        executed: list[tuple[str, NodeId, NodeId]] = []
        records: list[PatchRecord] = []
        ops = list(plan) if plan is not None else None
        for i in range(count if ops is None else len(ops)):
            if ops is not None:
                op = tuple(ops[i])
            else:
                op = self._propose(rng, p_insert)
                if op is None:
                    break
            kind, a, b = op
            record = self.insert_edge(a, b) if kind == "insert" else self.delete_edge(a, b)
            executed.append((kind, a, b))
            records.append(record)
        final = self._verify_full()
        return ChurnReport(
            plan=executed,
            records=records,
            incremental=self.incremental,
            final_certification=final,
            stats=dict(self.stats),
        )

    def _propose(
        self, rng: random.Random, p_insert: float
    ) -> tuple[str, NodeId, NodeId] | None:
        want_insert = rng.random() < p_insert
        for _ in range(2):
            op = self._propose_insert(rng) if want_insert else self._propose_delete(rng)
            if op is not None:
                return op
            want_insert = not want_insert
        return None

    # -- interop -----------------------------------------------------------

    def certification(self) -> CertificationReport:
        """Full verification of the current state (compact codec shim)."""
        return self._verify_full()

    def to_result(self):
        """The live state as an ``EmbeddingResult``, re-verified if an op ran since the last read."""
        from ..core.algorithm import EmbeddingResult

        if self.certified_ops != self.stats["ops"]:
            self._verify_full()
        return EmbeddingResult(
            graph=self.graph,
            rotation=dict(self.rotation),
            rotation_system=RotationSystem.trusted(self.graph, dict(self.rotation)),
            metrics=self.metrics,
            leader=self.root,
            certificates=self.certs,
            certification=self.last_certification,
            compact_certificates=self.compact,
        )
