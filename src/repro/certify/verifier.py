"""The distributed certificate verifier: a real CONGEST node program.

Each node exchanges one message with each neighbor — its spanning-tree
fields plus the label of the dart pointing at that neighbor — and then
decides locally.  The scheme **accepts iff every node accepts**; a
rejection names the violated predicate.  On top of the one-exchange
decision, the verdict is announced network-wide by certificate-independent
protocols (max-ID election, BFS, AND-convergecast, broadcast), so the
whole verification runs in O(D) real rounds, all accounted in the
metrics ledger under ``certify:*`` phases.

Predicates checked at node ``v`` (names appear in rejections):

* ``rotation-permutation`` — ``v``'s claimed clockwise order is a
  permutation of its neighbors, and a dart label exists per neighbor;
* ``tree-root-claim`` / ``tree-depth`` / ``tree-parent-neighbor`` —
  the spanning-tree fields are locally consistent (the root has depth 0,
  everyone else a neighboring parent one level up);
* ``global-consistency`` — ``v`` and each neighbor agree on
  ``(root, n, m, f)``;
* ``subtree-vertex-sum`` / ``subtree-degree-sum`` / ``subtree-face-sum``
  — ``v``'s subtree tallies equal its own contribution plus its
  children's claims;
* ``face-leader-count`` / ``face-leader-dart`` / ``face-index-range`` —
  ``v``'s claimed leader count matches its index-0 out-darts, and a dart
  has index 0 exactly when it *is* the leader its face names;
* ``face-succession`` — for every in-dart ``(u, v)``, the face-tracing
  successor ``(v, w)`` (computed from ``v``'s own rotation) carries the
  same face identity and length and the next index;
* root only: ``root-vertex-total`` / ``root-degree-total`` /
  ``root-face-total`` / ``euler-formula`` (``n - m + f = 2``).

**Soundness.**  Suppose all predicates hold everywhere.  Shared root and
strictly decreasing depths make the parent pointers a spanning tree, so
the subtree sums force ``n``, ``2m`` and ``F = sum of face_leaders`` to
be the true totals.  Along any true face walk the succession predicate
forces one face identity ``X`` and indices advancing mod the claimed
length, so the walk's length is a multiple of the claim and *every*
residue — in particular 0 — is attained; each index-0 dart must equal
``X`` itself, so all index-0 positions are one and the same dart, the
claimed length equals the true length, and the walk carries exactly one
leader.  Hence ``F`` counts the true faces exactly, and the root's Euler
check decides genus 0 — i.e. planarity of the claimed rotation — with no
slack for a cheating prover.  The adversary harness
(:mod:`repro.certify.adversary`) exercises this argument mechanically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..congest.metrics import RoundMetrics
from ..congest.network import CongestNetwork
from ..congest.node import NodeProgram
from ..obs import Tracer, maybe_span
from ..planar.graph import Graph, NodeId
from ..primitives.aggregation import tree_aggregate, tree_broadcast
from ..primitives.bfs import build_bfs_tree
from ..primitives.leader import elect_leader
from .labels import CertificateSet, NodeCertificate

__all__ = [
    "Rejection",
    "CertificationReport",
    "CertVerifierProgram",
    "verify_distributed",
    "centralized_check_rounds",
]

# The exchange message is a constant number of words (ten tree fields,
# one dart label, a tag); 24 leaves slack for counters that spill into a
# second word.  Still B = O(log n) bits.
VERIFIER_BANDWIDTH_WORDS = 24


@dataclass(frozen=True)
class Rejection:
    """One node's refusal, with the predicate it saw violated."""

    node: NodeId
    predicate: str
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"node": repr(self.node), "predicate": self.predicate, "detail": self.detail}


@dataclass
class CertificationReport:
    """Outcome of one distributed verification."""

    accepted: bool
    rejections: list[Rejection]
    rounds: int  # real CONGEST rounds this verification consumed
    nodes: int
    announced_ok: bool  # the verdict the root broadcast
    announced_rejections: int
    label_words_max: int = 0
    label_words_mean: float = 0.0
    # Measured certificate sizes in *bits*: the word-label baseline when
    # verifying a plain CertificateSet, the packed blob sizes when the
    # compact codec shim (repro.certify.compact.verify_compact) ran.
    label_bits_total: int = 0
    label_bits_max: int = 0
    label_bits_mean: float = 0.0
    # Per-node codec diagnoses from the compact shim (None = no codec in
    # the path or every blob decoded).
    decode_errors: dict[str, str] | None = None

    def to_dict(self) -> dict[str, Any]:
        out = {
            "accepted": self.accepted,
            "rounds": self.rounds,
            "nodes": self.nodes,
            "announced_ok": self.announced_ok,
            "announced_rejections": self.announced_rejections,
            "label_words_max": self.label_words_max,
            "label_words_mean": round(self.label_words_mean, 2),
            "label_bits_total": self.label_bits_total,
            "label_bits_max": self.label_bits_max,
            "label_bits_mean": round(self.label_bits_mean, 2),
            "rejections": [r.to_dict() for r in self.rejections[:20]],
        }
        if self.decode_errors is not None:
            out["decode_errors"] = dict(self.decode_errors)
        return out

    def summary(self) -> str:
        if self.accepted:
            return (
                f"certification ACCEPTED by all {self.nodes} nodes "
                f"in {self.rounds} rounds "
                f"(labels <= {self.label_words_max} words/node)"
            )
        first = self.rejections[0]
        return (
            f"certification REJECTED ({len(self.rejections)} rejections) — "
            f"node {first.node!r} violated {first.predicate}: {first.detail}"
        )


class CertVerifierProgram(NodeProgram):
    """Per-node verifier: one exchange with each neighbor, then decide.

    Event-driven: everyone sends in ``on_start`` and decides when the
    last neighbor's label arrives; an empty inbox is a no-op.
    """

    event_driven = True

    def __init__(
        self,
        node_id: NodeId,
        neighbors: list[NodeId],
        label: NodeCertificate | None,
        ring: tuple[NodeId, ...],
    ) -> None:
        super().__init__(node_id, neighbors)
        self.label = label
        self.ring = tuple(ring)
        self.violations: list[tuple[str, str]] = []
        self.received: dict[NodeId, Any] = {}
        self.decided = False
        self.done = True  # quiescence-terminated

    # -- protocol ----------------------------------------------------------

    def _message_for(self, u: NodeId) -> tuple:
        dart = None
        if self.label is not None and u in self.label.darts:
            dart = self.label.darts[u].encode()
        fields = self.label.tree_fields() if self.label is not None else None
        return ("crt", fields, dart)

    def on_start(self) -> dict[NodeId, Any]:
        if not self.neighbors:
            self._decide()
            return {}
        return {u: self._message_for(u) for u in self.neighbors}

    def on_round(self, round_no: int, inbox: dict[NodeId, Any]) -> dict[NodeId, Any]:
        for u, payload in inbox.items():
            self.received[u] = payload
        if not self.decided and len(self.received) >= len(self.neighbors):
            self._decide()
        return {}

    def result(self) -> list[tuple[str, str]]:
        return list(self.violations)

    # -- the local verifier ------------------------------------------------

    def _reject(self, predicate: str, detail: str = "") -> None:
        self.violations.append((predicate, detail))

    def _decide(self) -> None:
        self.decided = True
        me = self.node_id
        L = self.label
        if L is None:
            self._reject("certificate-missing", "node holds no label")
            return

        # Rotation well-formedness: the claimed clockwise order must be a
        # permutation of the true neighbors, with one dart label each.
        ring_ok = len(self.ring) == len(self.neighbors) and set(self.ring) == set(
            self.neighbors
        ) and len(set(self.ring)) == len(self.ring)
        if not ring_ok:
            self._reject(
                "rotation-permutation",
                f"rotation {self.ring!r} is not a permutation of "
                f"{len(self.neighbors)} neighbors",
            )
        if set(L.darts) != set(self.neighbors):
            self._reject(
                "rotation-permutation",
                "dart labels do not cover exactly the incident edges",
            )

        fields: dict[NodeId, tuple] = {}
        darts_in: dict[NodeId, tuple | None] = {}
        for u in self.neighbors:
            payload = self.received.get(u)
            if (
                not isinstance(payload, tuple)
                or len(payload) != 3
                or payload[0] != "crt"
                or not isinstance(payload[1], tuple)
                or len(payload[1]) != 10
            ):
                self._reject("certificate-missing", f"no valid label from {u!r}")
                continue
            fields[u] = payload[1]
            darts_in[u] = payload[2]

        # Spanning-tree shape.
        if L.parent is None or me == L.root or L.depth == 0:
            if not (L.parent is None and me == L.root and L.depth == 0):
                self._reject(
                    "tree-root-claim",
                    f"parent={L.parent!r} depth={L.depth} root={L.root!r}",
                )
        elif L.parent not in set(self.neighbors):
            self._reject("tree-parent-neighbor", f"parent {L.parent!r} is not a neighbor")
        elif L.parent in fields and fields[L.parent][2] + 1 != L.depth:
            self._reject(
                "tree-depth",
                f"depth {L.depth} != parent depth {fields[L.parent][2]} + 1",
            )

        # Global fields must agree across every edge.
        mine = (L.root, L.n, L.m, L.f)
        for u, tf in fields.items():
            theirs = (tf[0], tf[3], tf[4], tf[5])
            if theirs != mine:
                self._reject(
                    "global-consistency",
                    f"(root, n, m, f) disagreement with {u!r}: {theirs!r} != {mine!r}",
                )

        # Subtree tallies: children are the neighbors that claim me.
        child_fields = [tf for tf in fields.values() if tf[1] == me]
        sums = tuple(
            sum(tf[i] for tf in child_fields) for i in (6, 7, 8)
        )
        for predicate, claimed, expected in (
            ("subtree-vertex-sum", L.subtree_vertices, 1 + sums[0]),
            ("subtree-degree-sum", L.subtree_degree, len(self.neighbors) + sums[1]),
            ("subtree-face-sum", L.subtree_faces, L.face_leaders + sums[2]),
        ):
            if claimed != expected:
                self._reject(predicate, f"claimed {claimed}, children imply {expected}")

        # Face labels on the out-darts.
        leader_count = 0
        for w, dart in sorted(L.darts.items(), key=lambda kv: repr(kv[0])):
            is_leader = dart.face == (me, w)
            if dart.index == 0:
                leader_count += 1
            if (dart.index == 0) != is_leader:
                self._reject(
                    "face-leader-dart",
                    f"dart {(me, w)!r} index {dart.index} vs face leader {dart.face!r}",
                )
            if not (1 <= dart.length and 0 <= dart.index < dart.length):
                self._reject(
                    "face-index-range",
                    f"dart {(me, w)!r} index {dart.index} outside face length {dart.length}",
                )
        # An isolated node (only in a one-node network) owns the sphere face.
        expected_leaders = leader_count + (1 if not self.neighbors else 0)
        if L.face_leaders != expected_leaders:
            self._reject(
                "face-leader-count",
                f"claimed {L.face_leaders} leaders, darts show {expected_leaders}",
            )

        # Face succession: the successor of in-dart (u, me) is (me, w) with
        # w the neighbor clockwise-after u in my own rotation.
        if ring_ok and self.ring:
            position = {u: i for i, u in enumerate(self.ring)}
            for u, dart_in in darts_in.items():
                if dart_in is None or not isinstance(dart_in, tuple) or len(dart_in) != 4:
                    self._reject("face-succession", f"no dart label on edge from {u!r}")
                    continue
                in_face, in_len, in_idx = (dart_in[0], dart_in[1]), dart_in[2], dart_in[3]
                w = self.ring[(position[u] + 1) % len(self.ring)]
                succ = L.darts.get(w)
                if succ is None:
                    continue  # already rejected by rotation-permutation
                if in_len <= 0:
                    continue  # sender's own face-index-range check fires
                if (
                    succ.face != in_face
                    or succ.length != in_len
                    or succ.index != (in_idx + 1) % in_len
                ):
                    self._reject(
                        "face-succession",
                        f"dart {(u, me)!r} (face {in_face!r}, idx {in_idx}) is not "
                        f"followed by {(me, w)!r} "
                        f"(face {succ.face!r}, idx {succ.index})",
                    )

        # Root-anchored totals: only the root can close the Euler formula.
        if L.parent is None and me == L.root:
            for predicate, ok, detail in (
                (
                    "root-vertex-total",
                    L.subtree_vertices == L.n,
                    f"subtree vertices {L.subtree_vertices} != n {L.n}",
                ),
                (
                    "root-degree-total",
                    L.subtree_degree == 2 * L.m,
                    f"subtree degree {L.subtree_degree} != 2m {2 * L.m}",
                ),
                (
                    "root-face-total",
                    L.subtree_faces == L.f,
                    f"subtree faces {L.subtree_faces} != f {L.f}",
                ),
                (
                    "euler-formula",
                    L.n - L.m + L.f == 2,
                    f"V - E + F = {L.n} - {L.m} + {L.f} = {L.n - L.m + L.f} != 2",
                ),
            ):
                if not ok:
                    self._reject(predicate, detail)


def verify_distributed(
    graph: Graph,
    rotation: Mapping[NodeId, Sequence[NodeId]],
    certificates: CertificateSet,
    metrics: RoundMetrics | None = None,
    tracer: Tracer | None = None,
    bandwidth_words: int = VERIFIER_BANDWIDTH_WORDS,
) -> CertificationReport:
    """Run the distributed verifier; O(D) real rounds, every cost ledgered.

    ``rotation`` is the claimed per-vertex clockwise order (the
    ``EmbeddingResult.rotation`` mapping — possibly tampered, hence a
    plain mapping rather than a validated :class:`RotationSystem`).
    Returns a :class:`CertificationReport`; the scheme accepts iff every
    node accepts, and the verdict is also announced network-wide by
    certificate-independent election/BFS/convergecast so no faith in the
    (untrusted) certificate tree is needed to aggregate it.
    """
    ledger = metrics if metrics is not None else RoundMetrics()
    if tracer is not None and ledger.observer is None:
        ledger.observer = tracer
    before = ledger.rounds
    with maybe_span(tracer, "certify-verify", kind="phase", n=graph.num_nodes):
        network = CongestNetwork(graph, bandwidth_words=bandwidth_words, metrics=ledger)
        programs = {
            v: CertVerifierProgram(
                v,
                graph.neighbors(v),
                certificates.labels.get(v),
                tuple(rotation.get(v, ())),
            )
            for v in graph.nodes()
        }
        results = network.run(programs, phase="certify:exchange")
        rejections = [
            Rejection(v, predicate, detail)
            for v in sorted(results, key=repr)
            for predicate, detail in results[v]
        ]

        # Network-wide verdict in O(D): election + BFS + AND-convergecast
        # + broadcast, none of which trusts the certificates.
        if graph.num_nodes > 1:
            leader = elect_leader(graph, metrics=ledger, phase="certify:verdict")
            tree = build_bfs_tree(graph, leader, metrics=ledger, phase="certify:verdict")
            verdicts = tree_aggregate(
                graph,
                tree.parent,
                tree.children,
                {v: (int(not results[v]), len(results[v])) for v in graph.nodes()},
                lambda items: (
                    int(all(ok for ok, _ in items)),
                    sum(cnt for _, cnt in items),
                ),
                metrics=ledger,
                phase="certify:verdict",
            )
            announced_ok, announced_rejections = verdicts[leader][0]
            tree_broadcast(
                graph,
                tree.parent,
                tree.children,
                (announced_ok, announced_rejections),
                metrics=ledger,
                phase="certify:verdict",
            )
        else:
            announced_ok = int(not rejections)
            announced_rejections = len(rejections)

    sizes = certificates.size_summary()
    return CertificationReport(
        accepted=not rejections,
        rejections=rejections,
        rounds=ledger.rounds - before,
        nodes=graph.num_nodes,
        announced_ok=bool(announced_ok),
        announced_rejections=announced_rejections,
        label_words_max=sizes["words_max"],
        label_words_mean=sizes["words_mean"],
        label_bits_total=sizes["bits_total"],
        label_bits_max=sizes["bits_max"],
        label_bits_mean=sizes["bits_mean"],
    )


def centralized_check_rounds(
    graph: Graph, bandwidth_words: int = 1, metrics: RoundMetrics | None = None
) -> RoundMetrics:
    """Round cost of the footnote-2 style *gather-and-check* baseline.

    Every node ships its rotation (1 + deg(v) words) to an elected root
    over a BFS tree; the root re-runs the centralized Euler referee and
    broadcasts the verdict.  Election and BFS are real executions; the
    gather is charged with the exact pipelined bottleneck formula also
    used by :func:`repro.core.baseline.trivial_baseline_embedding` —
    Θ(n) rounds on planar graphs however the tree is shaped.  E14 races
    the O(D) distributed verifier against this.
    """
    ledger = metrics if metrics is not None else RoundMetrics()
    if graph.num_nodes <= 1:
        return ledger
    leader = elect_leader(graph, metrics=ledger, phase="certify:baseline")
    tree = build_bfs_tree(graph, leader, metrics=ledger, phase="certify:baseline")

    words_of = {v: 1 + graph.degree(v) for v in graph.nodes()}
    totals: dict[NodeId, int] = {}
    order = sorted(tree.depth_of, key=lambda v: -tree.depth_of[v])
    for v in order:
        totals[v] = words_of[v] + sum(totals[c] for c in tree.children.get(v, ()))
    bottleneck = max((totals[c] for c in tree.children.get(leader, ())), default=0)
    gather_rounds = tree.depth + math.ceil(bottleneck / bandwidth_words)
    ledger.charge(
        "certify:baseline",
        gather_rounds,
        words=sum(words_of.values()),
        detail=f"gather {sum(words_of.values())} rotation words to root",
    )
    ledger.charge(
        "certify:baseline", tree.depth, words=graph.num_nodes, detail="verdict broadcast"
    )
    return ledger
