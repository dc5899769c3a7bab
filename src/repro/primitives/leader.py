"""Leader election by max-ID flooding.

The paper picks the starting vertex ``s*`` of the embedding as "the
vertex with the largest ID, which can be computed in O(D) rounds"
(Section 4).  Each node floods the best identifier it has seen and
forwards improvements only, so the execution quiesces after exactly
``ecc(s*)`` rounds — the simulator's emergent round count is the real
flooding time, not an asserted bound.

Two executions of the same protocol:

* :class:`MaxIdFloodProgram` under the CONGEST simulator — the
  reference, and the only path under the dense scheduler, fault
  injection, or causal recording;
* :func:`_fast_flood` — a closed-form replay of exactly what the event
  scheduler would do with those programs.  Flooding is the one phase
  whose per-round behavior is a pure function of the frontier (receive
  max, forward on improvement), so the ledger — rounds, messages,
  words, max edge load, activations, saved activations, phase tags,
  and observer callbacks — can be emitted without instantiating n
  programs or shuffling per-edge inboxes.  It is a large
  constant-factor win: under the simulator, leader election was ~40%
  of a grid run's wall clock (measured in E20), all of it serial.

``tests/primitives/test_leader_fast_path.py`` proves both paths emit
bit-identical ledgers differentially.
"""

from __future__ import annotations

from typing import Any

from ..congest.message import payload_words, word_bits
from ..congest.metrics import RoundMetrics
from ..congest.network import default_scheduler, run_program
from ..congest.node import NodeProgram
from ..obs.causal import default_causal_recorder
from ..planar.graph import Graph, NodeId

__all__ = ["MaxIdFloodProgram", "elect_leader"]

# run_program's default per-edge word budget; ids wider than this (never
# the library's own node ids) must go through the real simulator so the
# bandwidth check raises from the genuine send site.
_BANDWIDTH_WORDS = 8

_FALLBACK = object()  # _fast_flood sentinel: use the simulator


class MaxIdFloodProgram(NodeProgram):
    """Track and forward the largest node ID seen so far.

    Event-driven: forwarding happens only on improvement, and an
    improvement needs an incoming candidate — an empty inbox is a no-op,
    so only the expanding improvement frontier is ever woken.
    """

    event_driven = True

    def __init__(self, node_id: NodeId, neighbors: list[NodeId]) -> None:
        super().__init__(node_id, neighbors)
        self.best = node_id
        self.done = True  # quiescence-terminated

    def on_start(self) -> dict[NodeId, Any]:
        return {u: self.best for u in self.neighbors}

    def on_round(self, round_no: int, inbox: dict[NodeId, Any]) -> dict[NodeId, Any]:
        improved = False
        for candidate in inbox.values():
            if candidate > self.best:
                self.best = candidate
                improved = True
        if improved:
            return {u: self.best for u in self.neighbors}
        return {}

    def result(self) -> NodeId:
        return self.best


def _fast_flood(graph: Graph, metrics: RoundMetrics | None, phase: str | None):
    """Replay the event scheduler's execution of the flood, exactly.

    Emits the same ``record_round`` / ``record_activations`` /
    ``tag_phase`` / ``observer.on_round`` sequence the simulator would:
    round 1 is every node's ``on_start`` broadcast; each later pass
    wakes exactly the message receivers, and the improved ones
    rebroadcast.  An iteration that sends nothing consumes no round —
    it is the quiescence check — but its activations still count.

    Returns the leader, or :data:`_FALLBACK` when an ID exceeds the
    simulator's bandwidth budget (the simulator must raise that).
    """
    adj = graph._adj
    n = len(adj)
    bits = word_bits(max(1, n))
    # Pre-flight the bandwidth check so a fallback never half-records.
    for v in adj:
        if adj[v] and payload_words(v, bits) > _BANDWIDTH_WORDS:
            return _FALLBACK
    if metrics is None:
        metrics = RoundMetrics()
    observer = getattr(metrics, "observer", None)
    messages_before = metrics.messages
    words_before = metrics.total_words

    best = dict.fromkeys(adj)  # preserves node order
    recv: dict[NodeId, Any] = {}
    # Round 1: on_start — every node offers its own id on every edge.
    pending = words = max_edge = 0
    activated = n
    iterations = 1
    for v in adj:
        best[v] = v
        deg = len(adj[v])
        if not deg:
            continue
        w = payload_words(v, bits)
        pending += deg
        words += deg * w
        if w > max_edge:
            max_edge = w
        for u in adj[v]:
            c = recv.get(u)
            if c is None or v > c:
                recv[u] = v
    rounds_used = 0
    if pending:
        rounds_used = 1
        metrics.record_round(pending, words, max_edge)
        if observer is not None:
            observer.on_round(1, pending, words, max_edge)

    round_no = 1
    while pending:
        round_no += 1
        iterations += 1
        activated += len(recv)  # the event loop wakes every receiver
        pending = words = max_edge = 0
        new_recv: dict[NodeId, Any] = {}
        for u, cand in recv.items():
            if cand <= best[u]:
                continue
            best[u] = cand
            w = payload_words(cand, bits)
            deg = len(adj[u])
            pending += deg
            words += deg * w
            if w > max_edge:
                max_edge = w
            for x in adj[u]:
                c = new_recv.get(x)
                if c is None or cand > c:
                    new_recv[x] = cand
        recv = new_recv
        if pending:
            rounds_used += 1
            metrics.record_round(pending, words, max_edge)
            if observer is not None:
                observer.on_round(round_no, pending, words, max_edge)

    saved = n * iterations - activated
    metrics.record_activations(activated, saved)
    if phase is not None:
        metrics.tag_phase(
            phase,
            rounds_used,
            messages=metrics.messages - messages_before,
            words=metrics.total_words - words_before,
            activations=activated,
            activations_saved=saved,
        )
    (leader,) = set(best.values())
    return leader


def elect_leader(
    graph: Graph, metrics: RoundMetrics | None = None, phase: str = "leader-election"
) -> NodeId:
    """Elect the max-ID node of a connected graph; O(D) real rounds.

    Uses the closed-form flood replay whenever the ambient configuration
    matches what it models — the event scheduler with no fault injector
    and no causal recorder — and the full simulator otherwise.  Both
    emit bit-identical ledgers.
    """
    if graph.num_nodes == 0:
        raise ValueError("cannot elect a leader of an empty graph")
    if default_scheduler() == "event" and default_causal_recorder() is None:
        from ..congest.faults import default_fault_injector

        if default_fault_injector() is None:
            leader = _fast_flood(graph, metrics, phase)
            if leader is not _FALLBACK:
                return leader
    results = run_program(graph, MaxIdFloodProgram, metrics=metrics, phase=phase)
    (leader,) = set(results.values())
    return leader
