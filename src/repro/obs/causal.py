"""Message-level causal tracing: Lamport clocks and the critical path.

The paper's headline claim bounds the number of CONGEST *rounds*, and a
round elapses because some chain of messages forces it to: message m2
causally depends on m1 when m2's sender received m1 (or an ancestor of
m1) before sending.  The longest such chain — the **critical path** —
is the quantity the O(D·log n) analysis actually bounds, so this module
makes it measurable.

A :class:`CausalRecorder` is a :class:`~repro.obs.sinks.Sink` that
reads every posted outbox (``on_post``, called by the round loop before
it delivers the outbox) and maintains one Lamport chain-clock per node:

* **send**: a frame posted by ``v`` carries stamp ``L[v] + 1``;
* **receive**: at the next round boundary the receiver merges
  ``L[u] = max(L[u], stamp)`` over everything delivered to it.

The clock therefore counts *message hops*, so the maximum stamp reached
in one network execution is the length of the longest happens-before
chain.  Because stamps are assigned from the post-merge clock of the
sending round, the maximum can grow by at most one per round that
carries traffic — hence ``critical_path <= real message rounds``
structurally, under either poll policy, with or without a fault schedule.
On a fault-free run of a receive-driven protocol (flooding,
convergecast, broadcast — everything the pipeline's primitives are)
every round's frontier extends a maximal chain, so equality holds and
is asserted by ``tests/obs/test_causal.py`` and the E18 bench.

Round boundaries need no callback of their own: the round loop
allocates a fresh in-flight dict per round and the previous
round's dict is still referenced (as the inbox map) while the next one
is allocated, so consecutive rounds can never reuse an ``id`` — a
change of in-flight dict identity in ``on_post`` *is* the round
boundary.

Install a recorder with :func:`~repro.obs.sinks.observe` and every
network created inside the block records into it; the embedding driver
puts its report on ``EmbeddingResult.causal``.  A network with no sink
that reads messages posts its outboxes directly — the per-round hot
path of an unrecorded run executes no causal code at all.
"""

from __future__ import annotations

from typing import Any

from .sinks import Sink

__all__ = ["CausalRecorder"]


class _ExecState:
    """Clock state for one network execution (one ``CongestNetwork.run``)."""

    __slots__ = (
        "phase", "clock", "link", "pending", "inflight_id", "send_rounds",
        "messages",
    )

    def __init__(self, phase: str | None) -> None:
        self.phase = phase
        self.clock: dict[Any, int] = {}  # node -> merged Lamport chain length
        # node -> (node, stamp, round, parent link): a persistent list
        # snapshotted at *send* time, so walking parents is a true
        # happens-before chain (final clocks keep growing; these don't).
        self.link: dict[Any, tuple] = {}
        # receiver -> (stamp, sender, sender's link at send time)
        self.pending: dict[Any, tuple[int, Any, tuple | None]] = {}
        self.inflight_id: int | None = None
        self.send_rounds = 0  # distinct in-flight dicts seen = rounds with traffic
        self.messages = 0

    def merge_pending(self) -> None:
        clock = self.clock
        link = self.link
        for v, (stamp, sender, parent) in self.pending.items():
            if stamp > clock.get(v, 0):
                clock[v] = stamp
                link[v] = (v, stamp, self.send_rounds, parent)
        self.pending.clear()

    def critical_path(self) -> int:
        self.merge_pending()
        return max(self.clock.values(), default=0)


class CausalRecorder(Sink):
    """Observes every delivered frame and computes per-phase critical paths.

    ``max_edges`` bounds the retained happens-before edge sample (the
    raw material for the Perfetto causal lanes); everything beyond the
    cap is still *counted* (``edges_total``) so the report never
    pretends a truncated sample is complete.  ``max_chain`` bounds the
    reconstructed critical-path witness chain.
    """

    def __init__(self, max_edges: int = 4096, max_chain: int = 256) -> None:
        self.max_edges = max_edges
        self.max_chain = max_chain
        self.executions: list[dict[str, Any]] = []
        self.edges: list[dict[str, Any]] = []  # bounded happens-before sample
        self.edges_total = 0
        self.longest: dict[str, Any] | None = None  # deepest execution + witness
        self._exec: _ExecState | None = None
        self._exec_index = 0

    # -- Sink protocol -----------------------------------------------------

    def on_execution(self, phase: str | None) -> None:
        """One ``CongestNetwork.run`` is starting (called by the network)."""
        self._exec = _ExecState(phase)
        self._exec_index += 1

    def on_execution_end(self, rounds_used: int | None) -> None:
        """The execution finished (``rounds_used`` is ``None`` when it
        died in an error — the partial chain is still recorded)."""
        st = self._exec
        self._exec = None
        if st is None:
            return
        critical = st.critical_path()
        record = {
            "index": self._exec_index,
            "phase": st.phase,
            "rounds": rounds_used,
            "send_rounds": st.send_rounds,
            "critical_path": critical,
            "messages": st.messages,
        }
        self.executions.append(record)
        if critical and (self.longest is None or critical > self.longest["critical_path"]):
            self.longest = dict(record)
            self.longest["chain"] = self._witness_chain(st)

    def _witness_chain(self, st: _ExecState) -> list[dict[str, Any]]:
        """Walk the send-time link snapshots back from the deepest node:
        a true happens-before chain, stamps decreasing by exactly one per
        hop (final clocks keep growing after a send; the snapshots don't)."""
        if not st.clock:
            return []
        node = max(st.clock, key=lambda v: (st.clock[v], repr(v)))
        cur = st.link.get(node)
        chain: list[dict[str, Any]] = []
        while cur is not None and len(chain) < self.max_chain:
            v, stamp, round_no, parent = cur
            chain.append({"node": repr(v), "stamp": stamp, "round": round_no})
            cur = parent
        chain.reverse()
        return chain

    def on_post(self, sender, outbox, in_flight) -> None:
        """One outbox is being posted: stamp its frames and sample edges
        (``CongestNetwork.run`` opened the execution before any post)."""
        st = self._exec
        fid = id(in_flight)
        if fid != st.inflight_id:
            # New in-flight dict = new round: everything delivered into
            # the previous dict is now readable by its receivers.
            st.inflight_id = fid
            st.send_rounds += 1
            st.merge_pending()
        stamp = st.clock.get(sender, 0) + 1
        parent = st.link.get(sender)  # the sender's chain, frozen at send time
        round_no = st.send_rounds
        pending = st.pending
        st.messages += len(outbox)
        for receiver in outbox:
            prev = pending.get(receiver)
            if prev is None or stamp > prev[0]:
                pending[receiver] = (stamp, sender, parent)
            self.edges_total += 1
            if len(self.edges) < self.max_edges:
                self.edges.append({
                    "execution": self._exec_index,
                    "phase": st.phase,
                    "round": round_no,
                    "sender": repr(sender),
                    "receiver": repr(receiver),
                    "stamp": stamp,
                })

    # -- reporting ---------------------------------------------------------

    def phase_summary(self) -> dict[str, dict[str, int]]:
        """Per-phase totals: executions, real send-rounds, critical path.

        Sequential executions of one phase sum — the same *work view* as
        :func:`repro.analysis.render_phase_timeline` (parallel branches
        sum too, so per-phase critical path is comparable to per-phase
        real rounds, not to the ledger's parallel-max clock).
        """
        out: dict[str, dict[str, int]] = {}
        for rec in self.executions:
            phase = rec["phase"] or "<unnamed>"
            row = out.setdefault(
                phase,
                {"executions": 0, "rounds": 0, "critical_path": 0, "messages": 0},
            )
            row["executions"] += 1
            row["rounds"] += rec["rounds"] or 0
            row["critical_path"] += rec["critical_path"]
            row["messages"] += rec["messages"]
        return out

    def total_rounds(self) -> int:
        """Real message rounds across all recorded executions (sum)."""
        return sum(rec["rounds"] or 0 for rec in self.executions)

    def total_critical_path(self) -> int:
        """Critical-path length across all recorded executions (sum —
        sequential executions chain causally through the driver)."""
        return sum(rec["critical_path"] for rec in self.executions)

    def report(self, include_edges: bool = False) -> dict[str, Any]:
        """The JSON-ready causal report (lands on ``EmbeddingResult.causal``
        and in ``--json``)."""
        out = {
            "type": "causal-report",
            "executions": len(self.executions),
            "real_rounds": self.total_rounds(),
            "critical_path": self.total_critical_path(),
            "phases": self.phase_summary(),
            "edges_sampled": len(self.edges),
            "edges_total": self.edges_total,
            "longest": self.longest,
        }
        if include_edges:
            out["edges"] = list(self.edges)
        return out
