"""Reliable delivery over a faulty CONGEST network.

:class:`ReliableProgram` wraps any :class:`~repro.congest.node.NodeProgram`
with a per-link ARQ layer: sequence numbers, cumulative acknowledgements,
timeout + exponential-backoff retransmission, and a configurable attempt
budget.  Under it, an inner program written for the failure-free model
sees exactly-once, in-order delivery on every link even while the fault
layer (:mod:`repro.congest.faults`) drops, duplicates, delays, and
corrupts frames around it — corrupted frames fail their CRC at the link
layer (:class:`~repro.congest.message.Message`) and simply look like
drops, which retransmission absorbs.

The ARQ window is one frame per link (stop-and-wait): CONGEST messages
are a constant number of words, so pipelining buys little, and a window
of one keeps exactly-once in-order delivery trivially auditable.  Frame
shapes (all wire-encodable tuples):

``("rdt",  seq, ack, payload)``  first transmission of ``payload``
``("rdt!", seq, ack, payload)``  retransmission (classified *recovery*)
``("rdta", ack)``                pure cumulative acknowledgement (*recovery*)

Every frame to a neighbor piggybacks the cumulative ack for that link,
so a link with traffic in both directions pays no extra ack frames.
The fault layer recognises the two recovery tags and the network charges
that traffic — and any round carrying only such traffic — to the
``recovery`` phase in the :class:`~repro.congest.metrics.RoundMetrics`
ledger, making reliability overhead a first-class, budgetable quantity.

When a frame stays unacknowledged through ``max_attempts``
retransmissions the sender raises
:class:`~repro.congest.errors.RetransmitBudgetExceededError` — the
typed give-up signal the self-healing driver converts into a retry of
the surrounding phase.

Retransmissions and the give-up are ``arq-retransmit`` / ``arq-give-up``
events on the installed sinks (:mod:`repro.obs.sinks`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping

from ..obs.sinks import observer
from ..planar.graph import Graph, NodeId
from .errors import RetransmitBudgetExceededError
from .faults import (
    RELIABLE_ACK_TAG,
    RELIABLE_DATA_TAG,
    RELIABLE_RETX_TAG,
    FaultInjector,
    FaultPlan,
)
from .metrics import RoundMetrics
from .network import CongestNetwork
from .node import NodeProgram

__all__ = ["ReliableProgram", "run_reliable", "RELIABLE_HEADER_WORDS"]

#: Extra per-frame budget the ARQ header needs: tag + seq + ack, rounded
#: up.  :func:`run_reliable` widens the network bandwidth by this much so
#: wrapping never turns a legal inner payload into a bandwidth violation.
RELIABLE_HEADER_WORDS = 4


class _Link:
    """Sender + receiver ARQ state for one directed neighbor link."""

    __slots__ = (
        "queue", "out_seq", "out_payload", "out_attempts", "out_sent_round",
        "out_rto", "next_seq", "expected", "ack_owed",
    )

    def __init__(self) -> None:
        self.queue: deque = deque()  # payloads waiting for the window
        self.out_seq = 0  # outstanding (unacked) sequence number, 0 = none
        self.out_payload: Any = None
        self.out_attempts = 0
        self.out_sent_round = 0
        self.out_rto = 0
        self.next_seq = 1  # next sequence number to assign
        self.expected = 1  # next in-order sequence number to accept
        self.ack_owed = False


class ReliableProgram(NodeProgram):
    """ARQ wrapper giving the inner program a loss-free link layer."""

    event_driven = True

    def __init__(
        self,
        inner: NodeProgram,
        node: NodeId,
        neighbors: list[NodeId],
        initial_rto: int = 4,
        backoff: float = 2.0,
        max_attempts: int = 8,
    ) -> None:
        if initial_rto < 1:
            raise ValueError("initial_rto must be >= 1 round")
        if backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.inner = inner
        self.node = node
        self.initial_rto = initial_rto
        self.backoff = backoff
        self.max_attempts = max_attempts
        self._links: dict[NodeId, _Link] = {v: _Link() for v in neighbors}
        self.retransmits = 0
        self._observer = observer()

    # -- scheduler contract ------------------------------------------------

    @property
    def done(self) -> bool:
        return self.inner.done and not self._link_work_pending()

    @property
    def needs_wakeup(self) -> bool:
        # Timers (outstanding frames) and owed acks need silent-round
        # activations; so does an inner program that asked for one.  An
        # unported inner (``event_driven = False``) expects dense-poll
        # semantics, but the wrapper hides it from the scheduler's polled
        # set — so the wrapper must request the poll on its behalf.
        return (
            self._link_work_pending()
            or self.inner.needs_wakeup
            or not self.inner.event_driven
        )

    def _link_work_pending(self) -> bool:
        for link in self._links.values():
            if link.queue or link.out_seq or link.ack_owed:
                return True
        return False

    def result(self) -> Any:
        return self.inner.result()

    # -- round processing --------------------------------------------------

    def on_start(self) -> dict[NodeId, Any]:
        self._enqueue(self.inner.on_start())
        return self._emit(1)

    def on_round(self, round_no: int, inbox: Mapping[NodeId, Any]) -> dict[NodeId, Any]:
        inner_inbox: dict[NodeId, Any] = {}
        for sender, frame in inbox.items():
            link = self._links[sender]
            tag = frame[0]
            if tag == RELIABLE_ACK_TAG:
                self._process_ack(link, frame[1])
                continue
            _, seq, ack, payload = frame
            self._process_ack(link, ack)
            if seq == link.expected:
                link.expected += 1
                link.ack_owed = True
                inner_inbox[sender] = payload
            else:
                # A duplicate (fault-layer copy, or a retransmission that
                # crossed our ack): already delivered — re-ack, drop.
                link.ack_owed = True
        inner = self.inner
        if inner_inbox or inner.needs_wakeup or not inner.event_driven:
            self._enqueue(inner.on_round(round_no, inner_inbox))
        return self._emit(round_no)

    def _process_ack(self, link: _Link, ack: int) -> None:
        if link.out_seq and ack >= link.out_seq:
            link.out_seq = 0
            link.out_payload = None

    def _enqueue(self, outbox: Mapping[NodeId, Any] | None) -> None:
        if not outbox:
            return
        for receiver, payload in outbox.items():
            self._links[receiver].queue.append(payload)

    def _emit(self, round_no: int) -> dict[NodeId, Any]:
        """One frame per link: new data, due retransmission, or pure ack."""
        out: dict[NodeId, Any] = {}
        for receiver, link in self._links.items():
            ack = link.expected - 1
            if link.out_seq == 0 and link.queue:
                link.out_seq = link.next_seq
                link.next_seq += 1
                link.out_payload = link.queue.popleft()
                link.out_attempts = 1
                link.out_sent_round = round_no
                link.out_rto = self.initial_rto
                link.ack_owed = False
                out[receiver] = (RELIABLE_DATA_TAG, link.out_seq, ack, link.out_payload)
            elif link.out_seq and round_no - link.out_sent_round >= link.out_rto:
                if link.out_attempts >= self.max_attempts:
                    error = RetransmitBudgetExceededError(
                        f"{self.node!r}->{receiver!r}: frame seq={link.out_seq}"
                        f" unacknowledged after {link.out_attempts} attempts"
                        f" (rto reached {link.out_rto} rounds)"
                    )
                    if self._observer is not None:
                        # Recorded before the raise, so a flight recorder's
                        # globally-last event matches the raised error.
                        self._observer.on_event(
                            self.node, "arq-give-up", round_no,
                            to=repr(receiver), seq=link.out_seq,
                            attempts=link.out_attempts,
                            error=type(error).__name__, message=str(error),
                        )
                    raise error
                link.out_attempts += 1
                link.out_sent_round = round_no
                link.out_rto = max(1, int(link.out_rto * self.backoff))
                link.ack_owed = False
                self.retransmits += 1
                if self._observer is not None:
                    self._observer.on_event(
                        self.node, "arq-retransmit", round_no,
                        to=repr(receiver), seq=link.out_seq,
                        attempt=link.out_attempts, rto=link.out_rto,
                    )
                out[receiver] = (RELIABLE_RETX_TAG, link.out_seq, ack, link.out_payload)
            elif link.ack_owed:
                link.ack_owed = False
                out[receiver] = (RELIABLE_ACK_TAG, ack)
        return out


def run_reliable(
    graph: Graph,
    factory: Callable[[NodeId, list[NodeId]], NodeProgram],
    bandwidth_words: int = 8,
    metrics: RoundMetrics | None = None,
    max_rounds: int = 1_000_000,
    phase: str | None = None,
    faults: FaultPlan | FaultInjector | None = None,
    initial_rto: int = 4,
    backoff: float = 2.0,
    max_attempts: int = 8,
) -> dict[NodeId, Any]:
    """Like :func:`~repro.congest.network.run_program`, but with every
    program wrapped in a :class:`ReliableProgram`.

    The network bandwidth is widened by :data:`RELIABLE_HEADER_WORDS` so
    the ARQ header never pushes a legal inner payload over budget.
    """
    network = CongestNetwork(
        graph,
        bandwidth_words=bandwidth_words + RELIABLE_HEADER_WORDS,
        metrics=metrics,
        faults=faults,
    )
    programs = {
        v: ReliableProgram(
            factory(v, graph.neighbors(v)),
            v,
            graph.neighbors(v),
            initial_rto=initial_rto,
            backoff=backoff,
            max_attempts=max_attempts,
        )
        for v in graph.nodes()
    }
    return network.run(programs, max_rounds=max_rounds, phase=phase)
