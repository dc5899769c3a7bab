"""The synchronous CONGEST network simulator.

Implements the model of [Pel00] as used by the paper: communication
proceeds in synchronous rounds; per round, each node may send one
``B = O(log n)``-bit message along each incident edge; local computation
is unbounded.  The simulator delivers messages with one-round latency,
enforces the bandwidth bound on every (edge, round) pair, and feeds a
:class:`~repro.congest.metrics.RoundMetrics` ledger.

One round loop drives the model.  Per round it calls only the nodes
that can act — those with a non-empty inbox, those that requested a
wakeup (``needs_wakeup``), those whose crash window just ended, and the
*polled* set — so the wall-clock cost of a round is proportional to the
work in it rather than Θ(n).  The scheduler name is a poll policy: it
picks the polled set and nothing else.

* ``"event"`` (the default) polls the unported programs
  (``event_driven = False``);
* ``"dense"`` polls every node every round — the reference policy.

Both produce **identical** CONGEST semantics and metrics — the same
``rounds``, ``messages``, ``total_words``, per-phase tags, and observer
callbacks — which ``tests/congest/test_scheduler_equivalence.py``
enforces differentially.  The policies differ only in how the node
activations split: ``node_activations`` (calls made) plus
``activations_saved`` (calls skipped) is the same under both, and the
dense policy skips only the nodes inside a crash window.

Recorders hear a network through one ``observer`` joined at construction
(:mod:`repro.obs.sinks`); when it is ``None`` no event code runs.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from typing import Any, Iterator

from ..obs.sinks import observer, reads_messages
from ..planar.graph import Graph, NodeId
from .errors import BandwidthExceededError, ProtocolViolationError, RoundLimitExceededError
from .faults import FaultInjector, FaultPlan, FaultState, default_fault_injector
from .message import payload_words, word_bits
from .metrics import RoundMetrics
from .node import NodeProgram

__all__ = [
    "CongestNetwork",
    "run_program",
    "SCHEDULERS",
    "default_scheduler",
    "scheduler_override",
]

SCHEDULERS = ("event", "dense")

_default_scheduler = "event"


def default_scheduler() -> str:
    """The poll policy new networks use."""
    return _default_scheduler


@contextmanager
def scheduler_override(name: str) -> Iterator[None]:
    """Run every :class:`CongestNetwork` created inside the block under
    the poll policy ``name``.

    This is how the differential suite and the E15 bench run the *whole*
    embedding pipeline — which creates networks internally — under the
    dense reference policy.
    """
    global _default_scheduler
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r}; options: {SCHEDULERS}")
    previous = _default_scheduler
    _default_scheduler = name
    try:
        yield
    finally:
        _default_scheduler = previous


class CongestNetwork:
    """A CONGEST execution environment over a fixed communication graph."""

    def __init__(
        self,
        graph: Graph,
        bandwidth_words: int = 8,
        metrics: RoundMetrics | None = None,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> None:
        """Create a network.

        ``bandwidth_words`` is the per-edge per-round message budget in
        words (one word = ``ceil(log2(n+1)) + 2`` bits); the CONGEST bound
        ``B = O(log n)`` bits means a constant number of words, and the
        default constant 8 matches the slack every textbook algorithm
        assumes.  Exceeding it raises :class:`BandwidthExceededError`.

        The poll policy is the process default at construction (see
        :func:`scheduler_override`); both policies yield identical
        metrics.

        ``faults`` attaches a deterministic chaos schedule (a
        :class:`~repro.congest.faults.FaultPlan`, or a shared
        :class:`~repro.congest.faults.FaultInjector` when several
        networks must see one global fault clock).  ``None`` uses the
        process default (see
        :func:`~repro.congest.faults.fault_override`) — which is no
        faults.
        """
        self.graph = graph
        self.bandwidth_words = bandwidth_words
        self.metrics = metrics if metrics is not None else RoundMetrics()
        self.word_bits = word_bits(max(1, graph.num_nodes))
        self.scheduler = _default_scheduler
        # The ledger's observer (e.g. a repro.obs.Tracer) and the installed
        # sinks as one; None means the round loop runs no event code at all.
        self.observer = observer(self.metrics.observer)
        if faults is None:
            injector = default_fault_injector()
        elif isinstance(faults, FaultInjector):
            injector = faults
        else:
            injector = FaultInjector(faults)
        self._fault_state: FaultState | None = (
            FaultState(injector, graph, self.observer) if injector is not None else None
        )

    @property
    def fault_stats(self):
        """The shared :class:`~repro.congest.faults.FaultStats` collector
        when a fault schedule is attached, else ``None``."""
        return self._fault_state.stats if self._fault_state is not None else None

    def run(
        self,
        programs: Mapping[NodeId, NodeProgram],
        max_rounds: int = 1_000_000,
        phase: str | None = None,
    ) -> dict[NodeId, Any]:
        """Drive ``programs`` to quiescence; return their local results.

        Termination: every program reports ``done`` and no messages are in
        flight.  The number of rounds consumed is recorded in the metrics
        ledger (and attributed to ``phase`` when given), along with the
        node activations the loop spent and the ones it saved by not
        calling every node every round.
        """
        if set(programs) != set(self.graph.nodes()):
            raise ProtocolViolationError("programs must cover exactly the graph's nodes")

        metrics = self.metrics
        messages_before = metrics.messages
        words_before = metrics.total_words
        fs = self._fault_state
        extra_bandwidth = 0
        if fs is not None and not fs.plan.is_null:
            # A lossy network needs a transport: transparently run every
            # program over the reliable ARQ layer (unless the caller
            # already wrapped them), widening the bandwidth so the ARQ
            # header never pushes a legal payload over budget.  The
            # retransmit/ack traffic this generates is what the
            # ``recovery`` ledger tag accounts.
            programs, extra_bandwidth = self._wrap_reliable(programs)
            self.bandwidth_words += extra_bandwidth
        observer = self.observer
        if observer is not None:
            observer.on_execution(phase)
        if fs is not None:
            fs.start_run()
        rounds_used = None
        try:
            rounds_used, activated, iterations = self._loop(programs, max_rounds, phase)
        finally:
            # A None rounds_used tells the sinks the execution died
            # mid-flight; a partial causal chain is still recorded.
            if observer is not None:
                observer.on_execution_end(rounds_used)
            # Advance the injector's global clock even when the execution
            # failed — a retried phase must see fresh fault draws and run
            # past any crash/outage window the failed attempt died in.
            if fs is not None:
                fs.close_run()
            if extra_bandwidth:
                self.bandwidth_words -= extra_bandwidth
        saved = len(programs) * iterations - activated
        metrics.record_activations(activated, saved)
        rec_rounds = rec_msgs = rec_words = 0
        if fs is not None:
            rec_rounds, rec_msgs, rec_words = fs.take_recovery()
        if phase is not None:
            metrics.tag_phase(
                phase,
                rounds_used - rec_rounds,
                messages=metrics.messages - messages_before - rec_msgs,
                words=metrics.total_words - words_before - rec_words,
                activations=activated,
                activations_saved=saved,
            )
            if rec_msgs:
                # Retransmit/ack traffic from the reliable layer: already
                # counted by record_round as it happened; file its
                # provenance under the dedicated recovery tag so ledger,
                # spans, and --json reports show the overhead.
                metrics.tag_phase(
                    "recovery",
                    rec_rounds,
                    messages=rec_msgs,
                    words=rec_words,
                    detail=f"reliable-delivery overhead during {phase}",
                )
        return {v: programs[v].result() for v in programs}

    def _wrap_reliable(
        self, programs: Mapping[NodeId, NodeProgram]
    ) -> tuple[Mapping[NodeId, NodeProgram], int]:
        """Wrap programs in the ARQ layer for a lossy execution.

        Returns the (possibly wrapped) programs and the extra bandwidth
        budget the ARQ header needs — zero when the caller already
        supplied :class:`~repro.congest.reliable.ReliableProgram`
        instances (e.g. via ``run_reliable``, which widens at
        construction).  Imported lazily: ``reliable`` imports this
        module.
        """
        from .reliable import RELIABLE_HEADER_WORDS, ReliableProgram

        if any(isinstance(p, ReliableProgram) for p in programs.values()):
            return programs, 0
        wrapped = {
            v: ReliableProgram(p, v, self.graph.neighbors(v))
            for v, p in programs.items()
        }
        return wrapped, RELIABLE_HEADER_WORDS

    # -- the round loop ----------------------------------------------------

    def _loop(
        self,
        programs: Mapping[NodeId, NodeProgram],
        max_rounds: int,
        phase: str | None,
    ) -> tuple[int, int, int]:
        """Run rounds to quiescence; return (rounds, activations, iterations).

        Round 1 calls ``on_start`` on every node; later rounds call
        ``on_round`` on the wake set (see the module docstring), never on
        a node inside a crash window.  The policies agree because a
        skipped call would have been a no-op (the event-driven contract,
        :mod:`repro.congest.node`) and the wake set runs in *program
        order*, so every inbox's sender order is the same under both.
        Quiescence is an undone-counter updated only for the nodes just
        activated: a program's ``done`` changes only inside its own calls.
        """
        observer = self.observer
        metrics = self.metrics
        fs = self._fault_state
        post_outbox = self._post_outbox
        if observer is not None and reads_messages(observer):
            # A sink that reads messages sees each outbox before delivery.
            on_post, deliver = observer.on_post, post_outbox

            def post_outbox(sender, outbox, in_flight):
                on_post(sender, outbox, in_flight)
                return deliver(sender, outbox, in_flight)
        in_flight: dict[NodeId, dict[NodeId, Any]] = {}
        rounds_used = activated = 0
        iterations = 1  # the on_start sweep

        order = {v: i for i, v in enumerate(programs)}
        if self.scheduler == "dense":
            polled = list(programs)
        else:
            polled = [v for v, p in programs.items() if not p.event_driven]
        wakers: set[NodeId] = set()
        done_seen: dict[NodeId, bool] = {}
        undone = 0

        # Round 1 sends: on_start on every node except those inside a
        # crash window, which are never activated; their done state is
        # read without running them.
        crashed = fs.crashed_at(1) if fs is not None else ()
        pending = words = max_edge = 0
        for v, program in programs.items():
            if not (crashed and v in crashed):
                outbox = program.on_start()
                activated += 1
                if outbox:
                    c, w, me = post_outbox(v, outbox, in_flight)
                    pending += c
                    words += w
                    if me > max_edge:
                        max_edge = me
                if program.needs_wakeup:
                    wakers.add(v)
            d = program.done
            done_seen[v] = d
            if not d:
                undone += 1

        round_no = 1
        while True:
            if pending:
                # A CONGEST round bundles send + receive; an iteration in
                # which nothing is sent only consumes local computation.
                rounds_used += 1
                metrics.record_round(pending, words, max_edge)
                if observer is not None:
                    observer.on_round(round_no, pending, words, max_edge)
            if pending == 0 and undone == 0 and (fs is None or fs.no_pending()):
                break
            if round_no > max_rounds:
                raise RoundLimitExceededError(
                    _limit_diagnosis(programs, phase, round_no, max_rounds, pending)
                )
            round_no += 1
            iterations += 1
            inboxes = in_flight
            in_flight = {}
            if fs is not None:
                # Merge due delayed frames and drop crashed receivers'
                # inboxes before the wake set is read from them.
                fs.begin_round(round_no, inboxes)
                crashed = fs.crashed_at(round_no)
            active = set(inboxes)
            active.update(wakers)
            active.update(polled)
            if fs is not None:
                # Wake nodes whose crash window just ended: that restart
                # call is the only activation an event-driven node needs
                # to re-request attention.
                if fs.restarted:
                    active.update(v for v in fs.restarted if v in programs)
                if crashed:
                    active.difference_update(crashed)
            pending = words = max_edge = 0
            if not active:
                if undone == 0 or (
                    fs is not None and (not fs.no_pending() or fs.windows_pending())
                ):
                    # A silent round: faults ate the last frames in flight
                    # of a finished run (the quiescence test ends it), or
                    # delayed frames are still maturing, or a crash window
                    # is active or ahead.
                    continue
                # No messages, no wakeup requests, nothing polled — yet
                # some program is not done.  Spinning silent rounds until
                # max_rounds would change nothing; fail fast instead with
                # the same exception type and a stall diagnosis.
                raise RoundLimitExceededError(
                    _stall_diagnosis(programs, phase, round_no)
                )
            wake = (
                list(active) if len(active) == 1
                else sorted(active, key=order.__getitem__)
            )
            for v in wake:
                program = programs[v]
                outbox = program.on_round(round_no, inboxes.get(v) or {})
                activated += 1
                if outbox:
                    c, w, me = post_outbox(v, outbox, in_flight)
                    pending += c
                    words += w
                    if me > max_edge:
                        max_edge = me
                d = program.done
                if d != done_seen[v]:
                    done_seen[v] = d
                    undone += -1 if d else 1
                if program.needs_wakeup:
                    wakers.add(v)
                else:
                    wakers.discard(v)
        return rounds_used, activated, iterations

    # -- internals -------------------------------------------------------

    def _post_outbox(
        self,
        sender: NodeId,
        outbox: Mapping[NodeId, Any],
        in_flight: dict[NodeId, dict[NodeId, Any]],
    ) -> tuple[int, int, int]:
        """Validate, measure, and deliver one node's outbox — single pass.

        Each payload is measured exactly once, directly (no cache),
        serving both the bandwidth check and the ledger.  Under a fault
        schedule, :meth:`FaultState.transmit` decides delivery (drop /
        corrupt / delay / duplicate / link-outage) and classifies
        reliable-layer recovery frames; a frame the network eats still
        consumed its bandwidth, so it counts as traffic.  Returns
        ``(messages, words, max_edge_words)``.
        """
        fs = self._fault_state
        neighbors = self.graph._adj[sender]
        bits = self.word_bits
        bandwidth = self.bandwidth_words
        count = words = max_edge = 0
        for receiver, payload in outbox.items():
            if receiver not in neighbors:
                raise ProtocolViolationError(
                    f"{sender!r} tried to send to non-neighbor {receiver!r}"
                )
            w = payload_words(payload, bits)
            if w > bandwidth:
                raise BandwidthExceededError(
                    f"{sender!r}->{receiver!r}: {w} words exceeds "
                    f"bandwidth {bandwidth}"
                )
            if fs is not None:
                fs.transmit(sender, receiver, payload, w, in_flight)
            else:
                box = in_flight.get(receiver)
                if box is None:
                    box = in_flight[receiver] = {}
                box[sender] = payload
            count += 1
            words += w
            if w > max_edge:
                max_edge = w
        return count, words, max_edge


def _not_done(programs: Mapping[NodeId, NodeProgram]) -> tuple[int, str]:
    """How many programs are not done, and up to five of them by repr."""
    stuck = sorted((v for v in programs if not programs[v].done), key=repr)
    examples = ", ".join(repr(v) for v in stuck[:5])
    return len(stuck), examples + (", ..." if len(stuck) > 5 else "")


def _limit_diagnosis(
    programs: Mapping[NodeId, NodeProgram],
    phase: str | None,
    round_no: int,
    max_rounds: int,
    pending: int,
) -> str:
    """A RoundLimitExceededError message that says what was still running."""
    stuck, examples = _not_done(programs)
    return (
        f"no quiescence within {max_rounds} rounds"
        f" (phase={phase or '<unnamed>'}, stopped at round {round_no};"
        f" {pending} messages in flight;"
        f" {stuck}/{len(programs)} programs not done"
        + (f", e.g. {examples}" if stuck else "")
        + ")"
    )


def _stall_diagnosis(
    programs: Mapping[NodeId, NodeProgram], phase: str | None, round_no: int
) -> str:
    stuck, examples = _not_done(programs)
    return (
        f"event scheduler stalled at round {round_no}"
        f" (phase={phase or '<unnamed>'}): no messages in flight and no"
        f" wakeup requests, but {stuck}/{len(programs)} programs not"
        " done — an event-driven program that needs silent rounds must"
        " keep needs_wakeup set"
        + (f"; e.g. {examples}" if stuck else "")
    )


def run_program(
    graph: Graph,
    factory: Callable[[NodeId, list[NodeId]], NodeProgram],
    bandwidth_words: int = 8,
    metrics: RoundMetrics | None = None,
    max_rounds: int = 1_000_000,
    phase: str | None = None,
    faults: FaultPlan | FaultInjector | None = None,
) -> dict[NodeId, Any]:
    """Convenience wrapper: instantiate one program per node and run."""
    network = CongestNetwork(
        graph, bandwidth_words=bandwidth_words, metrics=metrics, faults=faults
    )
    programs = {v: factory(v, graph.neighbors(v)) for v in graph.nodes()}
    return network.run(programs, max_rounds=max_rounds, phase=phase)
