"""The synchronous CONGEST network simulator.

Implements the model of [Pel00] as used by the paper: communication
proceeds in synchronous rounds; per round, each node may send one
``B = O(log n)``-bit message along each incident edge; local computation
is unbounded.  The simulator delivers messages with one-round latency,
enforces the bandwidth bound on every (edge, round) pair, and feeds a
:class:`~repro.congest.metrics.RoundMetrics` ledger.

Two schedulers drive the same model:

* ``"event"`` (the default) — an active-set, event-driven round loop:
  per round only the nodes with a non-empty inbox, the nodes that
  requested a wakeup (``needs_wakeup``), and unported programs
  (``event_driven = False``) are called, so the wall-clock cost of a
  round is proportional to the *work* in it (deliveries + genuinely
  active nodes) rather than Θ(n);
* ``"dense"`` — the reference loop that polls every node every round.

Both produce **identical** CONGEST semantics and metrics — the same
``rounds``, ``messages``, ``total_words``, per-phase tags, and observer
callbacks — which ``tests/congest/test_scheduler_equivalence.py``
enforces differentially.  The schedulers differ only in the
``node_activations`` they consume (the event scheduler additionally
reports the activations it *saved* versus the dense loop).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from contextlib import contextmanager
from typing import Any, Iterator

from ..obs.causal import default_causal_recorder
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
    """The scheduler new networks use when none is requested explicitly."""
    return _default_scheduler


def _validate_scheduler(name: str) -> str:
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {name!r}; options: {SCHEDULERS}")
    return name


@contextmanager
def scheduler_override(name: str) -> Iterator[None]:
    """Force every :class:`CongestNetwork` created inside the block (that
    does not pick a scheduler explicitly) onto ``name``.

    This is how the differential suite and the E15 bench run the *whole*
    embedding pipeline — which creates networks internally — under the
    dense reference scheduler.
    """
    global _default_scheduler
    _validate_scheduler(name)
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
        scheduler: str | None = None,
        faults: FaultPlan | FaultInjector | None = None,
    ) -> None:
        """Create a network.

        ``bandwidth_words`` is the per-edge per-round message budget in
        words (one word = ``ceil(log2(n+1)) + 2`` bits); the CONGEST bound
        ``B = O(log n)`` bits means a constant number of words, and the
        default constant 8 matches the slack every textbook algorithm
        assumes.  Exceeding it raises :class:`BandwidthExceededError`.

        ``scheduler`` selects the round loop: ``"event"`` (active-set,
        the default) or ``"dense"`` (poll every node every round); both
        yield identical metrics.  ``None`` uses the process default (see
        :func:`scheduler_override`).

        ``faults`` attaches a deterministic chaos schedule (a
        :class:`~repro.congest.faults.FaultPlan`, or a shared
        :class:`~repro.congest.faults.FaultInjector` when several
        networks must see one global fault clock).  ``None`` uses the
        process default (see
        :func:`~repro.congest.faults.fault_override`) — which is no
        faults, and a delivery path with zero fault-handling code.
        """
        self.graph = graph
        self.bandwidth_words = bandwidth_words
        self.metrics = metrics if metrics is not None else RoundMetrics()
        self.word_bits = word_bits(max(1, graph.num_nodes))
        self.scheduler = _validate_scheduler(
            scheduler if scheduler is not None else _default_scheduler
        )
        # Per-round observer (e.g. a repro.obs.Tracer), inherited from the
        # ledger; None means the round loop runs with no tracing code at all.
        self.observer = getattr(self.metrics, "observer", None)
        # The single shared delivery hook: BOTH scheduler loops post every
        # outbox through ``self._deliver``, so fault injection happens in
        # exactly one place and the loops stay differentially testable
        # under identical fault schedules.  Without faults the hook *is*
        # the plain fast path — no per-message fault code at all.
        if faults is None:
            injector = default_fault_injector()
        elif isinstance(faults, FaultInjector):
            injector = faults
        else:
            injector = FaultInjector(faults)
        if injector is not None:
            self._fault_state: FaultState | None = FaultState(
                injector, graph, self.observer
            )
            self._deliver = self._post_outbox_faulty
        else:
            self._fault_state = None
            self._deliver = self._post_outbox
        # Causal recorder (see repro.obs.causal): when one is installed
        # via ``causal_override``, wrap the delivery hook once, here.  An
        # unrecorded network keeps the unwrapped hook — the per-round hot
        # path carries no causal code at all.
        self._causal = default_causal_recorder()
        if self._causal is not None:
            self._deliver = self._causal.wrap_post(self._deliver)

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
        node activations the scheduler spent and — under the event-driven
        scheduler — the activations it saved versus the dense loop.
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
        loop = self._loop_dense if self.scheduler == "dense" else self._loop_event
        causal = self._causal
        if causal is not None:
            causal.begin_execution(phase)
        if fs is not None:
            fs.start_run()
        rounds_used = None
        try:
            rounds_used, activated, iterations = loop(programs, max_rounds, phase)
        finally:
            # A None rounds_used tells the recorder the execution died
            # mid-flight; the partial causal chain is still recorded.
            if causal is not None:
                causal.end_execution(rounds_used)
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

    # -- schedulers --------------------------------------------------------

    def _loop_dense(
        self,
        programs: Mapping[NodeId, NodeProgram],
        max_rounds: int,
        phase: str | None,
    ) -> tuple[int, int, int]:
        """The reference loop: every node is called every round."""
        observer = self.observer
        metrics = self.metrics
        fs = self._fault_state
        post_outbox = self._deliver
        in_flight: dict[NodeId, dict[NodeId, Any]] = {}
        rounds_used = 0
        activated = 0
        iterations = 1  # the on_start sweep

        # Round 1 sends: on_start.  Nodes inside a crash window are not
        # activated at all — a node down at round 1 never runs on_start.
        crashed = fs.crashed_at(1) if fs is not None else ()
        pending = words = max_edge = 0
        for v, program in programs.items():
            if crashed and v in crashed:
                continue
            outbox = program.on_start()
            activated += 1
            if outbox:
                c, w, me = post_outbox(v, outbox, in_flight)
                pending += c
                words += w
                if me > max_edge:
                    max_edge = me
        if pending:
            rounds_used += 1
            metrics.record_round(pending, words, max_edge)
            if observer is not None:
                observer.on_round(1, pending, words, max_edge)

        round_no = 1
        while True:
            if (
                pending == 0
                and (fs is None or fs.no_pending())
                and all(programs[v].done for v in programs)
            ):
                break
            if round_no > max_rounds:
                raise RoundLimitExceededError(
                    self._limit_diagnosis(programs, phase, round_no, max_rounds, pending)
                )
            round_no += 1
            iterations += 1
            inboxes = in_flight
            in_flight = {}
            if fs is not None:
                fs.begin_round(round_no, inboxes)
                crashed = fs.crashed_at(round_no)
            pending = words = max_edge = 0
            for v, program in programs.items():
                if crashed and v in crashed:
                    continue
                outbox = program.on_round(round_no, inboxes.get(v) or {})
                activated += 1
                if outbox:
                    c, w, me = post_outbox(v, outbox, in_flight)
                    pending += c
                    words += w
                    if me > max_edge:
                        max_edge = me
            if pending:
                # A CONGEST round bundles send + receive; an iteration in
                # which nothing is sent only consumes local computation.
                rounds_used += 1
                metrics.record_round(pending, words, max_edge)
                if observer is not None:
                    observer.on_round(round_no, pending, words, max_edge)
        return rounds_used, activated, iterations

    def _loop_event(
        self,
        programs: Mapping[NodeId, NodeProgram],
        max_rounds: int,
        phase: str | None,
    ) -> tuple[int, int, int]:
        """The active-set loop: wake only nodes with messages or requests.

        Semantic equivalence with :meth:`_loop_dense` rests on two pieces:

        * the event-driven contract (skipped calls would have been no-ops,
          see :mod:`repro.congest.node`), and
        * waking the active set in *program order* (``sorted`` by each
          node's index in ``programs``), so message posting — and hence
          every inbox's sender order — is exactly the dense loop's.

        Quiescence is tracked incrementally: an undone-counter updated
        only for nodes that were just activated (a program's ``done`` can
        only change inside its own calls), replacing the O(n) all-done
        scan; inboxes are created lazily on first delivery, replacing the
        O(n) per-round dict rebuild.
        """
        observer = self.observer
        metrics = self.metrics
        fs = self._fault_state
        post_outbox = self._deliver
        in_flight: dict[NodeId, dict[NodeId, Any]] = {}
        rounds_used = 0
        activated = 0
        iterations = 1

        order = {v: i for i, v in enumerate(programs)}
        polled = [v for v, p in programs.items() if not p.event_driven]
        wakers: set[NodeId] = set()
        done_seen: dict[NodeId, bool] = {}
        undone = 0

        # Round 1 sends: on_start (every node, like the dense loop) —
        # except nodes inside a crash window, which are never activated;
        # their done/wake state is read without running them.
        crashed = fs.crashed_at(1) if fs is not None else ()
        pending = words = max_edge = 0
        for v, program in programs.items():
            if crashed and v in crashed:
                d = program.done
                done_seen[v] = d
                if not d:
                    undone += 1
                continue
            outbox = program.on_start()
            activated += 1
            if outbox:
                c, w, me = post_outbox(v, outbox, in_flight)
                pending += c
                words += w
                if me > max_edge:
                    max_edge = me
            d = program.done
            done_seen[v] = d
            if not d:
                undone += 1
            if program.needs_wakeup:
                wakers.add(v)
        if pending:
            rounds_used += 1
            metrics.record_round(pending, words, max_edge)
            if observer is not None:
                observer.on_round(1, pending, words, max_edge)

        round_no = 1
        while True:
            if pending == 0 and undone == 0 and (fs is None or fs.no_pending()):
                break
            if round_no > max_rounds:
                raise RoundLimitExceededError(
                    self._limit_diagnosis(programs, phase, round_no, max_rounds, pending)
                )
            round_no += 1
            iterations += 1
            inboxes = in_flight
            in_flight = {}
            if fs is not None:
                # Merge due delayed frames, drop crashed receivers' inboxes,
                # and wake nodes whose crash window just ended (the dense
                # loop polls them anyway; under the event-driven contract
                # that restart poll is the only activation they need to
                # re-request attention).
                fs.begin_round(round_no, inboxes)
                crashed = fs.crashed_at(round_no)
            if wakers or polled:
                active = set(inboxes)
                active.update(wakers)
                active.update(polled)
            else:
                active = set(inboxes)
            if fs is not None:
                if fs.restarted:
                    active.update(v for v in fs.restarted if v in programs)
                if crashed:
                    active.difference_update(crashed)
            if not active:
                if fs is not None:
                    if undone == 0 and fs.no_pending():
                        # Everything already done; the last frames in
                        # flight were eaten by faults.
                        break
                    if not fs.no_pending() or fs.windows_pending():
                        # Delayed frames still maturing, or a crash window
                        # still active/ahead: let fault time advance in a
                        # silent round, exactly as the dense loop does.
                        pending = 0
                        continue
                # No messages, no wakeup requests, nothing polled — yet
                # some program is not done.  The dense loop would spin
                # silent rounds until max_rounds; fail fast instead with
                # the same exception type and a stall diagnosis.
                raise RoundLimitExceededError(
                    self._stall_diagnosis(programs, phase, round_no, undone)
                )
            pending = words = max_edge = 0
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
            if pending:
                rounds_used += 1
                metrics.record_round(pending, words, max_edge)
                if observer is not None:
                    observer.on_round(round_no, pending, words, max_edge)
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
        serving both the bandwidth check and the ledger.  Returns
        ``(messages, words, max_edge_words)``.
        """
        neighbors = self.graph._adj[sender]
        bits = self.word_bits
        bandwidth = self.bandwidth_words
        count = 0
        words = 0
        max_edge = 0
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
            box = in_flight.get(receiver)
            if box is None:
                box = in_flight[receiver] = {}
            box[sender] = payload
            count += 1
            words += w
            if w > max_edge:
                max_edge = w
        return count, words, max_edge

    def _post_outbox_faulty(
        self,
        sender: NodeId,
        outbox: Mapping[NodeId, Any],
        in_flight: dict[NodeId, dict[NodeId, Any]],
    ) -> tuple[int, int, int]:
        """The fault-schedule variant of :meth:`_post_outbox`.

        Validation, measurement, and accounting are identical — a frame
        eaten by the network still consumed its bandwidth, so dropped and
        corrupted frames count as traffic — but delivery is decided by
        :meth:`FaultState.transmit` (drop / corrupt / delay / duplicate /
        link-outage), which also classifies reliable-layer recovery
        frames for the ledger.
        """
        fs = self._fault_state
        neighbors = self.graph._adj[sender]
        bits = self.word_bits
        bandwidth = self.bandwidth_words
        count = 0
        words = 0
        max_edge = 0
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
            fs.transmit(sender, receiver, payload, w, in_flight)
            count += 1
            words += w
            if w > max_edge:
                max_edge = w
        return count, words, max_edge

    def _limit_diagnosis(
        self,
        programs: Mapping[NodeId, NodeProgram],
        phase: str | None,
        round_no: int,
        max_rounds: int,
        pending: int,
    ) -> str:
        """A RoundLimitExceededError message that says what was still running."""
        stuck = [v for v in programs if not programs[v].done]
        examples = ", ".join(repr(v) for v in sorted(stuck, key=repr)[:5])
        if len(stuck) > 5:
            examples += ", ..."
        return (
            f"no quiescence within {max_rounds} rounds"
            f" (phase={phase or '<unnamed>'}, stopped at round {round_no};"
            f" {pending} messages in flight;"
            f" {len(stuck)}/{len(programs)} programs not done"
            + (f", e.g. {examples}" if stuck else "")
            + ")"
        )

    def _stall_diagnosis(
        self,
        programs: Mapping[NodeId, NodeProgram],
        phase: str | None,
        round_no: int,
        undone: int,
    ) -> str:
        stuck = [v for v in programs if not programs[v].done]
        examples = ", ".join(repr(v) for v in sorted(stuck, key=repr)[:5])
        if len(stuck) > 5:
            examples += ", ..."
        return (
            f"event scheduler stalled at round {round_no}"
            f" (phase={phase or '<unnamed>'}): no messages in flight and no"
            f" wakeup requests, but {undone}/{len(programs)} programs not"
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
    scheduler: str | None = None,
    faults: FaultPlan | FaultInjector | None = None,
) -> dict[NodeId, Any]:
    """Convenience wrapper: instantiate one program per node and run."""
    network = CongestNetwork(
        graph,
        bandwidth_words=bandwidth_words,
        metrics=metrics,
        scheduler=scheduler,
        faults=faults,
    )
    programs = {v: factory(v, graph.neighbors(v)) for v in graph.nodes()}
    return network.run(programs, max_rounds=max_rounds, phase=phase)
