"""Deterministic fault injection for the CONGEST simulator.

Production networks drop, duplicate, delay, and corrupt messages, and
crash nodes — none of which the failure-free CONGEST model of the paper
admits.  This module is the chaos layer: a seeded :class:`FaultPlan`
describes an adversarial schedule, and a per-network :class:`FaultState`
applies it at the simulator's **single delivery hook**
(``CongestNetwork._post_outbox``), so the dense and event poll policies
stay differentially testable under identical fault schedules.

Determinism is the design center: every fault decision is a pure hash
of ``(seed, kind, global round, sender, receiver)`` — no module-level
``random``, no RNG stream whose draws depend on iteration order — so

* the same seed replays the same faults, message for message, under
  either policy (their message streams are identical by construction);
* re-running a failed phase sees *different* draws, because fault time
  is **global**: a :class:`FaultInjector` threads one monotone round
  clock through every network an execution creates.  Crash windows and
  link outages are intervals on that global clock, so a retry launched
  after an outage ends runs clean — exactly how a production incident
  behaves, and what makes certificate-driven self-healing converge.

Fault classes (all opt-in, all zero by default):

``drop_rate``
    each transmitted frame is lost independently;
``duplicate_rate``
    a second copy of the frame is delivered one or more rounds later
    (same-round duplication is impossible in CONGEST — one message per
    edge per round);
``delay_rate`` / ``max_delay``
    the frame arrives 1..``max_delay`` rounds late (late frames from
    the same sender reorder behind fresher ones);
``corruption_rate``
    the frame's wire bytes (see :class:`repro.congest.message.Message`)
    suffer a bit flip; CRC-32 catches every single-bit error, so the
    receiving link layer drops the frame and counts the detection;
``crash_count`` / ``crashes``
    a node is down for a window of global rounds: it is never
    activated, sends nothing, and frames addressed to it are lost;
``link_outage_count`` / ``link_outages``
    an edge drops every frame in both directions for a window.

Messages lost to faults still consumed bandwidth: the ledger counts
them as transmitted (the network paid for them), and the round they
were sent in is a real round.  Retransmission traffic from
:mod:`repro.congest.reliable` is classified by its frame tags and
charged to the ``recovery`` phase so the ledger shows the overhead.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Iterator

from .errors import FaultSpecError, MessageCorruptionError
from .message import Message, flip_bit

__all__ = [
    "CrashWindow",
    "LinkOutage",
    "FaultPlan",
    "FaultStats",
    "FaultInjector",
    "FaultState",
    "fault_override",
    "default_fault_injector",
    "RELIABLE_DATA_TAG",
    "RELIABLE_RETX_TAG",
    "RELIABLE_ACK_TAG",
]

#: Frame tags of the reliable-delivery layer (:mod:`repro.congest.reliable`).
#: Defined here so the delivery hook can classify recovery traffic without
#: importing ``reliable`` (which imports the network — cycle).
RELIABLE_DATA_TAG = "rdt"
RELIABLE_RETX_TAG = "rdt!"
RELIABLE_ACK_TAG = "rdta"

_RECOVERY_TAGS = frozenset((RELIABLE_RETX_TAG, RELIABLE_ACK_TAG))


def _unit(seed: int, *key: Any) -> float:
    """A deterministic uniform draw in [0, 1) from ``(seed, *key)``.

    CRC-32 over the ``repr`` of the key tuple: stable across processes
    (unlike ``hash``, which is salted) and independent of evaluation
    order (unlike a shared RNG stream).
    """
    digest = zlib.crc32(repr((seed, key)).encode("utf-8", "backslashreplace"))
    return digest / 4294967296.0


@dataclass(frozen=True)
class CrashWindow:
    """Node down for global rounds ``start <= r < stop``.

    ``node`` may be an explicit node ID (applied only on networks that
    contain it) or ``None`` for an auto window, whose victim is chosen
    deterministically per network by seed hash.
    """

    start: int
    stop: int
    node: Any = None

    def __post_init__(self) -> None:
        if not (0 < self.start < self.stop):
            raise FaultSpecError(f"bad crash window [{self.start}, {self.stop})")


@dataclass(frozen=True)
class LinkOutage:
    """Edge dead (both directions) for global rounds ``start <= r < stop``."""

    start: int
    stop: int
    u: Any = None
    v: Any = None

    def __post_init__(self) -> None:
        if not (0 < self.start < self.stop):
            raise FaultSpecError(f"bad link outage [{self.start}, {self.stop})")
        if (self.u is None) != (self.v is None):
            raise FaultSpecError("a link outage names both endpoints or neither")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic fault schedule.

    The default-constructed plan is *null*: no faults, but running under
    it still activates the fault-aware delivery hook (which is how
    reliable-delivery ``recovery`` traffic gets its ledger attribution
    even on a clean network).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 3
    corruption_rate: float = 0.0
    crash_count: int = 0
    crash_length: int = 5
    crash_horizon: int = 24  # auto crash windows start in [2, 2 + horizon)
    crashes: tuple[CrashWindow, ...] = ()
    link_outage_count: int = 0
    link_outage_length: int = 6
    link_outages: tuple[LinkOutage, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate", "corruption_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate <= 1.0):
                raise FaultSpecError(f"{name}={rate} outside [0, 1]")
        if self.max_delay < 1:
            raise FaultSpecError("max_delay must be >= 1")
        if min(self.crash_count, self.crash_length, self.link_outage_count,
               self.link_outage_length, self.crash_horizon) < 0:
            raise FaultSpecError("counts and lengths must be non-negative")

    @property
    def is_null(self) -> bool:
        return (
            self.drop_rate == self.duplicate_rate == self.delay_rate
            == self.corruption_rate == 0.0
            and not self.crash_count and not self.crashes
            and not self.link_outage_count and not self.link_outages
        )

    def reseed(self, salt: int) -> "FaultPlan":
        """A plan with a derived seed — used for per-attempt variation."""
        return replace(self, seed=self.seed * 1_000_003 + salt)

    def all_windows(self) -> tuple[tuple[CrashWindow, ...], tuple[LinkOutage, ...]]:
        """Explicit windows plus the seeded auto windows, resolved on the
        global clock (victims stay per-network)."""
        crashes = list(self.crashes)
        for i in range(self.crash_count):
            start = 2 + int(_unit(self.seed, "crash-start", i) * max(1, self.crash_horizon))
            crashes.append(CrashWindow(start=start, stop=start + self.crash_length))
        outages = list(self.link_outages)
        for i in range(self.link_outage_count):
            start = 2 + int(_unit(self.seed, "link-start", i) * max(1, self.crash_horizon))
            outages.append(LinkOutage(start=start, stop=start + self.link_outage_length))
        return tuple(crashes), tuple(outages)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI fault spec, e.g.
        ``"drop=0.05,dup=0.01,delay=0.1:2,corrupt=0.02,crash=2:5,link=1:6"``.

        ``delay`` takes ``rate[:max_delay]``; ``crash`` and ``link`` take
        ``count[:length]``.  ``seed=N`` inside the spec overrides the
        ``seed`` argument (which the CLI wires to ``--fault-seed``).
        """
        kwargs: dict[str, Any] = {"seed": seed}
        if spec.strip():
            for item in spec.split(","):
                if "=" not in item:
                    raise FaultSpecError(f"bad fault spec item {item!r} (expected key=value)")
                key, _, value = item.partition("=")
                key = key.strip().lower()
                value = value.strip()
                try:
                    if key == "drop":
                        kwargs["drop_rate"] = float(value)
                    elif key in ("dup", "duplicate"):
                        kwargs["duplicate_rate"] = float(value)
                    elif key == "corrupt":
                        kwargs["corruption_rate"] = float(value)
                    elif key == "delay":
                        rate, _, cap = value.partition(":")
                        kwargs["delay_rate"] = float(rate)
                        if cap:
                            kwargs["max_delay"] = int(cap)
                    elif key == "crash":
                        count, _, length = value.partition(":")
                        kwargs["crash_count"] = int(count)
                        if length:
                            kwargs["crash_length"] = int(length)
                    elif key == "link":
                        count, _, length = value.partition(":")
                        kwargs["link_outage_count"] = int(count)
                        if length:
                            kwargs["link_outage_length"] = int(length)
                    elif key == "seed":
                        kwargs["seed"] = int(value)
                    else:
                        raise FaultSpecError(
                            f"unknown fault class {key!r}; options: "
                            "drop, dup, delay, corrupt, crash, link, seed"
                        )
                except ValueError as exc:
                    raise FaultSpecError(f"bad value in fault spec item {item!r}: {exc}") from exc
        return cls(**kwargs)

    def describe(self) -> str:
        if self.is_null:
            return "no faults (null plan)"
        parts = []
        for label, rate in (
            ("drop", self.drop_rate),
            ("dup", self.duplicate_rate),
            ("corrupt", self.corruption_rate),
        ):
            if rate:
                parts.append(f"{label}={rate:g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}x{self.max_delay}")
        crashes, outages = len(self.crashes) + self.crash_count, (
            len(self.link_outages) + self.link_outage_count
        )
        if crashes:
            parts.append(f"crash-windows={crashes}")
        if outages:
            parts.append(f"link-outages={outages}")
        return f"seed={self.seed} " + " ".join(parts)


@dataclass
class FaultStats:
    """Everything the chaos layer did to one execution (or one injector's
    whole lifetime — the self-healing driver shares a collector across
    every network it creates)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    link_dropped: int = 0
    corrupted: int = 0
    corruption_detected: int = 0  # CRC caught it; frame discarded
    corruption_delivered: int = 0  # decoded despite the flip (never, with CRC-32)
    duplicated: int = 0
    delayed: int = 0
    delay_collisions: int = 0  # late frame bumped again: slot already taken
    crash_node_rounds: int = 0  # node-rounds spent inside crash windows
    crash_inbox_drops: int = 0  # frames lost because the receiver was down
    recovery_messages: int = 0
    recovery_words: int = 0
    recovery_rounds: int = 0  # rounds carrying only retransmit/ack traffic

    @property
    def faults_injected(self) -> int:
        return (
            self.dropped + self.link_dropped + self.corrupted + self.duplicated
            + self.delayed + self.crash_inbox_drops
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "link_dropped": self.link_dropped,
            "corrupted": self.corrupted,
            "corruption_detected": self.corruption_detected,
            "corruption_delivered": self.corruption_delivered,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "delay_collisions": self.delay_collisions,
            "crash_node_rounds": self.crash_node_rounds,
            "crash_inbox_drops": self.crash_inbox_drops,
            "recovery_messages": self.recovery_messages,
            "recovery_words": self.recovery_words,
            "recovery_rounds": self.recovery_rounds,
            "faults_injected": self.faults_injected,
        }


class FaultInjector:
    """One fault schedule threaded through many networks.

    Holds the plan, a shared :class:`FaultStats` collector, and the
    **global round clock**: each network execution advances the clock by
    the rounds it spanned, so crash windows and link outages are
    intervals in wall-history, not per-phase, and every hash draw is
    fresh across retries.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        self.clock = 0  # global rounds consumed by finished executions
        self.crash_windows, self.link_windows = plan.all_windows()

    def advance(self, rounds: int) -> None:
        self.clock += rounds


_default_injector: FaultInjector | None = None


def default_fault_injector() -> FaultInjector | None:
    """The injector new networks pick up when none is passed explicitly."""
    return _default_injector


@contextmanager
def fault_override(faults: FaultPlan | FaultInjector | None) -> Iterator[FaultInjector | None]:
    """Install ``faults`` as the process-default fault schedule.

    Every :class:`~repro.congest.network.CongestNetwork` created inside
    the block (without an explicit ``faults`` argument) applies it —
    this is how the chaos layer reaches the networks the embedding
    pipeline creates internally.  Yields the shared
    :class:`FaultInjector` (or ``None``), whose ``stats`` accumulate
    across all of them.
    """
    global _default_injector
    injector = (
        faults if isinstance(faults, (FaultInjector, type(None))) else FaultInjector(faults)
    )
    previous = _default_injector
    _default_injector = injector
    try:
        yield injector
    finally:
        _default_injector = previous


class FaultState:
    """Per-network runtime of a fault schedule.

    Created by :class:`~repro.congest.network.CongestNetwork` when a
    plan is active; owns the delayed-delivery queue and the per-round
    victim sets, and classifies recovery traffic for the ledger.

    :class:`FaultStats` counts what it did whether or not anything
    records; recorders see each frame's fate as one ``on_event`` call on
    the network's ``observer``: ``send`` on the sender's lane;
    ``link-drop``, ``drop``, ``corruption-detected``, ``delay``,
    ``deliver`` and ``duplicate`` on the receiver's (``frm`` names the
    sender); ``crash-inbox-drop`` on the crashed node's.
    """

    __slots__ = (
        "injector", "plan", "stats", "graph", "_nodes", "_edges", "_offset",
        "_delayed", "current_round", "_crashed", "restarted", "_down_links",
        "_round_payload", "_round_recovery", "_run_recovery_msgs",
        "_run_recovery_words", "_run_recovery_rounds", "observer",
    )

    def __init__(self, injector: FaultInjector, graph: Any, observer: Any = None) -> None:
        self.injector = injector
        self.plan = injector.plan
        self.stats = injector.stats
        self.graph = graph
        self._nodes: list[Any] | None = None  # resolved lazily: sorted by repr
        self._edges: list[tuple[Any, Any]] | None = None
        self._offset = injector.clock
        self._delayed: dict[int, list[tuple[Any, Any, Any]]] = {}
        self.current_round = 0
        self._crashed: frozenset = frozenset()
        self.restarted: frozenset = frozenset()
        self._down_links: frozenset = frozenset()
        self._round_payload = 0
        self._round_recovery = 0
        self._run_recovery_msgs = 0
        self._run_recovery_words = 0
        self._run_recovery_rounds = 0
        self.observer = observer

    # -- round lifecycle ---------------------------------------------------

    def start_run(self) -> None:
        """Reset run-local accounting and enter round 1."""
        self._offset = self.injector.clock
        self._delayed.clear()
        self._run_recovery_msgs = 0
        self._run_recovery_words = 0
        self._run_recovery_rounds = 0
        self._round_payload = 0
        self._round_recovery = 0
        self.current_round = 0
        self._enter_round(1)

    def begin_round(self, round_no: int, in_flight: dict) -> dict:
        """Advance to ``round_no``: release due delayed frames into the
        inboxes, then discard the inboxes of crashed receivers.  The
        round loop calls this — it is the round half of the fault hook
        (the message half is the delivery hook)."""
        self._enter_round(round_no)
        due = self._delayed.pop(round_no, None)
        if due:
            for receiver, sender, payload in due:
                box = in_flight.get(receiver)
                if box is None:
                    in_flight[receiver] = {sender: payload}
                elif sender in box:
                    # CONGEST carries one frame per edge per round; the
                    # late frame yields to the fresh one and slips again.
                    self._delayed.setdefault(round_no + 1, []).append(
                        (receiver, sender, payload)
                    )
                    self.stats.delay_collisions += 1
                else:
                    box[sender] = payload
        if self._crashed:
            for v in self._crashed:
                box = in_flight.pop(v, None)
                if box:
                    self.stats.crash_inbox_drops += len(box)
                    if self.observer is not None:
                        self.observer.on_event(
                            v, "crash-inbox-drop", round_no, frames=len(box)
                        )
        return in_flight

    def _enter_round(self, round_no: int) -> None:
        self._close_round_flags()
        previously_crashed = self._crashed
        self.current_round = round_no
        g = self._offset + round_no
        injector = self.injector
        crashed = set()
        for i, w in enumerate(injector.crash_windows):
            if w.start <= g < w.stop:
                victim = w.node if w.node is not None else self._auto_node(i)
                if victim is not None and victim in self.graph:
                    crashed.add(victim)
        self._crashed = frozenset(crashed)
        # Nodes whose crash window just ended: the round loop owes them
        # one restart activation (the dense policy polls them regardless).
        self.restarted = (
            frozenset(previously_crashed - crashed) if previously_crashed else frozenset()
        )
        if crashed:
            self.stats.crash_node_rounds += len(crashed)
        down = set()
        for i, w in enumerate(injector.link_windows):
            if w.start <= g < w.stop:
                if w.u is not None:
                    down.add(frozenset((w.u, w.v)))
                else:
                    edge = self._auto_edge(i)
                    if edge is not None:
                        down.add(edge)
        self._down_links = frozenset(down)

    def _close_round_flags(self) -> None:
        if self._round_recovery and not self._round_payload:
            self._run_recovery_rounds += 1
        self._round_payload = 0
        self._round_recovery = 0

    def crashed_at(self, round_no: int) -> frozenset:
        """The crash set for the round most recently entered (``round_no``
        is asserted against for loop-integration safety)."""
        assert round_no == self.current_round, "crashed_at outside the current round"
        return self._crashed

    def _auto_node(self, index: int):
        if self._nodes is None:
            self._nodes = sorted(self.graph.nodes(), key=repr)
        if not self._nodes:
            return None
        pick = int(_unit(self.plan.seed, "crash-node", index) * len(self._nodes))
        return self._nodes[min(pick, len(self._nodes) - 1)]

    def _auto_edge(self, index: int):
        if self._edges is None:
            self._edges = sorted(self.graph.edges(), key=repr)
        if not self._edges:
            return None
        pick = int(_unit(self.plan.seed, "link-edge", index) * len(self._edges))
        u, v = self._edges[min(pick, len(self._edges) - 1)]
        return frozenset((u, v))

    # -- the per-message fault hook ---------------------------------------

    def transmit(self, sender, receiver, payload, words: int, in_flight: dict) -> None:
        """Apply the fault schedule to one transmitted frame.

        The frame was already bandwidth-checked and counted as traffic;
        this decides whether (and when, and in what shape) it arrives.
        """
        stats = self.stats
        stats.sent += 1
        if type(payload) is tuple and payload and payload[0] in _RECOVERY_TAGS:
            self._round_recovery += 1
            self._run_recovery_msgs += 1
            self._run_recovery_words += words
            stats.recovery_messages += 1
            stats.recovery_words += words
        else:
            self._round_payload += 1

        plan = self.plan
        g = self._offset + self.current_round
        seed = plan.seed
        obs = self.observer
        if obs is not None:
            obs.on_event(sender, "send", self.current_round, to=repr(receiver), words=words)

        if self._down_links and frozenset((sender, receiver)) in self._down_links:
            stats.link_dropped += 1
            if obs is not None:
                obs.on_event(receiver, "link-drop", self.current_round, frm=repr(sender))
            return
        if plan.drop_rate and _unit(seed, "drop", g, sender, receiver) < plan.drop_rate:
            stats.dropped += 1
            if obs is not None:
                obs.on_event(receiver, "drop", self.current_round, frm=repr(sender))
            return
        if plan.corruption_rate and (
            _unit(seed, "corrupt", g, sender, receiver) < plan.corruption_rate
        ):
            stats.corrupted += 1
            payload, detected = self._corrupt(sender, receiver, payload, g)
            if detected:
                stats.corruption_detected += 1
                if obs is not None:
                    obs.on_event(
                        receiver, "corruption-detected", self.current_round,
                        frm=repr(sender),
                    )
                return  # CRC failure: the link layer discards the frame
            stats.corruption_delivered += 1

        arrival = self.current_round + 1
        if plan.delay_rate and _unit(seed, "delay", g, sender, receiver) < plan.delay_rate:
            extra = 1 + int(
                _unit(seed, "delay-by", g, sender, receiver) * plan.max_delay
            ) % plan.max_delay
            stats.delayed += 1
            if obs is not None:
                obs.on_event(
                    receiver, "delay", self.current_round,
                    frm=repr(sender), until=arrival + extra,
                )
            self._delayed.setdefault(arrival + extra, []).append((receiver, sender, payload))
        else:
            box = in_flight.get(receiver)
            if box is None:
                in_flight[receiver] = {sender: payload}
            else:
                box[sender] = payload
            if obs is not None:
                obs.on_event(receiver, "deliver", self.current_round, frm=repr(sender))
        stats.delivered += 1

        if plan.duplicate_rate and (
            _unit(seed, "dup", g, sender, receiver) < plan.duplicate_rate
        ):
            echo = 1 + int(_unit(seed, "dup-by", g, sender, receiver) * plan.max_delay) % max(
                1, plan.max_delay
            )
            stats.duplicated += 1
            if obs is not None:
                obs.on_event(
                    receiver, "duplicate", self.current_round,
                    frm=repr(sender), echo=arrival + echo,
                )
            self._delayed.setdefault(arrival + echo, []).append((receiver, sender, payload))

    def _corrupt(self, sender, receiver, payload, g: int) -> tuple[Any, bool]:
        """Bit-flip the frame's wire bytes; returns (payload, detected)."""
        try:
            blob = Message(sender, receiver, payload).encode()
        except TypeError:
            # Not wire-encodable (exotic test payload): the garbled frame
            # cannot be framed either, so the link layer drops it.
            return payload, True
        bit = int(_unit(self.plan.seed, "corrupt-bit", g, sender, receiver) * len(blob) * 8)
        try:
            message = Message.decode(flip_bit(blob, bit))
        except MessageCorruptionError:
            return payload, True
        return message.payload, False  # pragma: no cover - CRC-32 catches single flips

    # -- termination & bookkeeping ----------------------------------------

    def no_pending(self) -> bool:
        """True when no delayed frame is still in transit."""
        return not self._delayed

    def windows_pending(self) -> bool:
        """True while a crash window is still active or ahead of the
        current global round — i.e. node restarts may yet wake someone,
        so an empty active set is quiet time, not a stall."""
        g = self._offset + self.current_round
        return any(w.stop > g for w in self.injector.crash_windows)

    def close_run(self) -> None:
        """Finish the execution: flush round flags and advance the global
        clock so the next network starts where this one stopped — also on
        a *failed* execution, so retries see fresh rounds."""
        self._close_round_flags()
        self.injector.advance(self.current_round)

    def take_recovery(self) -> tuple[int, int, int]:
        """This run's recovery traffic: (rounds, messages, words)."""
        return (
            self._run_recovery_rounds,
            self._run_recovery_msgs,
            self._run_recovery_words,
        )
