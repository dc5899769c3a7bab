"""Round/message/bandwidth ledgers.

Every execution — real message passing and cost-model charges alike —
flows through one :class:`RoundMetrics` ledger, so the experiment harness
can report a single, auditable round count per run, broken down by phase
(the provenance of every charged cost is retained).

Observability hooks: a ledger may carry an *observer*, a
:class:`repro.obs.sinks.Sink` — in practice a :class:`repro.obs.Tracer`.
The ledger calls its ``on_charge``; a network joins it with the
installed sinks into the one observer it calls at construction, and
runs no notification code when that is ``None``, so untraced runs pay
nothing on the per-round hot path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs.sinks import Sink

__all__ = ["Charge", "RoundMetrics"]


@dataclass(frozen=True)
class Charge:
    """One accounted cost item with its provenance.

    ``kind`` distinguishes cost-model charges (``"charge"``, from the
    Remark-1 pipelined formulas) from real executions attributed after
    the fact (``"real"``, written by ``CongestNetwork.run`` with the
    measured traffic of the execution).
    """

    phase: str
    rounds: int
    words: int = 0
    detail: str = ""
    messages: int = 0
    kind: str = "charge"  # "charge" | "real"
    activations: int = 0  # node activations the round loop spent
    activations_saved: int = 0  # calls skipped vs polling every node

    def to_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase,
            "rounds": self.rounds,
            "words": self.words,
            "detail": self.detail,
            "messages": self.messages,
            "kind": self.kind,
            "activations": self.activations,
            "activations_saved": self.activations_saved,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Charge":
        return cls(
            phase=d["phase"],
            rounds=d["rounds"],
            words=d.get("words", 0),
            detail=d.get("detail", ""),
            messages=d.get("messages", 0),
            kind=d.get("kind", "charge"),
            activations=d.get("activations", 0),
            activations_saved=d.get("activations_saved", 0),
        )


@dataclass
class RoundMetrics:
    """Aggregated execution costs for one distributed run."""

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_words_edge_round: int = 0
    node_activations: int = 0  # on_start/on_round calls the round loop made
    activations_saved: int = 0  # calls skipped vs polling every node
    charges: list[Charge] = field(default_factory=list)
    phase_rounds: dict[str, int] = field(default_factory=dict)
    # Observability slot — not part of the ledger's value (excluded from
    # comparison and serialization).  See module docstring.
    observer: Sink | None = field(default=None, repr=False, compare=False)

    # -- real execution ----------------------------------------------------

    def record_round(self, messages: int, words: int, max_edge_words: int) -> None:
        """Record one synchronous round of real message passing."""
        self.rounds += 1
        self.messages += messages
        self.total_words += words
        self.max_words_edge_round = max(self.max_words_edge_round, max_edge_words)

    def record_activations(self, activated: int, saved: int) -> None:
        """Record the round loop's wall-clock work for one execution:
        ``activated`` program calls made, ``saved`` calls skipped relative
        to calling every node every round.  Loop cost accounting, not
        CONGEST round semantics: both poll policies produce identical
        rounds/messages/words and the same sum of these two counters.
        """
        self.node_activations += activated
        self.activations_saved += saved

    # -- cost-model charges --------------------------------------------------

    def charge(
        self, phase: str, rounds: int, words: int = 0, detail: str = "", messages: int = 0
    ) -> None:
        """Charge ``rounds`` rounds (and ``words`` words of traffic) to ``phase``.

        Used for operations the paper's Remark 1 declares standard
        (pipelined upcast/downcast inside a part); ``rounds`` must be the
        exact pipelined cost computed from measured depths and measured
        payload sizes — see :mod:`repro.congest.pipelining`.
        """
        if rounds < 0:
            raise ValueError("cannot charge negative rounds")
        self.rounds += rounds
        self.total_words += words
        self.messages += messages
        item = Charge(phase, rounds, words=words, detail=detail, messages=messages)
        self.charges.append(item)
        self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + rounds
        if self.observer is not None:
            self.observer.on_charge(item)

    def tag_phase(
        self,
        phase: str,
        rounds: int,
        messages: int = 0,
        words: int = 0,
        detail: str = "",
        activations: int = 0,
        activations_saved: int = 0,
    ) -> None:
        """Attribute already-recorded real rounds (and traffic) to a phase.

        The rounds/words/messages were counted by :meth:`record_round`
        as they happened (and activations by :meth:`record_activations`);
        this only files their provenance, as a ``kind="real"``
        :class:`Charge`.
        """
        self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + rounds
        item = Charge(
            phase,
            rounds,
            words=words,
            detail=detail or "real execution",
            messages=messages,
            kind="real",
            activations=activations,
            activations_saved=activations_saved,
        )
        self.charges.append(item)
        if self.observer is not None:
            self.observer.on_charge(item)

    # -- composition ----------------------------------------------------------

    def absorb_parallel(self, branches: list["RoundMetrics"], phase: str) -> None:
        """Absorb independent parallel executions: rounds = max, traffic = sum.

        This models disjoint parts running concurrently (the heart of the
        divide-and-conquer efficiency argument in Section 4).
        """
        if not branches:
            return
        rounds = max(b.rounds for b in branches)
        self.rounds += rounds
        self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + rounds
        for b in branches:
            self.messages += b.messages
            self.total_words += b.total_words
            self.max_words_edge_round = max(self.max_words_edge_round, b.max_words_edge_round)
            self.node_activations += b.node_activations
            self.activations_saved += b.activations_saved
            self.charges.extend(b.charges)

    def absorb_serial(self, other: "RoundMetrics") -> None:
        """Absorb a sequentially-executed sub-run: rounds and traffic add."""
        self.rounds += other.rounds
        self.messages += other.messages
        self.total_words += other.total_words
        self.max_words_edge_round = max(self.max_words_edge_round, other.max_words_edge_round)
        self.node_activations += other.node_activations
        self.activations_saved += other.activations_saved
        self.charges.extend(other.charges)
        for phase, r in other.phase_rounds.items():
            self.phase_rounds[phase] = self.phase_rounds.get(phase, 0) + r

    # -- reporting -------------------------------------------------------------

    def phase_breakdown(self) -> dict[str, dict[str, int]]:
        """Per-phase ``{rounds, messages, words, charges}`` drawn from the
        retained :class:`Charge` provenance (rounds from the phase ledger,
        which additionally covers parallel-composition maxima)."""
        out: dict[str, dict[str, int]] = {
            phase: {
                "rounds": r, "messages": 0, "words": 0, "charges": 0,
                "activations": 0, "activations_saved": 0,
            }
            for phase, r in self.phase_rounds.items()
        }
        for c in self.charges:
            row = out.setdefault(
                c.phase,
                {
                    "rounds": 0, "messages": 0, "words": 0, "charges": 0,
                    "activations": 0, "activations_saved": 0,
                },
            )
            row["messages"] += c.messages
            row["words"] += c.words
            row["charges"] += 1
            row["activations"] += c.activations
            row["activations_saved"] += c.activations_saved
        return out

    def to_dict(self) -> dict[str, Any]:
        """The ledger as plain data (JSON-ready): totals, the per-phase
        breakdown, and every charge with its provenance.

        :meth:`from_dict` inverts it exactly for every field
        ``absorb_parallel`` reads, so a ledger saved to JSON folds back
        into a live one unchanged."""
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "total_words": self.total_words,
            "max_words_edge_round": self.max_words_edge_round,
            "node_activations": self.node_activations,
            "activations_saved": self.activations_saved,
            "phase_rounds": dict(self.phase_rounds),
            "phases": self.phase_breakdown(),
            "charges": [c.to_dict() for c in self.charges],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RoundMetrics":
        """Inverse of :meth:`to_dict` (the derived ``phases`` view and the
        observer slot are not part of the round-tripped value; a
        deserialized ledger therefore never notifies a tracer, matching
        ``absorb_parallel``, which never does either)."""
        return cls(
            rounds=d["rounds"],
            messages=d["messages"],
            total_words=d["total_words"],
            max_words_edge_round=d["max_words_edge_round"],
            node_activations=d.get("node_activations", 0),
            activations_saved=d.get("activations_saved", 0),
            charges=[Charge.from_dict(c) for c in d.get("charges", [])],
            phase_rounds=dict(d.get("phase_rounds", {})),
        )

    def summary(self) -> str:
        head = (
            f"rounds={self.rounds} messages={self.messages} "
            f"words={self.total_words} max_edge_words={self.max_words_edge_round}"
        )
        if self.node_activations or self.activations_saved:
            head += (
                f" activations={self.node_activations}"
                f" (saved {self.activations_saved} vs dense)"
            )
        lines = [head]
        breakdown = self.phase_breakdown()
        for phase in sorted(breakdown):
            row = breakdown[phase]
            lines.append(
                f"  {phase}: {row['rounds']} rounds, "
                f"{row['messages']} msgs, {row['words']} words"
            )
        return "\n".join(lines)
