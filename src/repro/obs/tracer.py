"""Hierarchical execution tracing for the embedding pipeline.

A :class:`Tracer` records one tree of :class:`Span` objects per run —
a span per recursive call, per CONGEST phase, per merge — plus
structured :class:`TraceEvent` items inside spans (charges, splitter
choices, bandwidth high-water marks).  Spans carry wall-clock time
alongside CONGEST model rounds, so one trace answers both "where did
the rounds go" and "where did the seconds go".

Round accounting is *push-based*: the tracer is a
:class:`~repro.obs.sinks.Sink` and the ledger's observer
(``on_round`` / ``on_charge``), so every real round and every charged
cost lands on whatever span is currently open.  The rollup semantics
mirror the ledger's composition rules exactly:

* sequential children **sum**;
* children flagged ``parallel`` (sibling recursive calls on disjoint
  parts) combine as a **max**;

hence ``root.total_rounds() == RoundMetrics.rounds`` for a traced run
(tested in ``tests/obs``).

Attaching a tracer costs two attribute checks per span site; with no
tracer attached and no sink installed the per-round hot path of
:class:`~repro.congest.network.CongestNetwork` executes no tracer code
at all (its observer, joined once at construction, is ``None``).
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, TextIO

from .sinks import Sink

__all__ = ["TraceEvent", "Span", "Tracer", "TraceFormatError", "maybe_span"]

TRACE_FORMAT_VERSION = 1

#: The fault layer's event kinds that become ``fault`` span events.
_FAULT_KINDS = frozenset((
    "link-drop", "drop", "corruption-detected", "delay", "duplicate", "crash-inbox-drop",
))


class TraceFormatError(ValueError):
    """A serialized trace is malformed or from an unsupported format version.

    Raised by ``TraceEvent.from_dict`` / ``Span.from_dict`` and by
    :func:`repro.analysis.load_trace` instead of silently defaulting
    fields or propagating bad data into the renderers.  Subclasses
    ``ValueError`` so pre-existing ``except ValueError`` handlers (the
    CLI's ``--view-trace``) keep working.
    """


def _read_jsonl(source: Any, header: str, version: int, name: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, record)`` per record of a JSONL trace or
    flight dump (``source``: a path, open file, lines, or the document
    as one string) after checking its ``type: header`` line's version.
    Raises :class:`TraceFormatError` on malformed input."""
    if isinstance(source, (str, Path)) and "\n" not in str(source):
        lines: Any = Path(source).read_text().splitlines()
    elif isinstance(source, str):
        lines = source.splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = source
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{header} line {lineno} is not JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TraceFormatError(f"{header} line {lineno} is not an object")
        if record.get("type") == header:
            if record.get("version") != version:
                raise TraceFormatError(
                    f"unsupported {name} format version {record.get('version')!r}"
                    f" (this build reads {version})"
                )
            continue
        yield lineno, record


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise TraceFormatError(what)


def _check_number(value: Any, what: str) -> float:
    # bool is an int subclass; a boolean wall_s/rounds is malformed data.
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), what)
    return value


@dataclass
class TraceEvent:
    """One structured point event inside a span."""

    name: str
    wall_s: float  # offset from the tracer's start, in seconds
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "wall_s": round(self.wall_s, 6), "attrs": self.attrs}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TraceEvent":
        _require(isinstance(d, dict), f"trace event is not an object: {d!r}")
        name = d.get("name")
        _require(isinstance(name, str) and bool(name), f"trace event has no name: {d!r}")
        wall_s = d.get("wall_s", 0.0)
        _check_number(wall_s, f"trace event {name!r}: wall_s must be a number, got {wall_s!r}")
        attrs = d.get("attrs", {})
        _require(
            isinstance(attrs, dict),
            f"trace event {name!r}: attrs must be an object, got {type(attrs).__name__}",
        )
        return cls(name=name, wall_s=float(wall_s), attrs=attrs)


@dataclass
class Span:
    """One timed, round-accounted section of a run."""

    span_id: int
    parent_id: int | None
    name: str
    kind: str = "span"  # "run" | "phase" | "call" | "merge" | "span"
    parallel: bool = False  # combines with parallel siblings as a max
    attrs: dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    end_s: float | None = None
    rounds: int = 0  # rounds accounted directly on this span
    messages: int = 0
    words: int = 0
    max_edge_words: int = 0
    activations: int = 0  # scheduler node activations (from real charges)
    activations_saved: int = 0  # calls skipped vs polling every node
    events: list[TraceEvent] = field(default_factory=list)
    children: list["Span"] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    # -- rollups (mirror RoundMetrics composition) -------------------------

    def total_rounds(self) -> int:
        """Rounds of this span and its subtree: sequential children sum,
        parallel children (disjoint-part recursions) contribute their max."""
        par = [c.total_rounds() for c in self.children if c.parallel]
        seq = sum(c.total_rounds() for c in self.children if not c.parallel)
        return self.rounds + seq + (max(par) if par else 0)

    def total_words(self) -> int:
        """Traffic always sums, parallel or not."""
        return self.words + sum(c.total_words() for c in self.children)

    def total_messages(self) -> int:
        return self.messages + sum(c.total_messages() for c in self.children)

    def total_activations(self) -> int:
        """Scheduler activations, like traffic: they always sum."""
        return self.activations + sum(c.total_activations() for c in self.children)

    def total_activations_saved(self) -> int:
        return self.activations_saved + sum(
            c.total_activations_saved() for c in self.children
        )

    def walk(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "parallel": self.parallel,
            "attrs": self.attrs,
            "start_s": round(self.start_s, 6),
            "end_s": round(self.end_s, 6) if self.end_s is not None else None,
            "rounds": self.rounds,
            "messages": self.messages,
            "words": self.words,
            "max_edge_words": self.max_edge_words,
            "activations": self.activations,
            "activations_saved": self.activations_saved,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        _require(isinstance(d, dict), f"trace span is not an object: {d!r}")
        span_id = d.get("span_id")
        _require(
            isinstance(span_id, int) and not isinstance(span_id, bool),
            f"trace span has no integer span_id: {d!r}",
        )
        name = d.get("name")
        _require(isinstance(name, str) and bool(name), f"trace span {span_id} has no name")
        events = d.get("events", [])
        _require(
            isinstance(events, list),
            f"trace span {name!r}: events must be a list, got {type(events).__name__}",
        )
        for key in ("rounds", "messages", "words", "max_edge_words",
                    "activations", "activations_saved"):
            _check_number(
                d.get(key, 0), f"trace span {name!r}: {key} must be a number"
            )
        return cls(
            span_id=span_id,
            parent_id=d.get("parent_id"),
            name=name,
            kind=d.get("kind", "span"),
            parallel=d.get("parallel", False),
            attrs=d.get("attrs", {}),
            start_s=d.get("start_s", 0.0),
            end_s=d.get("end_s"),
            rounds=d.get("rounds", 0),
            messages=d.get("messages", 0),
            words=d.get("words", 0),
            max_edge_words=d.get("max_edge_words", 0),
            activations=d.get("activations", 0),
            activations_saved=d.get("activations_saved", 0),
            events=[TraceEvent.from_dict(e) for e in events],
        )


class Tracer(Sink):
    """Collects spans and events for one (or several) runs.

    Doubles as a :class:`RoundMetrics` observer: attach it with
    ``metrics.observer = tracer`` (done automatically by
    ``DistributedPlanarEmbedding(..., tracer=...)``) and every real
    round / charged cost is attributed to the currently open span.  It is
    not installed with ``observe``: spans need a handle threaded through
    the recursion, and an installed tracer would hear every ledger.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._t0 = clock()
        self._ids = itertools.count(1)
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span lifecycle ----------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._t0

    @contextmanager
    def span(
        self, name: str, kind: str = "span", parallel: bool = False, **attrs: Any
    ) -> Iterator[Span]:
        sp = Span(
            span_id=next(self._ids),
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=name,
            kind=kind,
            parallel=parallel,
            attrs=dict(attrs),
            start_s=self._now(),
        )
        (self._stack[-1].children if self._stack else self.roots).append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end_s = self._now()
            self._stack.pop()

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Span | None:
        return self.roots[0] if self.roots else None

    def event(self, name: str, **attrs: Any) -> TraceEvent | None:
        """Record a structured event on the current span (dropped if none)."""
        if not self._stack:
            return None
        ev = TraceEvent(name, self._now(), attrs)
        self._stack[-1].events.append(ev)
        return ev

    # -- Sink protocol -----------------------------------------------------

    def on_round(self, round_no: int, messages: int, words: int, max_edge_words: int) -> None:
        """One real CONGEST round was consumed by the current span."""
        if not self._stack:
            return
        sp = self._stack[-1]
        sp.rounds += 1
        sp.messages += messages
        sp.words += words
        if max_edge_words > sp.max_edge_words:
            sp.max_edge_words = max_edge_words
            sp.events.append(
                TraceEvent(
                    "bandwidth-high-water",
                    self._now(),
                    {"round": round_no, "edge_words": max_edge_words},
                )
            )

    def on_charge(self, charge) -> None:
        """A cost item was appended to the ledger under the current span.

        Real-execution charges (``charge.kind == "real"``) were already
        accounted round-by-round via :meth:`on_round`; only their phase
        attribution is recorded as an event.  Cost-model charges add
        their rounds and traffic to the span.  Scheduler activation
        counts ride only on real charges (rounds never flow through
        :meth:`on_round` for them), so they are added unconditionally.
        """
        if not self._stack:
            return
        sp = self._stack[-1]
        if charge.kind != "real":
            sp.rounds += charge.rounds
            sp.messages += charge.messages
            sp.words += charge.words
        activations = getattr(charge, "activations", 0)
        saved = getattr(charge, "activations_saved", 0)
        sp.activations += activations
        sp.activations_saved += saved
        sp.events.append(
            TraceEvent(
                "charge",
                self._now(),
                {
                    "phase": charge.phase,
                    "kind": charge.kind,
                    "rounds": charge.rounds,
                    "messages": charge.messages,
                    "words": charge.words,
                    "activations": activations,
                    "activations_saved": saved,
                    "detail": charge.detail,
                },
            )
        )

    def on_event(self, node: Any, kind: str, round_no: int | None = None, **detail: Any) -> None:
        """The fault layer injected (or detected) a fault under the
        current span — see :mod:`repro.congest.faults`; other event
        kinds are not the tracer's.

        Each fault becomes a structured ``fault`` event and bumps the
        span's ``faults`` counter, so chaos runs show *where* in the
        pipeline the schedule actually hit.
        """
        if kind not in _FAULT_KINDS or not self._stack:
            return
        sp = self._stack[-1]
        sp.attrs["faults"] = sp.attrs.get("faults", 0) + 1
        if kind == "crash-inbox-drop":
            text = f"{node!r}, {detail['frames']}"
        else:
            text = f"{detail['frm']}, {node!r}"
        sp.events.append(
            TraceEvent("fault", self._now(), {"fault": kind, "round": round_no, "detail": text})
        )

    # -- export ------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def to_jsonl_lines(self) -> Iterator[str]:
        """The trace as JSONL: a header line, then one line per span."""
        yield json.dumps(
            {"type": "trace", "version": TRACE_FORMAT_VERSION, "spans": sum(1 for _ in self.spans())}
        )
        for sp in self.spans():
            yield json.dumps(sp.to_dict(), default=repr)

    def write_jsonl(self, stream: TextIO) -> None:
        for line in self.to_jsonl_lines():
            stream.write(line + "\n")


def maybe_span(tracer: Tracer | None, name: str, **kwargs: Any):
    """``tracer.span(...)`` when tracing, a no-op context otherwise.

    Lets instrumented code read as one line without paying for span
    objects on untraced runs.
    """
    if tracer is None:
        return nullcontext(None)
    return tracer.span(name, **kwargs)
