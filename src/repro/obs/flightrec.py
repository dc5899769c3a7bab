"""The crash flight recorder: a bounded black box for chaos runs.

When a chaos execution dies — a :class:`RetransmitBudgetExceededError`
from the ARQ layer, a :class:`RoundLimitExceededError` from a stalled
flood, a :class:`DegradedResult` after the self-healing budget runs out
— the summary says *what* failed but not what the network looked like
in its last moments.  A :class:`FlightRecorder` keeps a fixed-size ring
buffer of the most recent events **per node** (sends, deliveries,
faults, ARQ retransmissions and give-ups, driver-level errors), so
every failure leaves a debuggable artifact at O(n·K) memory no matter
how long the run was.

The recorder is a :class:`~repro.obs.sinks.Sink` (``on_event`` is
:meth:`FlightRecorder.record`) installed with :func:`~repro.obs.observe`;
an uninstalled one costs these event sources nothing:

* :class:`~repro.congest.faults.FaultState` — per-frame send/fault
  events at the delivery hook (chaos runs only; clean runs have no
  fault state and therefore no per-frame event code at all);
* :class:`~repro.congest.reliable.ReliableProgram` — retransmissions
  and the give-up that raises ``RetransmitBudgetExceededError``
  (recorded *before* the raise, so the recorder's globally-last event
  always matches the raised error);
* :func:`~repro.core.algorithm.self_healing_embedding` — caught errors
  under the ``__driver__`` lane (it installs a recorder of its own
  under an active fault plan when none is installed);
* :class:`~repro.serve.driver.ServiceDriver` — serving-layer faults
  under the ``__service__`` lane.

The dump is JSONL — a header line, then one line per event in global
order (a monotone sequence number orders events across nodes) — and
:func:`load_flight` reads it back with the same typed
:class:`~repro.obs.tracer.TraceFormatError` discipline as span traces.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Iterator, TextIO

from .sinks import Sink
from .tracer import TraceFormatError, _read_jsonl

__all__ = [
    "FlightRecorder",
    "FLIGHT_FORMAT_VERSION",
    "DRIVER_LANE",
    "SERVICE_LANE",
    "load_flight",
]

FLIGHT_FORMAT_VERSION = 1

#: Lane for events that belong to the run as a whole, not one node.
DRIVER_LANE = "__driver__"

#: Lane for serving-layer fault events (retries, timeouts, pool deaths,
#: quarantine, shed) — process-level chaos, one level above the
#: simulated network's per-node lanes.
SERVICE_LANE = "__service__"


class FlightRecorder(Sink):
    """Per-node ring buffers of the last ``capacity`` events each."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("flight-recorder capacity must be >= 1")
        self.capacity = capacity
        self._rings: dict[Any, deque] = {}
        self._seq = 0
        self.events_recorded = 0  # total ever, including evicted

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def record(self, node: Any, kind: str, round_no: int | None = None, **detail: Any) -> None:
        """Append one event to ``node``'s ring (evicting the oldest)."""
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = deque(maxlen=self.capacity)
        self._seq += 1
        self.events_recorded += 1
        ring.append({
            "seq": self._seq,
            "node": repr(node),
            "kind": kind,
            "round": round_no,
            "detail": detail,
        })

    on_event = record

    def note_error(self, error: BaseException, round_no: int | None = None, **detail: Any) -> None:
        """Record a caught/raised error on the driver lane."""
        self.record(
            DRIVER_LANE,
            "error",
            round_no=round_no,
            error=type(error).__name__,
            message=str(error),
            **detail,
        )

    def events(self) -> list[dict[str, Any]]:
        """All retained events in global (sequence) order."""
        merged = [ev for ring in self._rings.values() for ev in ring]
        merged.sort(key=lambda ev: ev["seq"])
        return merged

    def last(self) -> dict[str, Any] | None:
        """The most recent retained event across every node."""
        best = None
        for ring in self._rings.values():
            if ring and (best is None or ring[-1]["seq"] > best["seq"]):
                best = ring[-1]
        return best

    # -- dump / load -------------------------------------------------------

    def to_jsonl_lines(self) -> Iterator[str]:
        events = self.events()
        yield json.dumps({
            "type": "flight",
            "version": FLIGHT_FORMAT_VERSION,
            "capacity": self.capacity,
            "nodes": len(self._rings),
            "events": len(events),
            "events_recorded": self.events_recorded,
        })
        for ev in events:
            yield json.dumps(ev, default=repr)

    def write_jsonl(self, stream: TextIO) -> None:
        for line in self.to_jsonl_lines():
            stream.write(line + "\n")

    def dump(self, path: str | Path) -> Path:
        """Write the JSONL dump to ``path``; returns the path written."""
        path = Path(path)
        with path.open("w") as fp:
            self.write_jsonl(fp)
        return path


def load_flight(source: Any) -> list[dict[str, Any]]:
    """Read a flight-recorder JSONL dump back as its event list.

    ``source`` may be a path, an open file, or the document as one
    string.  Raises :class:`TraceFormatError` on malformed input or an
    unsupported format version.
    """
    events: list[dict[str, Any]] = []
    for lineno, record in _read_jsonl(source, "flight", FLIGHT_FORMAT_VERSION, "flight-recorder"):
        for key in ("seq", "node", "kind"):
            if key not in record:
                raise TraceFormatError(f"flight line {lineno} lacks {key!r}")
        events.append(record)
    return events
