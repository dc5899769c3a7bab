"""Observability: hierarchical tracing and machine-readable run reports.

The paper's headline claim is a round bound, so the first-class product
of a run is *where the rounds went*.  This package provides:

* the :class:`Tracer` (spans per recursive call / merge / CONGEST phase,
  events for charges, splitter choices, and bandwidth high-water marks):
  ``DistributedPlanarEmbedding(graph, tracer=Tracer())`` traces a run,
  ``tracer.write_jsonl(fp)`` dumps the span tree as JSONL, and
  ``repro.analysis.load_trace`` / ``render_trace_tree`` read it back;
* the :class:`Sink` protocol (:mod:`repro.obs.sinks`): the one event
  path every recorder hangs on — ``with observe(recorder): ...``
  installs recorders for every network the block creates;
* the :class:`CausalRecorder` (:mod:`repro.obs.causal`): per-node
  Lamport chain clocks over every posted outbox, yielding the critical
  path — the longest happens-before chain of messages — per phase;
* the :class:`FlightRecorder` (:mod:`repro.obs.flightrec`): bounded
  per-node ring buffers of delivery/fault/ARQ events, dumped as JSONL
  when a chaos run dies;
* :func:`export_chrome_trace` (:mod:`repro.obs.export`): Perfetto-
  loadable Chrome trace-event export of span trees and causal lanes.

See docs/API.md ("Observability") for the rollup and clock semantics.
"""

from .causal import CausalRecorder
from .export import chrome_trace, export_chrome_trace
from .flightrec import FlightRecorder, load_flight
from .sinks import Sink, installed, observe, observer
from .tracer import Span, TraceEvent, TraceFormatError, Tracer, maybe_span

__all__ = [
    "Tracer",
    "Span",
    "TraceEvent",
    "TraceFormatError",
    "maybe_span",
    "Sink",
    "observe",
    "installed",
    "observer",
    "CausalRecorder",
    "FlightRecorder",
    "load_flight",
    "chrome_trace",
    "export_chrome_trace",
]
