"""Reading and rendering execution traces.

The :class:`repro.obs.Tracer` dumps one JSONL document per run: a
header line followed by one line per span (flat, linked by
``parent_id``).  This module reads such a dump back into a
:class:`~repro.obs.tracer.Span` tree and renders two ASCII views:

* :func:`render_trace_tree` — the recursion tree with rounds, traffic,
  and wall-clock time per span (the "where did the rounds go" view);
* :func:`render_phase_timeline` — a horizontal bar chart of rounds per
  phase (works on a trace root, a ``RoundMetrics``, or a plain
  ``{phase: rounds}`` mapping).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from ..obs.tracer import TRACE_FORMAT_VERSION, Span, _read_jsonl

__all__ = ["load_trace", "render_trace_tree", "render_phase_timeline"]


def load_trace(source: Any) -> Span:
    """Rebuild the span tree of a JSONL trace; returns the root span.

    ``source`` may be a path (str/Path), an open text file, an iterable
    of lines, or a single string holding the whole document.  Raises
    ``ValueError`` (a :class:`~repro.obs.tracer.TraceFormatError` for a
    malformed line or another format version) on malformed input or
    when no root span exists.
    """
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    for _, record in _read_jsonl(source, "trace", TRACE_FORMAT_VERSION, "trace"):
        if record.get("type") != "span":
            continue  # future record types ride through
        sp = Span.from_dict(record)
        spans[sp.span_id] = sp
        parent = spans.get(sp.parent_id) if sp.parent_id is not None else None
        if parent is not None:
            parent.children.append(sp)
        else:
            roots.append(sp)
    if not roots:
        raise ValueError("trace contains no root span")
    if len(roots) == 1:
        return roots[0]
    # Several runs in one file: stitch them under a synthetic root.
    top = Span(span_id=0, parent_id=None, name="traces", kind="span")
    top.children.extend(roots)
    return top


def _span_label(sp: Span) -> str:
    bits = [sp.name]
    for key in ("root", "level", "size", "n", "m", "p0_length", "splitter"):
        if key in sp.attrs:
            bits.append(f"{key}={sp.attrs[key]}")
    total = sp.total_rounds()
    bits.append(f"· {total} rounds")
    words = sp.total_words()
    if words:
        bits.append(f"{words}w")
    activations = sp.total_activations()
    if activations:
        saved = sp.total_activations_saved()
        bits.append(f"{activations}act" + (f"(-{saved})" if saved else ""))
    if sp.end_s is not None:
        bits.append(f"{sp.wall_s * 1000:.1f}ms")
    return " ".join(str(b) for b in bits)


def render_trace_tree(
    root: Span, max_depth: int | None = None, min_rounds: int = 0
) -> str:
    """The span tree as an ASCII recursion-tree/phase-timeline view.

    ``max_depth`` prunes the tree (None = unlimited); ``min_rounds``
    hides spans whose subtree consumed fewer rounds (pruned siblings are
    summarized in one ``... (+k spans)`` line so nothing silently
    disappears).
    """
    lines: list[str] = [_span_label(root)]

    def walk(sp: Span, prefix: str, depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            if sp.children:
                lines.append(f"{prefix}└─ ... (+{sum(1 for _ in sp.walk()) - 1} spans)")
            return
        shown = [c for c in sp.children if c.total_rounds() >= min_rounds]
        hidden = len(sp.children) - len(shown)
        entries: list[tuple[str, Span | None]] = [(_span_label(c), c) for c in shown]
        if hidden:
            entries.append((f"... (+{hidden} spans under {min_rounds} rounds)", None))
        for i, (label, child) in enumerate(entries):
            last = i == len(entries) - 1
            lines.append(f"{prefix}{'└─ ' if last else '├─ '}{label}")
            if child is not None:
                walk(child, prefix + ("   " if last else "│  "), depth + 1)

    walk(root, "", 0)
    return "\n".join(lines)


def _phase_rounds_of(source: Any) -> dict[str, int]:
    if isinstance(source, Span):
        totals: dict[str, int] = {}
        for sp in source.walk():
            for ev in sp.events:
                if ev.name == "charge":
                    phase = ev.attrs.get("phase", "?")
                    totals[phase] = totals.get(phase, 0) + int(ev.attrs.get("rounds", 0))
        return totals
    if hasattr(source, "phase_rounds"):  # RoundMetrics
        return dict(source.phase_rounds)
    if isinstance(source, Mapping):
        return {str(k): int(v) for k, v in source.items()}
    raise TypeError(f"cannot extract phase rounds from {type(source).__name__}")


def render_phase_timeline(source: Any, width: int = 40) -> str:
    """Rounds per phase as ASCII bars, widest phase name first aligned.

    ``source``: a trace root :class:`Span` (phases aggregated from its
    charge events), a ``RoundMetrics``, or a ``{phase: rounds}`` map.
    Parallel branches make the per-phase sum an upper bound on wall
    rounds — this is a *where does the work go* view, not a clock.
    """
    totals = _phase_rounds_of(source)
    if not totals:
        return "(no phase data)"
    peak = max(totals.values()) or 1
    name_w = max(len(p) for p in totals)
    lines = []
    for phase in sorted(totals, key=lambda p: -totals[p]):
        bar = "#" * max(1 if totals[phase] else 0, round(width * totals[phase] / peak))
        lines.append(f"{phase:<{name_w}}  {totals[phase]:>8}  {bar}")
    return "\n".join(lines)
