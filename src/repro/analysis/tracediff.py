"""Structural trace diffing: the first message where two runs diverge.

Two runs of the pipeline with the same graph, seed, and scheduler must
produce bit-identical ledgers — that is the repo's differential-testing
backbone — and their JSONL traces must therefore agree on every
*deterministic* field: the span tree's shape, each span's name / kind /
parallel flag, its round and traffic counters, its attrs, and its
charge / fault / high-water events.  Wall-clock fields (``start_s``,
``end_s``, event ``wall_s``) and span ids are execution accidents and
are never compared.

:func:`diff_traces` walks two traces in lockstep preorder and reports
every divergence up to a limit, first divergence first, each with its
**ancestry path** — the chain of spans from the root down to the
divergent span, which for a causal trace is exactly the recursive-call
ancestry of the divergent message batch.  "The ledgers match" becomes
"here is the first charge where they diverge", which is the proof
obligation of every behavior-preserving optimization, and the CI
golden-trace gate against silent trace-format drift.

Exit-code contract of the ``repro trace-diff`` CLI built on this:
``0`` identical, ``1`` divergent, ``2`` unreadable/malformed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..obs.tracer import Span
from .traceview import load_trace

__all__ = ["Divergence", "diff_spans", "diff_traces", "render_diff"]

#: Deterministic span fields compared in order; wall-clock fields and
#: span ids are deliberately absent.
SPAN_FIELDS = (
    "name",
    "kind",
    "parallel",
    "rounds",
    "messages",
    "words",
    "max_edge_words",
    "activations",
    "activations_saved",
)


@dataclass(frozen=True)
class Divergence:
    """One point where the two traces disagree."""

    path: tuple[str, ...]  # ancestry: root span down to the divergent span
    kind: str  # "field" | "attr" | "event" | "structure"
    detail: str  # which field/attr/event diverged
    a: Any
    b: Any

    @property
    def where(self) -> str:
        return " > ".join(self.path)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": list(self.path),
            "kind": self.kind,
            "detail": self.detail,
            "a": self.a,
            "b": self.b,
        }

    def describe(self) -> str:
        return f"{self.kind} {self.detail!r} at {self.where}: {self.a!r} != {self.b!r}"


def _slug(sp: Span, index: int | None = None) -> str:
    tag = f"{sp.kind}:{sp.name}"
    return tag if index is None else f"{tag}#{index}"


def diff_spans(a: Span, b: Span, limit: int = 16) -> list[Divergence]:
    """All divergences between two span trees, preorder, up to ``limit``.

    An empty list means the traces are structurally identical on every
    deterministic field.
    """
    out: list[Divergence] = []

    def push(path: tuple[str, ...], kind: str, detail: str, va: Any, vb: Any) -> bool:
        out.append(Divergence(path, kind, detail, va, vb))
        return len(out) >= limit

    def walk(sa: Span, sb: Span, path: tuple[str, ...]) -> bool:
        for field_name in SPAN_FIELDS:
            va, vb = getattr(sa, field_name), getattr(sb, field_name)
            if va != vb and push(path, "field", field_name, va, vb):
                return True
        if sa.attrs != sb.attrs:
            for key in sorted(set(sa.attrs) | set(sb.attrs), key=repr):
                va, vb = sa.attrs.get(key), sb.attrs.get(key)
                if va != vb and push(path, "attr", str(key), va, vb):
                    return True
        if len(sa.events) != len(sb.events):
            if push(path, "structure", "event count", len(sa.events), len(sb.events)):
                return True
        for i, (ea, eb) in enumerate(zip(sa.events, sb.events)):
            # wall_s is wall-clock noise; name + attrs are the semantics.
            if ea.name != eb.name:
                if push(path, "event", f"events[{i}].name", ea.name, eb.name):
                    return True
            elif ea.attrs != eb.attrs:
                if push(
                    path, "event", f"events[{i}] ({ea.name})", ea.attrs, eb.attrs
                ):
                    return True
        if len(sa.children) != len(sb.children):
            if push(
                path, "structure", "child count",
                len(sa.children), len(sb.children),
            ):
                return True
        for i, (ca, cb) in enumerate(zip(sa.children, sb.children)):
            if walk(ca, cb, path + (_slug(ca, i),)):
                return True
        return False

    walk(a, b, (_slug(a),))
    return out


def diff_traces(source_a: Any, source_b: Any, limit: int = 16) -> dict[str, Any]:
    """Load two JSONL traces and diff them; returns the JSON-ready report.

    ``source_a`` / ``source_b`` are anything
    :func:`~repro.analysis.traceview.load_trace` accepts (paths, open
    files, line iterables).  Raises the loader's typed errors on
    malformed input — the CLI maps those to exit code 2.
    """
    root_a = load_trace(source_a)
    root_b = load_trace(source_b)
    divergences = diff_spans(root_a, root_b, limit=limit)
    return {
        "type": "trace-diff",
        "identical": not divergences,
        "spans_a": sum(1 for _ in root_a.walk()),
        "spans_b": sum(1 for _ in root_b.walk()),
        "divergences": [d.to_dict() for d in divergences],
        "truncated": len(divergences) >= limit,
    }


def render_diff(report: dict[str, Any]) -> str:
    """Human-readable rendering of a :func:`diff_traces` report."""
    if report["identical"]:
        return (
            f"traces identical: {report['spans_a']} spans, every deterministic"
            " field equal"
        )
    lines = [
        f"traces DIVERGE ({report['spans_a']} vs {report['spans_b']} spans):"
    ]
    for i, d in enumerate(report["divergences"], 1):
        where = " > ".join(d["path"])
        lines.append(f"  [{i}] {d['kind']} {d['detail']!r}")
        lines.append(f"      at {where}")
        lines.append(f"      a: {d['a']!r}")
        lines.append(f"      b: {d['b']!r}")
    if report.get("truncated"):
        lines.append("  ... (more divergences beyond the report limit)")
    first = report["divergences"][0]
    lines.append(
        "first divergence: "
        f"{first['kind']} {first['detail']!r} at {' > '.join(first['path'])}"
    )
    return "\n".join(lines)
