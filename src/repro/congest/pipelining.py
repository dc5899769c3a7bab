"""Exact round costs for pipelined tree communication.

The paper's Remark 1: a single "super-round" of a part-level algorithm —
computing max/min/sum of part variables, or shipping a summary to one
designated part vertex — "can actually be simulated in O(D) rounds on a
BFS of the part, using standard upcast and downcast techniques.  We skip
stating the exact details ... as they are standard."

This module supplies the one standard cost the merges charge *exactly*,
so that charged rounds come from measured quantities instead of
asymptotic hand-waving: streaming ``W`` words along a path with ``d``
hops, ``bandwidth`` words per edge per round, takes
``d + ceil(W / bandwidth) - 1`` rounds (classic pipelining).  A
convergecast or a broadcast of ``W`` words over a tree of depth ``d``
costs the same (the root drains or feeds at least ``bandwidth`` words a
round once the pipeline is full), so :mod:`repro.core.merges` charges
every gather and scatter through :func:`stream_rounds`.
"""

from __future__ import annotations

import math

__all__ = ["stream_rounds"]


def stream_rounds(hops: int, words: int, bandwidth: int = 1) -> int:
    """Rounds to stream ``words`` words across ``hops`` hops, pipelined."""
    if hops < 0 or words < 0 or bandwidth < 1:
        raise ValueError("hops/words must be >= 0 and bandwidth >= 1")
    if words == 0 or hops == 0:
        return 0
    packets = math.ceil(words / bandwidth)
    return hops + packets - 1

