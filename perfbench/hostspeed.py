"""Host-speed measurement that imports nothing from the program.

On a shared virtual machine the speed of a vCPU swings by a quarter or
more for minutes at a time, with no CPU steal to show for it (process
CPU time tracks wall time).  Two tools deal with that:

* :func:`probe` — a fixed pure-Python loop the parent times before and
  after every run.  A diagnostic only.
* :class:`Calibrator` — a fixed pure-Python graph routine (BFS and DFS
  over a grid, the same kind of dict/set/list work the program does)
  that the worker runs between ops, about one chunk per quarter second
  of op time.  Nominal :data:`REFERENCE_S` over the mean of the chunks
  around an op is the host speed while it ran (:func:`speeds`); timing
  metrics are reported in seconds rescaled to that nominal speed, and
  the raw figures go to the diagnostic line.  Measured on a 2-vCPU x86
  VM, the median latency of 20 identical embeddings varied from window
  to window with CV 12.7% raw and 2.8% rescaled.
"""

from __future__ import annotations

import statistics
import time

# Seconds of one calibration chunk on an uncontended 2.0 GHz Xeon vCPU
# (CPython 3.11).  It only fixes the unit: a rescaled time is the raw
# time times REFERENCE_S / (mean chunk seconds around it).
REFERENCE_S = 0.025
# Op seconds between two calibration chunks (about a 10% duty cycle).
CHUNK_EVERY_S = 0.25
# Chunks on each side of an op that set its host speed.
WINDOW = 2
# Chunks run right after set-up, which set the host speed of set-up.
SETUP_CHUNKS = 4
_GRID = 40
_PASSES = 6


def probe() -> float:
    """Seconds of a fixed pure-Python loop (dict and int work)."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(500_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 4095] = acc
    return time.perf_counter() - t0


def _grid_adjacency(n: int) -> dict[tuple[int, int], list[tuple[int, int]]]:
    adj = {}
    for i in range(n):
        for j in range(n):
            adj[(i, j)] = [(a, b) for a, b in ((i - 1, j), (i, j - 1), (i + 1, j), (i, j + 1))
                           if 0 <= a < n and 0 <= b < n]
    return adj


class Calibrator:
    """Interleaves fixed reference chunks with the ops of one run."""

    def __init__(self) -> None:
        self._adj = _grid_adjacency(_GRID)
        self._since_chunk = 0.0
        self.samples: list[float] = []
        # Per op: how many chunks had run when it ended.
        self.op_chunks: list[int] = []

    def chunk(self) -> None:
        adj, far = self._adj, (_GRID - 1, _GRID - 1)
        t0 = time.perf_counter()
        for _ in range(_PASSES):
            dist, queue, k = {(0, 0): 0}, [(0, 0)], 0
            while k < len(queue):
                v = queue[k]
                k += 1
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            seen, stack = set(), [far]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(sorted(adj[v], key=repr))
        self.samples.append(time.perf_counter() - t0)

    def after_op(self, op_s: float) -> None:
        self.op_chunks.append(len(self.samples))
        self._since_chunk += op_s
        if self._since_chunk >= CHUNK_EVERY_S:
            self._since_chunk = 0.0
            self.chunk()


def speed(samples: list[float]) -> float:
    """Host speed over some chunks: nominal over measured (below 1 when slow)."""
    return REFERENCE_S / statistics.fmean(samples)


def speeds(samples: list[float], op_chunks: list[int]) -> list[float]:
    """The host speed around each op, from the :data:`WINDOW` chunks
    before and after it."""
    return [speed(samples[max(0, c - WINDOW):c + WINDOW]) for c in op_chunks]
