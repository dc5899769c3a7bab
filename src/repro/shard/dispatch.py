"""Multi-process dispatch for the recursion's hanging subtrees.

:class:`ShardRuntime` is the object ``embed_subtree`` talks to when
``DistributedPlanarEmbedding(..., shard_workers=N)`` turns sharding on:

* ``plan_children`` runs at each multi-child call, costs the hanging
  subtrees via the shared E16 :class:`~repro.core.index.RecursionIndex`,
  batches the medium-sized ones into work units
  (:func:`~repro.shard.planner.plan_units`), flattens each unit
  (:mod:`~repro.shard.flat`) and submits it to a lazy
  ``ProcessPoolExecutor`` whose initializer wipes the process-global
  caches (:mod:`~repro.shard.caches`).  Tickets come back keyed by
  subtree root.
* ``consume`` is called by the child loop *in canonical sibling order*
  for each shipped subtree and turns the worker's flat result back into
  a rich part plus branch metrics.

Determinism contract — the whole point of the design:

A worker's output depends on the evolving ``current`` graph **only
through the verdicts of its ``try_split`` calls** (part graphs and
boundaries come from the immutable wrapped graph; everything else is a
pure function of the subtree).  Each worker journals every ``try_split``
(mutation + verdict); ``consume`` replays the journal against the
parent's authoritative graph.  If every replayed verdict matches, the
worker result is *exactly* what the sequential path would have
computed, and replay has regenerated the authoritative side effects
(graph mutations, split counters, oracle counters, rotation and memo) —
so the worker's counters are discarded and the adopted part, ledger,
trace records, and grafted span are bit-identical to sequential
execution.
On any divergence (the shipped snapshot was stale), the graph, counters
and oracle are rolled back to the pre-replay state and the subtree is
recomputed inline; staleness costs time, never fidelity.  Worker
crashes and in-worker embedding errors fall back the same way, so
errors surface at the exact point sequential execution would raise.

Sharding is refused (``_make_shard_runtime`` returns ``None``) under
reference paths, fault injection, and causal recording — those modes
hook per-message state that cannot cross a process boundary.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from ..congest.metrics import RoundMetrics
from ..congest.network import scheduler_override
from ..core.index import RecursionIndex
from ..obs import Tracer
from ..planar.scoped import ScopedPlanarityOracle
from ..primitives.bfs import BfsTree
from .caches import clear_caches
from .flat import FlatGraph, FlatSubproblem, encode_part, encode_subproblem
from .planner import plan_units

__all__ = ["DEFAULT_MIN_SHIP", "ShardRuntime", "run_unit"]

# Below this many vertices the IPC round trip costs more than embedding
# inline.  Overridable for tests, whose graph families are tiny.  (Grid
# BFS trees hang ~63-vertex subtrees off the splitter path; the
# threshold must sit below the bulk of the size distribution.)
DEFAULT_MIN_SHIP = 32


def _decode_tree(sub: FlatSubproblem, start: int, end: int) -> BfsTree:
    """Rebuild one subtree's :class:`BfsTree` from the Euler-ordered
    arrays.  Preorder guarantees a parent appears before its children
    and siblings in tree order, so one linear pass reproduces the child
    lists exactly."""
    nodes = sub.tree_nodes
    parent_idx = sub.parent_idx
    depths = sub.depths
    root = nodes[start]
    parent: dict = {}
    children: dict = {}
    depth_of: dict = {}
    for i in range(start, end):
        v = nodes[i]
        children[v] = []
        depth_of[v] = depths[i]
        p = parent_idx[i]
        if p < 0:
            parent[v] = None
        else:
            u = nodes[p]
            parent[v] = u
            children[u].append(v)
    return BfsTree(root=root, parent=parent, children=children, depth_of=depth_of)


def run_unit(sub: FlatSubproblem) -> list:
    """Worker entry point: embed every subtree of one work unit.

    Runs in a pool process (module-level so it pickles by reference).
    All subtrees of the unit share one decoded ``current`` snapshot, one
    scoped oracle, and one split journal — they execute back-to-back in
    sibling order, exactly as the sequential child loop would against
    that graph state.  Returns one entry per subtree:

    * success: ``{"part", "metrics", "records", "splits", "span",
      "busy_s"}`` — the flat part, the branch ledger dict, the
      ``CallRecord`` list, this subtree's slice of the split journal,
      the span tree (or ``None`` untraced), and worker CPU seconds;
    * failure: ``{"error": "<Type>: <msg>"}`` for the raising subtree
      and ``{"skipped": True}`` for the rest — the parent recomputes
      them inline so errors surface at the sequential point.
    """
    from ..core.recursion import RecursionContext, embed_subtree

    results: list = []
    with scheduler_override(sub.scheduler):
        current = sub.current.to_graph()
        member_graph = sub.member_rows.to_row_graph()
        oracle = ScopedPlanarityOracle(current)
        oracle.known_planar = sub.known_planar
        split_log: list = []
        slices = sub.subtree_slices()
        for k, (start, end, level, path) in enumerate(slices):
            tree = _decode_tree(sub, start, end)
            index = RecursionIndex.build(tree)
            tracer = Tracer() if sub.traced else None
            ctx = RecursionContext(
                graph=member_graph,
                tree=tree,
                bandwidth=sub.bandwidth,
                current=current,
                splitter_strategy=sub.splitter_strategy,
                tracer=tracer,
                reference_paths=False,
                index=index,
                oracle=oracle,
                split_log=split_log,
            )
            mark = len(split_log)
            t0 = time.perf_counter()
            try:
                part, branch = embed_subtree(ctx, tree.root, level=level, path=path)
            except Exception as exc:  # noqa: BLE001 — shipped back, re-raised inline
                results.append({"error": f"{type(exc).__name__}: {exc}"})
                results.extend({"skipped": True} for _ in slices[k + 1 :])
                return results
            results.append(
                {
                    "part": encode_part(part),
                    "metrics": branch.to_dict(),
                    "records": ctx.trace,
                    "splits": split_log[mark:],
                    "span": (
                        tracer.roots[0].to_tree_dict()
                        if tracer is not None and tracer.roots
                        else None
                    ),
                    "busy_s": time.perf_counter() - t0,
                }
            )
    return results


class ShardRuntime:
    """Pool, planner, and consume-side verification for one run."""

    def __init__(
        self,
        workers: int,
        total_n: int,
        traced: bool = False,
        min_ship: int | None = None,
    ) -> None:
        if min_ship is None:
            env = os.environ.get("REPRO_SHARD_MIN_SHIP", "")
            min_ship = max(2, int(env)) if env else DEFAULT_MIN_SHIP
        self.workers = workers
        self.total_n = total_n
        self.traced = traced
        self.min_ship = min_ship
        # A subtree above this stays inline: its own recursion re-plans,
        # decomposing it into shippable grandchildren instead of hiding
        # the whole thing behind one worker.  The 4x floor keeps the
        # ship window open on small graphs, where total_n/(2*workers)
        # would collapse onto min_ship.
        self.max_unit = max(4 * min_ship, total_n // (2 * workers))
        self._pool: ProcessPoolExecutor | None = None
        self._snapshot: tuple | None = None  # (epoch, FlatGraph) of current
        self._inflight = 0  # shipped subtrees not yet consumed
        self._window_t0: float | None = None  # open dispatch-window start
        self.stats: dict = {
            "units_shipped": 0,
            "subtrees_shipped": 0,
            "subtrees_adopted": 0,
            "splits_replayed": 0,
            "fallback_worker_error": 0,
            "fallback_skipped": 0,
            "fallback_replay_mismatch": 0,
            "fallback_pool_error": 0,
            "pool_deaths": 0,  # BrokenExecutor: pool discarded, respawned lazily
            "busy_s": 0.0,  # worker CPU seconds of adopted subtrees
            "window_s": 0.0,  # union of wall intervals with work in flight
            "encode_s": 0.0,
        }

    # -- plan --------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=ctx,
                initializer=clear_caches,
            )
        return self._pool

    def _flat_current(self, ctx) -> FlatGraph:
        """Snapshot ``ctx.current``, cached until the next accepted or
        replayed split bumps ``mutation_epoch``."""
        snap = self._snapshot
        if snap is not None and snap[0] == ctx.mutation_epoch:
            return snap[1]
        t0 = time.perf_counter()
        flat = FlatGraph.encode(ctx.current)
        self.stats["encode_s"] += time.perf_counter() - t0
        self._snapshot = (ctx.mutation_epoch, flat)
        return flat

    def plan_children(
        self, ctx, hanging_roots: list, level: int, path: tuple
    ) -> dict | None:
        """Ship batches of the hanging subtrees; tickets keyed by root.

        Returns ``None`` (all children inline) when nothing profits:
        fewer than two units and no inline work ahead of the first
        shipped child means the consume loop would block immediately
        with nothing overlapping.
        """
        index = ctx.index
        if index is None or len(hanging_roots) < 2:
            return None
        sizes = [index.subtree_size(w) for w in hanging_roots]
        units = plan_units(sizes, self.min_ship, self.max_unit)
        if not units or (len(units) == 1 and units[0][0] == 0):
            return None
        from ..congest.network import default_scheduler

        flat_current = self._flat_current(ctx)
        scheduler = default_scheduler()
        pool = self._ensure_pool()
        tickets: dict = {}
        for unit in units:
            t0 = time.perf_counter()
            sub = encode_subproblem(
                ctx,
                [(hanging_roots[j], level, path + (j,)) for j in unit],
                flat_current,
                scheduler,
                self.traced,
            )
            self.stats["encode_s"] += time.perf_counter() - t0
            if self._inflight == 0 and self._window_t0 is None:
                self._window_t0 = time.perf_counter()
            future = pool.submit(run_unit, sub)
            self._inflight += len(unit)
            for slot, j in enumerate(unit):
                tickets[hanging_roots[j]] = (future, slot)
            self.stats["units_shipped"] += 1
            self.stats["subtrees_shipped"] += len(unit)
        return tickets

    # -- consume -----------------------------------------------------------

    def consume(self, ctx, ticket, w, level: int, child_path: tuple):
        """Adopt (or recompute) the shipped subtree rooted at ``w``.

        Called strictly in canonical sibling order.  Returns the same
        ``(part, branch_metrics)`` pair ``embed_subtree`` would.
        """
        future, slot = ticket
        self._inflight -= 1
        closing = self._inflight == 0
        try:
            try:
                entry = future.result()[slot]
            except BrokenExecutor:
                # A worker died (SIGKILL, OOM): the whole pool is broken.
                # Typed propagation — discard it so the next plan_children
                # respawns a fresh pool, and recompute this subtree
                # inline; the serve-layer retry above composes with this
                # (its re-attempt lands on the healed pool).
                self.stats["fallback_pool_error"] += 1
                self.stats["pool_deaths"] += 1
                self._discard_pool()
                return self._inline(ctx, w, level, child_path)
            except Exception:  # pickling failure, cancelled future, ...
                self.stats["fallback_pool_error"] += 1
                return self._inline(ctx, w, level, child_path)
            if "part" not in entry:
                key = "fallback_worker_error" if "error" in entry else "fallback_skipped"
                self.stats[key] += 1
                return self._inline(ctx, w, level, child_path)
            if not self._replay(ctx, entry["splits"]):
                self.stats["fallback_replay_mismatch"] += 1
                return self._inline(ctx, w, level, child_path)
            ctx.trace.extend(entry["records"])
            if ctx.tracer is not None and entry["span"] is not None:
                ctx.tracer.graft(entry["span"])
            part = entry["part"].to_part()
            branch = RoundMetrics.from_dict(entry["metrics"])
            self.stats["subtrees_adopted"] += 1
            self.stats["busy_s"] += entry["busy_s"]
            return part, branch
        finally:
            if closing and self._window_t0 is not None:
                self.stats["window_s"] += time.perf_counter() - self._window_t0
                self._window_t0 = None

    def _replay(self, ctx, splits: list) -> bool:
        """Replay the worker's split journal on the authoritative graph.

        Every verdict matching proves the worker saw the graph
        faithfully; the replay itself regenerates the authoritative
        mutations, split counters, and oracle state.  On a mismatch,
        everything is restored exactly (adjacency snapshots put back
        in place, preserving dict identity and insertion order; the
        oracle's planar rotation with its counters and memo, since the
        mismatching split may already have been applied to it) and the
        caller recomputes inline.
        """
        if not splits:
            return True
        adj = ctx.current._adj
        snap_adj = {v: dict(row) for v, row in adj.items()}
        snap_counters = (ctx.split_tests, ctx.split_rejections)
        snap_oracle = ctx.oracle.snapshot_state() if ctx.oracle is not None else None
        for copy, coordinator, rerouted, verdict in splits:
            if ctx.try_split(copy, coordinator, list(rerouted)) == verdict:
                self.stats["splits_replayed"] += 1
                continue
            # Stale snapshot: roll back and recompute inline.
            adj.clear()
            adj.update(snap_adj)
            ctx.split_tests, ctx.split_rejections = snap_counters
            if snap_oracle is not None:
                ctx.oracle.restore_state(snap_oracle)
            ctx.mutation_epoch += 1  # force a fresh snapshot next plan
            return False
        return True

    def _inline(self, ctx, w, level: int, child_path: tuple):
        from ..core.recursion import embed_subtree

        return embed_subtree(ctx, w, level, child_path)

    def _discard_pool(self) -> None:
        """Drop a broken pool so ``_ensure_pool`` builds a fresh one.

        Pending tickets on the dead pool resolve to ``BrokenExecutor``
        and fall back inline one by one — correctness is untouched, the
        run just loses its overlap until the respawn.
        """
        from ..obs.flightrec import SERVICE_LANE, default_flight_recorder

        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 — a broken pool may refuse teardown
                pass
            self._pool = None
        recorder = default_flight_recorder()
        if recorder is not None:
            recorder.record(SERVICE_LANE, "shard-pool-death", None, workers=self.workers)

    # -- teardown ----------------------------------------------------------

    def shutdown(self) -> dict:
        """Stop the pool and return the run's shard statistics.

        Called from a ``finally`` — must never raise.
        """
        if self._window_t0 is not None:
            self.stats["window_s"] += time.perf_counter() - self._window_t0
            self._window_t0 = None
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 — teardown best effort
                pass
            self._pool = None
        stats = dict(self.stats)
        stats["workers"] = self.workers
        stats["min_ship"] = self.min_ship
        stats["max_unit"] = self.max_unit
        if stats["window_s"] > 0:
            stats["shipped_speedup"] = round(stats["busy_s"] / stats["window_s"], 3)
        return stats
