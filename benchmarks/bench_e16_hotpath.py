"""E16 — hot-path overhaul: scoped split validation, shared recursion
statistics, and structural caching, pinned by a wall-clock gate.

The perf PR attacks the pipeline's centralized bookkeeping (full-graph
planarity tests per bundle split, per-call subtree walks, ``repr``-key
sorts, LR re-runs on isomorphic small parts) while keeping every ledger
and every output rotation bit-identical — the differential suite in
``tests/integration/test_reference_paths_differential.py`` proves the
invisibility against test-local references (a networkx whole-graph
split oracle, a walk-based recursion index, the simulator's leader
election); this bench pins the payoff:

* a wall-clock sweep over four planar families at n=1024 plus the
  n=4096 grid, compared against the *pre-overhaul* medians measured on
  the same machine (pinned below), asserting the tentpole >=2x
  end-to-end speedup on the grid family;
* a cProfile attribution pass (top cumulative functions into the bench
  record) so the next perf PR starts from data, not guesses;
* a wall-clock budget gate on fixed seeded workloads
  (``time_budget.json``), the timing analogue of E15's activation gate:
  generous (~5x headroom) so it only trips on order-of-magnitude
  regressions, never on runner noise;
* per-run oracle counters (witness answers vs whole-graph LR tests)
  recorded alongside the timings, showing *why* the splits got cheap.

``REPRO_BENCH_SMOKE=1`` keeps only the n<=256 budget-gate workloads and
a small profiled run.
"""

import cProfile
import json
import math
import os
import pstats
import time
from pathlib import Path

from repro import distributed_planar_embedding
from repro.analysis import print_table, verdict
from repro.planar.generators import (
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    triangulated_grid,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

BUDGET_PATH = Path(__file__).resolve().parent / "time_budget.json"

FAMILIES = {
    "grid": lambda n: grid_graph(math.isqrt(n), math.isqrt(n)),
    "trigrid": lambda n: triangulated_grid(math.isqrt(n), math.isqrt(n)),
    "maximal": lambda n: random_maximal_planar(n, seed=n),
    "outerplanar": lambda n: random_outerplanar(n, seed=n),
}

# Pre-overhaul pipeline medians (median-of-3 after one warm-up, same
# machine, measured at the seed commit immediately before this PR).
# These are the "before" of the before/after: the sweep below re-times
# the current code and reports the ratio.
PRE_OVERHAUL_MEDIAN_S = {
    "grid:1024": 1.307,
    "trigrid:1024": 2.011,
    "maximal:1024": 3.034,
    "outerplanar:1024": 4.982,
    "grid:4096": 7.053,
}

SWEEP = ["grid:1024", "trigrid:1024", "maximal:1024", "outerplanar:1024",
         "grid:4096"]
PROFILE_WORKLOAD = "grid:64" if SMOKE else "grid:1024"


def _make(key):
    family, n = key.rsplit(":", 1)
    return FAMILIES[family](int(n))


def _best_of_3(graph):
    """Best-of-3 wall clock after one warm-up run (caches hot, GC warm):
    the low-noise protocol the budgets and baselines are defined by."""
    result = distributed_planar_embedding(graph)
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = distributed_planar_embedding(graph)
        best = min(best, time.perf_counter() - t0)
    return result, best


def run_experiment(report=None):
    # -- before/after wall-clock sweep (full mode only) ------------------
    speedups = {}
    if not SMOKE:
        rows = []
        for key in SWEEP:
            g = _make(key)
            result, wall = _best_of_3(g)
            before = PRE_OVERHAUL_MEDIAN_S[key]
            speedups[key] = before / wall
            oracle = result.split_oracle or {}
            if report is not None:
                report.record_run(
                    g, result, wall, workload=key, mode="sweep",
                    before_s=before, speedup=round(speedups[key], 2),
                    split_tests=result.split_tests,
                    split_rejections=result.split_rejections,
                    oracle_scoped=oracle.get("scoped_tests", 0),
                    oracle_full=oracle.get("full_tests", 0),
                )
            rows.append([
                key, round(before, 3), round(wall, 3),
                f"{speedups[key]:.2f}x", result.split_tests,
                oracle.get("scoped_tests", 0),
            ])
        print_table(
            ["workload", "before_s", "after_s", "speedup", "splits", "scoped"],
            rows,
            title="E16: before/after wall-clock sweep (best-of-3)",
        )

    # -- cProfile attribution --------------------------------------------
    g = _make(PROFILE_WORKLOAD)
    distributed_planar_embedding(g)  # warm caches before attributing
    profiler = cProfile.Profile()
    profiler.enable()
    distributed_planar_embedding(g)
    profiler.disable()
    top = []
    for (file, line, name), (cc, nc, tt, ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        top.append({
            "function": name, "file": os.path.basename(file), "line": line,
            "ncalls": nc, "tottime_s": round(tt, 6), "cumtime_s": round(ct, 6),
        })
    top.sort(key=lambda r: (-r["cumtime_s"], r["file"], r["line"], r["function"]))
    top = top[:10]
    if report is not None:
        report.record(mode="profile", workload=PROFILE_WORKLOAD, top=top)
    print_table(
        ["cumtime_s", "tottime_s", "ncalls", "function"],
        [[r["cumtime_s"], r["tottime_s"], r["ncalls"],
          f"{r['function']} ({r['file']}:{r['line']})"] for r in top],
        title=f"E16: cProfile top cumulative ({PROFILE_WORKLOAD})",
    )

    # -- wall-clock budget gate ------------------------------------------
    budget = json.loads(BUDGET_PATH.read_text())
    gate = {}
    gate_rows = []
    for key, allowed in budget["workloads"].items():
        _result, wall = _best_of_3(_make(key))
        gate[key] = (wall, allowed)
        if report is not None:
            report.record(
                mode="budget-gate", workload=key, wall_s=round(wall, 6),
                budget_s=allowed, within=wall <= allowed,
            )
        gate_rows.append(
            [key, round(wall, 4), allowed, "ok" if wall <= allowed else "OVER"]
        )
    print_table(
        ["workload", "wall_s", "budget_s", "verdict"],
        gate_rows,
        title="E16: wall-clock budget gate (fixed seeded workloads)",
    )
    return speedups, gate


def test_e16_hotpath(run_once, bench_report):
    speedups, gate = run_once(run_experiment, bench_report)

    ok = True
    for key, (wall, allowed) in gate.items():
        ok &= verdict(
            f"E16: {key} within wall-clock budget",
            wall <= allowed,
            f"{wall:.4f}s used, {allowed}s budgeted",
        )
    if not SMOKE:
        # Acceptance: >=2x end-to-end on the grid family at n>=1024.
        for key in ("grid:1024", "grid:4096"):
            ok &= verdict(
                f"E16: {key} >= 2x vs pre-overhaul pipeline",
                speedups[key] >= 2.0,
                f"speedup {speedups[key]:.2f}x",
            )
        # The other families must at least clear the budget-gate floor.
        for key in ("trigrid:1024", "maximal:1024", "outerplanar:1024"):
            ok &= verdict(
                f"E16: {key} >= 1.5x vs pre-overhaul pipeline",
                speedups[key] >= 1.5,
                f"speedup {speedups[key]:.2f}x",
            )
    assert ok
