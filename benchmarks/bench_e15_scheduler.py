"""E15 — event-driven scheduler: wall-clock follows work, not n * rounds.

The active-set scheduler (PR 3) wakes a node only when it has mail or
asked to be woken, while staying metrics-identical to the dense
reference policy.  This bench measures what that buys:

* a scaling sweep over four planar families (n = 64 .. 4096) under the
  event scheduler, recording wall-clock, node activations, and the
  activations *saved* versus dense polling (on these fault-free runs the
  dense policy's count is exactly ``activations + saved`` — a
  conservation law the differential suite in ``tests/congest`` proves);
* a dense-vs-event differential on the n=1024 grid: both schedulers run
  the full pipeline, must agree on rounds/messages/words, and the event
  scheduler must touch >= 5x fewer nodes;
* a deterministic activation budget gate on fixed seeded n=64 workloads
  (``activation_budget.json``): scheduling is deterministic, so any
  regression that re-activates nodes shows up as an exact count diff.

``REPRO_BENCH_SMOKE=1`` keeps only the n=64 sizes and the budget gate.
"""

import json
import math
import os
import time
from pathlib import Path

from repro import distributed_planar_embedding
from repro.analysis import print_table, verdict
from repro.congest import scheduler_override
from repro.planar.generators import (
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    triangulated_grid,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SIZES = (64,) if SMOKE else (64, 256, 1024, 4096)
DIFF_N = 64 if SMOKE else 1024

BUDGET_PATH = Path(__file__).resolve().parent / "activation_budget.json"

FAMILIES = [
    ("grid", lambda n: grid_graph(math.isqrt(n), math.isqrt(n))),
    ("trigrid", lambda n: triangulated_grid(math.isqrt(n), math.isqrt(n))),
    ("maximal", lambda n: random_maximal_planar(n, seed=n)),
    ("outerplanar", lambda n: random_outerplanar(n, seed=n)),
]


def _embed(graph, scheduler=None):
    ctx = scheduler_override(scheduler) if scheduler else None
    t0 = time.perf_counter()
    if ctx is None:
        result = distributed_planar_embedding(graph)
    else:
        with ctx:
            result = distributed_planar_embedding(graph)
    return result, time.perf_counter() - t0


def run_experiment(report=None):
    # -- scaling sweep under the event scheduler -------------------------
    rows = []
    sweep = {}
    for name, make in FAMILIES:
        for n in SIZES:
            g = make(n)
            result, wall = _embed(g, scheduler="event")
            m = result.metrics
            dense_equiv = m.node_activations + m.activations_saved
            ratio = dense_equiv / max(1, m.node_activations)
            sweep[(name, g.num_nodes)] = ratio
            if report is not None:
                report.record_run(
                    g, result, wall, family=name, scheduler="event",
                    mode="sweep", activation_ratio=round(ratio, 2),
                )
            rows.append(
                [name, g.num_nodes, result.rounds, m.node_activations,
                 m.activations_saved, round(ratio, 1), round(wall, 3)]
            )
    print_table(
        ["family", "n", "rounds", "activations", "saved", "dense/event", "wall_s"],
        rows,
        title="E15: event-driven scheduler scaling sweep",
    )

    # -- dense-vs-event differential on the grid -------------------------
    g = grid_graph(math.isqrt(DIFF_N), math.isqrt(DIFF_N))
    diff = {}
    for scheduler in ("dense", "event"):
        result, wall = _embed(g, scheduler=scheduler)
        m = result.metrics
        diff[scheduler] = {
            "rounds": result.rounds,
            "messages": m.messages,
            "words": m.total_words,
            "activations": m.node_activations,
            "wall_s": wall,
        }
        if report is not None:
            report.record_run(
                g, result, wall, family="grid", scheduler=scheduler,
                mode="differential",
            )
    print_table(
        ["scheduler", "rounds", "messages", "words", "activations", "wall_s"],
        [[s, d["rounds"], d["messages"], d["words"], d["activations"],
          round(d["wall_s"], 3)] for s, d in diff.items()],
        title=f"E15: dense vs event differential (grid n={g.num_nodes})",
    )

    # -- deterministic activation budget gate ----------------------------
    budget = json.loads(BUDGET_PATH.read_text())
    gate_rows = []
    gate = {}
    for key, allowed in budget["workloads"].items():
        family, n = key.rsplit(":", 1)
        make = dict(FAMILIES)[family]
        result, wall = _embed(make(int(n)), scheduler="event")
        used = result.metrics.node_activations
        gate[key] = (used, allowed)
        if report is not None:
            report.record(
                mode="budget-gate", workload=key, activations=used,
                budget=allowed, within=used <= allowed, wall_s=round(wall, 6),
            )
        gate_rows.append([key, used, allowed, "ok" if used <= allowed else "OVER"])
    print_table(
        ["workload", "activations", "budget", "verdict"],
        gate_rows,
        title="E15: activation budget gate (fixed seeded workloads)",
    )
    return sweep, diff, gate


def test_e15_scheduler(run_once, bench_report):
    sweep, diff, gate = run_once(run_experiment, bench_report)

    ok = True
    # Both schedulers saw the same CONGEST execution.
    for field in ("rounds", "messages", "words"):
        ok &= verdict(
            f"E15: differential {field} identical",
            diff["dense"][field] == diff["event"][field],
            f"dense {diff['dense'][field]} vs event {diff['event'][field]}",
        )
    # The budget gate holds on every fixed workload.
    for key, (used, allowed) in gate.items():
        ok &= verdict(
            f"E15: {key} within activation budget",
            used <= allowed,
            f"{used} used, {allowed} budgeted",
        )
    if not SMOKE:
        # Acceptance: >= 5x fewer activations than dense on the n=1024 grid.
        ratio = diff["dense"]["activations"] / max(1, diff["event"]["activations"])
        ok &= verdict(
            "E15: event >= 5x fewer activations (grid n=1024)",
            ratio >= 5.0,
            f"dense/event activation ratio {ratio:.1f}",
        )
        families_at_1024 = [
            name for (name, n), _ in sweep.items() if n >= 1024
        ]
        ok &= verdict(
            "E15: full pipeline completes at n>=1024 on >=3 families",
            len(set(families_at_1024)) >= 3,
            f"families: {sorted(set(families_at_1024))}",
        )
    assert ok
