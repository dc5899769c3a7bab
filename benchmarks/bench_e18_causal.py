"""E18 — causal tracing: critical path vs measured rounds vs D·log n.

PR 6 added message-level causal tracing (:mod:`repro.obs.causal`): one
Lamport chain-clock per node at the simulator's delivery hook, yielding
the **critical path** — the longest happens-before chain of messages —
per network execution.  The paper's O(D·log n) analysis bounds exactly
this chain length, so the causal report turns the headline round budget
into a measurable three-way sandwich::

    critical path  <=  real message rounds  <=  budget * D * ceil(log2 n)

This bench pins all three on the six seeded families:

* an exactness sweep: on a fault-free run every pipeline primitive is
  receive-driven (flood / convergecast / broadcast), so each round's
  frontier extends a maximal chain and ``critical_path == real message
  rounds`` **exactly** — any slack would mean a primitive burns rounds
  no message chain forces;
* a causal budget gate (``causal_budget.json``): real message rounds
  stay within a per-workload multiple of the ``D * ceil(log2 n)``
  prediction (D from the run's own 2-approximation), the causal
  restatement of the E1 headline bound;
* a chaos sweep under the canonical E17 fault plan: with drops, delays
  and retransmissions the equality must degrade to the structural
  inequality ``critical_path <= real message rounds`` — retransmitted
  rounds carry traffic that extends no new chain.

``REPRO_BENCH_SMOKE=1`` changes nothing here: the six workloads are
already the smoke-sized gate set.
"""

import json
import math
from pathlib import Path

from repro import distributed_planar_embedding
from repro.analysis import print_table, verdict
from repro.congest import FaultPlan
from repro.core import self_healing_embedding
from repro.obs import CausalRecorder, observe
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)

BUDGET_PATH = Path(__file__).resolve().parent / "causal_budget.json"

#: The six seeded families — deterministic workloads, keyed like the
#: budget file.
WORKLOADS = {
    "grid:5x7": lambda: grid_graph(5, 7),
    "trigrid:4x6": lambda: triangulated_grid(4, 6),
    "cycle:17": lambda: cycle_graph(17),
    "outerplanar:30": lambda: random_outerplanar(30, seed=3),
    "maximal:24": lambda: random_maximal_planar(24, seed=7),
    "tree:33": lambda: random_tree(33, seed=1),
}


def _dlogn(diameter_upper: int, n: int) -> int:
    return diameter_upper * max(1, math.ceil(math.log2(max(2, n))))


def run_experiment(report=None):
    budget = json.loads(BUDGET_PATH.read_text())

    # -- exactness sweep + D·log n gate ---------------------------------
    rows = []
    sweep = {}
    for key, make in WORKLOADS.items():
        g = make()
        recorder = CausalRecorder()
        with observe(recorder):
            result = distributed_planar_embedding(g)
        causal = recorder.report()
        critical = causal["critical_path"]
        real = causal["real_rounds"]
        bound = _dlogn(result.diameter_upper, g.num_nodes)
        allowed = budget["workloads"][key]["budget"]
        sweep[key] = {
            "critical": critical,
            "real": real,
            "ledger": result.metrics.rounds,
            "bound": bound,
            "budget": allowed,
            "ratio": real / max(1, bound),
        }
        if report is not None:
            report.record_run(
                g, result, 0.0, workload=key, mode="exactness-sweep",
                critical_path=critical, real_rounds=real,
                dlogn_bound=bound, ratio=round(real / max(1, bound), 3),
            )
        rows.append([
            key, g.num_nodes, result.diameter_upper, critical, real,
            result.metrics.rounds, bound, round(real / max(1, bound), 2),
            allowed,
        ])
    print_table(
        ["workload", "n", "D", "critical", "real", "ledger", "D*log n",
         "ratio", "budget"],
        rows,
        title="E18: critical path vs measured rounds vs D*log n",
    )

    # -- chaos sweep: equality degrades to the inequality ---------------
    plan = FaultPlan.parse(budget["chaos_plan"], seed=budget["chaos_seed"])
    chaos_rows = []
    chaos = {}
    for key in ("grid:5x7", "trigrid:4x6"):
        g = WORKLOADS[key]()
        recorder = CausalRecorder()
        with observe(recorder):
            result = self_healing_embedding(g, faults=plan, max_retries=3)
        causal = recorder.report()
        chaos[key] = {
            "critical": causal["critical_path"],
            "real": causal["real_rounds"],
            "degraded": getattr(result, "degraded", False),
        }
        if report is not None:
            report.record(
                mode="chaos-sweep", workload=key,
                critical_path=causal["critical_path"],
                real_rounds=causal["real_rounds"],
                slack=causal["real_rounds"] - causal["critical_path"],
            )
        chaos_rows.append([
            key, causal["critical_path"], causal["real_rounds"],
            causal["real_rounds"] - causal["critical_path"],
            "ok" if not chaos[key]["degraded"] else "DEGRADED",
        ])
    print_table(
        ["workload", "critical", "real", "slack", "outcome"],
        chaos_rows,
        title=f"E18: chaos sweep ({budget['chaos_plan']},"
              f" seed={budget['chaos_seed']})",
    )
    return sweep, chaos


def test_e18_causal(run_once, bench_report):
    sweep, chaos = run_once(run_experiment, bench_report)

    ok = True
    for key, row in sweep.items():
        # The structural guarantee: no chain is longer than the rounds.
        ok &= verdict(
            f"E18: {key} critical path <= real rounds",
            row["critical"] <= row["real"],
            f"critical {row['critical']} vs real {row['real']}",
        )
        # The receive-driven exactness claim, fault-free.
        ok &= verdict(
            f"E18: {key} critical path exact on fault-free run",
            row["critical"] == row["real"],
            f"slack {row['real'] - row['critical']}",
        )
        # Message rounds never exceed the ledger's clock.
        ok &= verdict(
            f"E18: {key} real rounds <= ledger rounds",
            row["real"] <= row["ledger"],
            f"real {row['real']} vs ledger {row['ledger']}",
        )
        # The causal restatement of the headline bound.
        ok &= verdict(
            f"E18: {key} within causal D*log n budget",
            row["real"] <= row["budget"] * row["bound"],
            f"real {row['real']} vs {row['budget']} * {row['bound']}"
            f" (ratio {row['ratio']:.2f})",
        )
    for key, row in chaos.items():
        ok &= verdict(
            f"E18: {key} inequality survives chaos",
            row["critical"] <= row["real"],
            f"critical {row['critical']} vs real {row['real']}",
        )
        ok &= verdict(
            f"E18: {key} heals under chaos", not row["degraded"],
        )
    assert ok
