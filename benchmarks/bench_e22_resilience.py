"""E22 — service availability under process chaos: goodput, typed
verdicts, and bit-identical survivors.

E17 proved the *simulated network* survives seeded chaos; this bench
pins the same promise for the *real process layer*
(:mod:`repro.serve.resilience`).  Four scenarios, all fully seeded and
replayable:

* **kill plan** (the standard gate): a :class:`ChaosPool` SIGKILLs pool
  workers at a fixed rate per attempt while a batch of distinct
  topologies runs.  Gates: **every** job gets a typed verdict, results
  stay in submission order, every non-shed job ends ``ok``, and each
  ``ok`` record is **bit-identical** to the fault-free reference run —
  chaos may cost retries, never answers.
* **quarantine**: one poison job kills its worker on every attempt; it
  must be isolated as ``quarantined`` while every other job stays
  ``ok``.
* **deadline**: a job slowed far past ``deadline_s`` must resolve as
  ``timeout`` (typed, exit 5), the rest unaffected.
* **shed**: a bounded admission queue refuses exactly the overflow jobs
  as ``shed``, deterministically (the tail of the submission order).

Artifacts: the chaos run's flight-recorder events and the fully
resolved chaos plan are always written to ``resilience_flight.jsonl`` /
``resilience_chaos_plan.jsonl`` at the repo root — CI uploads both on
failure, so a tripped gate ships its exact kill/latency schedule.

Gates live in ``resilience_budget.json``.  ``REPRO_BENCH_SMOKE=1``
shrinks the workload (smaller grids, fewer jobs), not the promises.
"""

import json
import os
import time
from pathlib import Path

from repro.analysis import print_table, verdict
from repro.obs import FlightRecorder, observe
from repro.serve import ChaosPool, ResiliencePolicy, ServiceDriver, load_jobs

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

_REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGET_PATH = Path(__file__).resolve().parent / "resilience_budget.json"
FLIGHT_PATH = _REPO_ROOT / "resilience_flight.jsonl"
CHAOS_PLAN_PATH = _REPO_ROOT / "resilience_chaos_plan.jsonl"

N_JOBS = 8 if SMOKE else 16
GRID = (4, 4) if SMOKE else (6, 6)
KILL_SEED = 22
KILL_RATE = 0.25
# Generous on purpose: at workers=2 every SIGKILL also burns an attempt
# on the job sharing the pool (collateral), so the budget must absorb
# both direct kills and neighbors' kills before the goodput gate.
RETRIES = 7

FAST = dict(backoff_base_s=0.01, backoff_cap_s=0.05)


def _jobs(n=N_JOBS):
    # Distinct topologies (grid columns vary) so the cacheless driver
    # computes every job — chaos has to be survived, not cached away.
    rows, cols = GRID
    return load_jobs(
        json.dumps({"id": f"j{i}", "demo": ["grid", rows, cols + (i % 4)]})
        for i in range(n)
    )


def _canon(record):
    return json.dumps(record, sort_keys=True)


def _write_artifacts(recorder, plan, job_ids):
    recorder.dump(FLIGHT_PATH)
    with open(CHAOS_PLAN_PATH, "w") as f:
        f.write(json.dumps({"type": "chaos-plan", **plan.to_dict()}) + "\n")
        for row in plan.decisions(job_ids, attempts=1 + RETRIES):
            f.write(json.dumps(row, sort_keys=True) + "\n")


def run_experiment(report=None):
    jobs = _jobs()
    job_ids = [j.id for j in jobs]

    # Fault-free reference: the bit-identical baseline for survivors.
    reference = ServiceDriver(workers=2, cache=None).run(jobs)
    assert all(o.outcome == "ok" for o in reference)

    # -- kill plan (the standard gate) --------------------------------
    plan = ChaosPool(seed=KILL_SEED, kill_rate=KILL_RATE)
    driver = ServiceDriver(
        workers=2, cache=None,
        resilience=ResiliencePolicy(seed=KILL_SEED, max_retries=RETRIES, **FAST),
        chaos=plan,
    )
    recorder = FlightRecorder(capacity=512)
    t0 = time.perf_counter()
    with observe(recorder):
        outcomes = driver.run(jobs)
    wall = time.perf_counter() - t0
    _write_artifacts(recorder, plan, job_ids)

    planned_kills = sum(plan.kills(j, 0) for j in job_ids)
    non_shed = [o for o in outcomes if o.outcome != "shed"]
    identical = sum(
        _canon(o.record) == _canon(r.record)
        for o, r in zip(outcomes, reference)
        if o.outcome == "ok"
    )
    kill = {
        "outcomes": [o.outcome for o in outcomes],
        "ordered": [o.id for o in outcomes] == job_ids,
        "typed": all(o.outcome in
                     ("ok", "non-planar", "degraded", "error",
                      "timeout", "quarantined", "shed")
                     for o in outcomes),
        "ok": sum(o.outcome == "ok" for o in outcomes),
        "identical": identical,
        "non_shed_success": (
            sum(o.outcome == "ok" for o in non_shed) / len(non_shed)
        ),
        "planned_first_attempt_kills": planned_kills,
        "stats": driver.rstats.to_dict(),
        "wall_s": round(wall, 3),
        "goodput_jobs_per_s": round(len(outcomes) / wall, 3),
    }

    # -- quarantine: one poison job, everyone else unharmed.  One
    # worker: a poison kill takes the whole pool with it, so at
    # workers>=2 the job sharing the pool loses an attempt too
    # (collateral); serializing keeps the gate exact. -----------------
    qdriver = ServiceDriver(
        workers=1, cache=None,
        resilience=ResiliencePolicy(max_retries=2, **FAST),
        chaos=ChaosPool(kill_jobs=("j1",), kill_attempts=99),
    )
    qoutcomes = qdriver.run(jobs)
    quarantine = {
        "poison": qoutcomes[1].outcome,
        "others_ok": all(
            o.outcome == "ok" for o in qoutcomes if o.id != "j1"
        ),
        "stats": qdriver.rstats.to_dict(),
    }

    # -- deadline: the slow job (last, so nothing queues behind it)
    # resolves as a typed timeout --------------------------------------
    slow_id = job_ids[-1]
    tdriver = ServiceDriver(
        workers=2, cache=None,
        resilience=ResiliencePolicy(deadline_s=0.4, max_retries=1, **FAST),
        chaos=ChaosPool(slow_jobs=(slow_id,), latency_s=2.0),
    )
    toutcomes = tdriver.run(jobs)
    deadline = {
        "slow": toutcomes[-1].outcome,
        "others_ok": all(o.outcome == "ok" for o in toutcomes[:-1]),
        "timeouts": tdriver.rstats.timeouts,
    }

    # -- shed: bounded admission refuses exactly the overflow ---------
    limit = N_JOBS // 2
    sdriver = ServiceDriver(
        workers=2, cache=None,
        resilience=ResiliencePolicy(queue_limit=limit),
    )
    soutcomes = sdriver.run(jobs)
    shed = {
        "outcomes": [o.outcome for o in soutcomes],
        "admitted_ok": all(o.outcome == "ok" for o in soutcomes[:limit]),
        "overflow_shed": all(o.outcome == "shed" for o in soutcomes[limit:]),
        "shed": sdriver.rstats.shed,
    }

    results = {
        "kill": kill, "quarantine": quarantine,
        "deadline": deadline, "shed": shed,
    }
    if report is not None:
        report.record(
            scenario="kill", jobs=len(jobs), ok=kill["ok"],
            identical=kill["identical"],
            non_shed_success=round(kill["non_shed_success"], 4),
            pool_deaths=kill["stats"]["pool_deaths"],
            respawns=kill["stats"]["respawns"],
            retries=kill["stats"]["retries"],
            wall_s=kill["wall_s"],
            goodput_jobs_per_s=kill["goodput_jobs_per_s"],
        )
        report.record(scenario="quarantine", poison=quarantine["poison"],
                      others_ok=quarantine["others_ok"])
        report.record(scenario="deadline", slow=deadline["slow"],
                      others_ok=deadline["others_ok"],
                      timeouts=deadline["timeouts"])
        report.record(scenario="shed", queue_limit=limit,
                      shed=shed["shed"])
    print_table(
        ["scenario", "verdict counts", "pool deaths", "respawns", "notes"],
        [
            ["kill", f"{kill['ok']}/{len(jobs)} ok",
             kill["stats"]["pool_deaths"], kill["stats"]["respawns"],
             f"{kill['identical']} bit-identical,"
             f" {kill['goodput_jobs_per_s']} jobs/s"],
            ["quarantine", quarantine["poison"],
             quarantine["stats"]["pool_deaths"],
             quarantine["stats"]["respawns"], "poison isolated"],
            ["deadline", deadline["slow"], 0, 0,
             f"{deadline['timeouts']} attempt timeouts"],
            ["shed", f"{shed['shed']} shed", 0, 0,
             f"queue_limit {limit}"],
        ],
        title=f"E22: resilience under chaos, {N_JOBS} jobs, "
              f"kill_rate {KILL_RATE} seed {KILL_SEED}",
    )
    return results


def test_e22_resilience(run_once, bench_report):
    results = run_once(run_experiment, bench_report)
    budget = json.loads(BUDGET_PATH.read_text())
    kill = results["kill"]

    ok = verdict(
        "E22: every job gets a typed verdict in submission order",
        kill["typed"] and kill["ordered"],
        f"outcomes {kill['outcomes']}",
    )
    ok &= verdict(
        f"E22: non-shed success >= {budget['min_non_shed_success']}"
        " under the standard kill plan",
        kill["non_shed_success"] >= budget["min_non_shed_success"],
        f"{kill['non_shed_success']:.2%} "
        f"({kill['stats']['pool_deaths']} pool deaths survived)",
    )
    ok &= verdict(
        "E22: every ok verdict bit-identical to the fault-free run",
        kill["identical"] == kill["ok"],
        f"{kill['identical']}/{kill['ok']} identical",
    )
    ok &= verdict(
        "E22: the chaos plan actually killed workers",
        kill["stats"]["pool_deaths"] >= kill["planned_first_attempt_kills"] > 0,
        f"{kill['stats']['pool_deaths']} deaths vs "
        f"{kill['planned_first_attempt_kills']} planned first-attempt kills",
    )
    ok &= verdict(
        "E22: poison job quarantined, batch unharmed",
        results["quarantine"]["poison"] == "quarantined"
        and results["quarantine"]["others_ok"],
        str(results["quarantine"]),
    )
    ok &= verdict(
        "E22: deadline overrun is a typed timeout",
        results["deadline"]["slow"] == "timeout"
        and results["deadline"]["others_ok"],
        str(results["deadline"]),
    )
    ok &= verdict(
        "E22: overflow jobs shed deterministically",
        results["shed"]["admitted_ok"] and results["shed"]["overflow_shed"],
        f"{results['shed']['shed']} shed",
    )
    assert FLIGHT_PATH.exists() and CHAOS_PLAN_PATH.exists()
    assert ok
