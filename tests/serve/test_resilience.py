"""The serving resilience layer (serve/resilience.py + driver threading):
seeded backoff purity, chaos determinism, retry/respawn/quarantine,
deadlines, load shedding, and typed infrastructure errors."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    ChaosPool,
    PoolSupervisor,
    ResiliencePolicy,
    ResilienceStats,
    ServiceDriver,
    load_jobs,
    retry_delay,
)

FAST = ResiliencePolicy(max_retries=2, backoff_base_s=0.0, backoff_cap_s=0.0)


def _jobs(n, demo=("grid", 3, 3)):
    return load_jobs(
        json.dumps({"id": f"j{i}", "demo": list(demo)}) for i in range(n)
    )


class TestRetryDelay:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        job_id=st.text(max_size=40),
        attempt=st.integers(min_value=0, max_value=12),
    )
    def test_pure_function_of_seed_job_attempt(self, seed, job_id, attempt):
        # The FaultPlan replayability contract, one level up: the whole
        # backoff schedule of a chaos run is reproducible from its seed.
        first = retry_delay(seed, job_id, attempt)
        assert first == retry_delay(seed, job_id, attempt)
        if attempt < 1:
            assert first == 0.0
        else:
            envelope = min(2.0, 0.05 * 2.0 ** (attempt - 1))
            assert 0.5 * envelope <= first < envelope

    def test_distinct_keys_usually_differ(self):
        draws = {retry_delay(0, f"j{i}", a) for i in range(20) for a in (1, 2, 3)}
        assert len(draws) > 50  # jitter actually varies per (job, attempt)

    def test_policy_delay_uses_policy_constants(self):
        policy = ResiliencePolicy(seed=7, backoff_base_s=0.2, backoff_cap_s=0.3)
        assert policy.delay("x", 1) == retry_delay(7, "x", 1, 0.2, 0.3)
        assert policy.delay("x", 5) <= 0.3

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(deadline_s=0)
        with pytest.raises(ValueError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(queue_limit=-1)
        with pytest.raises(ValueError):
            ResiliencePolicy(quarantine_after=0)


class TestChaosPool:
    def test_decisions_are_deterministic(self):
        plan = ChaosPool(seed=11, kill_rate=0.3, latency_rate=0.2, latency_s=0.05)
        ids = [f"j{i}" for i in range(30)]
        assert plan.decisions(ids) == plan.decisions(ids)
        assert ChaosPool.from_dict(plan.to_dict()) == plan

    def test_explicit_victims(self):
        plan = ChaosPool(kill_jobs=("poison",), kill_attempts=2,
                         slow_jobs=("slow",), latency_s=0.5)
        assert plan.kills("poison", 0) and plan.kills("poison", 1)
        assert not plan.kills("poison", 2)
        assert not plan.kills("other", 0)
        assert plan.latency("slow", 3) == 0.5
        assert plan.latency("other", 0) == 0.0

    def test_parse_round_trip(self):
        plan = ChaosPool.parse("kill=0.2,latency=0.3:0.05,seed=7")
        assert plan.kill_rate == 0.2
        assert plan.latency_rate == 0.3
        assert plan.latency_s == 0.05
        assert plan.seed == 7
        with pytest.raises(ValueError):
            ChaosPool.parse("explode=1")
        with pytest.raises(ValueError):
            ChaosPool(kill_rate=1.5)


class TestInlineResilience:
    """workers=0: ChaosKilledError drives the same retry/quarantine
    ladder as a real pool death, without forking."""

    def test_kill_then_retry_succeeds(self):
        driver = ServiceDriver(
            workers=0, resilience=FAST,
            chaos=ChaosPool(kill_jobs=("j1",), kill_attempts=1),
        )
        outcomes = driver.run(_jobs(3))
        assert [o.outcome for o in outcomes] == ["ok", "ok", "ok"]
        assert driver.rstats.pool_deaths == 1
        assert driver.rstats.retries == 1
        assert driver.rstats.requeued == 1

    def test_poison_job_is_quarantined_not_batch(self):
        driver = ServiceDriver(
            workers=0, resilience=FAST,
            chaos=ChaosPool(kill_jobs=("j1",), kill_attempts=99),
        )
        outcomes = driver.run(_jobs(3))
        assert [o.outcome for o in outcomes] == ["ok", "quarantined", "ok"]
        assert outcomes[1].record["quarantined"]["pool_deaths"] == 3
        assert driver.exit_code(outcomes) == 6
        assert driver.rstats.quarantined == 1

    def test_quarantine_after_cuts_the_retry_budget(self):
        driver = ServiceDriver(
            workers=0,
            resilience=ResiliencePolicy(
                max_retries=5, backoff_base_s=0.0, backoff_cap_s=0.0,
                quarantine_after=2,
            ),
            chaos=ChaosPool(kill_jobs=("j0",), kill_attempts=99),
        )
        outcomes = driver.run(_jobs(1))
        assert outcomes[0].outcome == "quarantined"
        assert outcomes[0].record["quarantined"]["pool_deaths"] == 2

    def test_ok_verdicts_bit_identical_to_fault_free(self):
        plain = ServiceDriver(workers=0).run(_jobs(3))
        chaotic = ServiceDriver(
            workers=0, resilience=FAST,
            chaos=ChaosPool(kill_jobs=("j0", "j2"), kill_attempts=1),
        ).run(_jobs(3))
        for a, b in zip(plain, chaotic):
            assert b.outcome == "ok"
            assert json.dumps(a.record, sort_keys=True) == json.dumps(
                b.record, sort_keys=True
            )

    def test_shed_beyond_queue_limit(self):
        driver = ServiceDriver(
            workers=0, resilience=ResiliencePolicy(queue_limit=2)
        )
        outcomes = driver.run(_jobs(5))
        assert [o.outcome for o in outcomes] == ["ok", "ok", "shed", "shed", "shed"]
        assert [o.cache for o in outcomes[2:]] == ["shed"] * 3
        assert driver.rstats.shed == 3
        assert driver.exit_code(outcomes) == 7
        report = driver.aggregate(outcomes, 1.0)
        assert report["outcomes"]["shed"] == 3
        assert report["resilience"]["shed"] == 3

    def test_infrastructure_error_yields_typed_outcomes(self, monkeypatch):
        # Satellite: a driver-side crash must become per-job typed
        # `error` records, never an exception on the result futures.
        import repro.serve.driver as driver_mod

        def boom(graph):
            raise RuntimeError("canonicalizer exploded")

        from repro.serve import ResultCache

        monkeypatch.setattr(driver_mod, "canonical_form", boom)
        driver = ServiceDriver(workers=0, cache=ResultCache())
        outcomes = driver.run(_jobs(3))
        assert [o.outcome for o in outcomes] == ["error"] * 3
        for o in outcomes:
            assert o.record["error"]["where"] == "driver"
            assert "exploded" in o.record["error"]["message"]
        assert driver.exit_code(outcomes) == 3


class TestPoolResilience:
    """Real ProcessPoolExecutor workers killed by SIGKILL."""

    def test_pool_death_respawn_and_retry(self):
        driver = ServiceDriver(
            workers=1, resilience=FAST,
            chaos=ChaosPool(kill_jobs=("j1",), kill_attempts=1),
        )
        outcomes = driver.run(_jobs(3))
        assert [o.outcome for o in outcomes] == ["ok", "ok", "ok"]
        assert driver.rstats.pool_deaths >= 1
        assert driver.rstats.respawns >= 1

    def test_pool_poison_quarantine(self):
        driver = ServiceDriver(
            workers=1, resilience=FAST,
            chaos=ChaosPool(kill_jobs=("j0",), kill_attempts=99),
        )
        outcomes = driver.run(_jobs(2))
        assert outcomes[0].outcome == "quarantined"
        assert outcomes[1].outcome == "ok"

    def test_deadline_timeout_is_typed(self):
        # The slow job is LAST: an abandoned computation occupies the
        # single worker slot, so jobs queued behind it would also burn
        # deadline on queue wait — ordering keeps the assertion exact.
        driver = ServiceDriver(
            workers=1,
            resilience=ResiliencePolicy(
                deadline_s=0.5, max_retries=1,
                backoff_base_s=0.0, backoff_cap_s=0.0,
            ),
            chaos=ChaosPool(slow_jobs=("j2",), latency_s=3.0),
        )
        outcomes = driver.run(_jobs(3))
        assert [o.outcome for o in outcomes] == ["ok", "ok", "timeout"]
        assert outcomes[2].record["timeout"]["attempts"] == 2
        assert driver.rstats.timeouts == 2
        assert driver.exit_code(outcomes) == 5

    def test_per_job_deadline_overrides_driver_default(self):
        jobs = load_jobs([
            json.dumps({"id": "j0", "demo": ["grid", 3, 3]}),
            json.dumps({
                "id": "j1", "demo": ["grid", 3, 3],
                "config": {"deadline_s": 30},
            }),
        ])
        driver = ServiceDriver(
            workers=1,
            resilience=ResiliencePolicy(
                deadline_s=0.4, max_retries=0,
            ),
            chaos=ChaosPool(slow_jobs=("j1",), latency_s=1.0),
        )
        outcomes = driver.run(jobs)
        # j1 sleeps past the driver default but under its own budget.
        assert [o.outcome for o in outcomes] == ["ok", "ok"]


class TestSupervisor:
    def test_generation_gated_heal(self):
        import asyncio

        stats = ResilienceStats()
        sup = PoolSupervisor(1, stats)

        async def race():
            # Two consumers observed the same death: one respawn only.
            first = await sup.heal(0)
            second = await sup.heal(0)
            return first, second

        try:
            first, second = asyncio.run(race())
            assert (first, second) == (True, False)
            assert sup.generation == 1
            assert stats.respawns == 1
        finally:
            sup.shutdown()

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            PoolSupervisor(0)


class TestAggregateSurfacing:
    def test_fault_stats_summed_across_heal_jobs(self):
        jobs = load_jobs(
            json.dumps({
                "id": f"h{i}", "demo": ["grid", 3, 3], "kind": "heal",
                "config": {"faults": "drop=0.2", "fault_seed": i},
            })
            for i in range(2)
        )
        driver = ServiceDriver(workers=0, cache=None)
        outcomes = driver.run(jobs)
        report = driver.aggregate(outcomes, 1.0)
        assert report["fault_stats"] is not None
        assert report["fault_stats"]["dropped"] > 0
        per_job = sum(
            o.record["report"]["fault_stats"]["dropped"] for o in outcomes
        )
        assert report["fault_stats"]["dropped"] == per_job

    def test_no_fault_stats_is_null(self):
        driver = ServiceDriver(workers=0)
        outcomes = driver.run(_jobs(1))
        assert driver.aggregate(outcomes, 1.0)["fault_stats"] is None
