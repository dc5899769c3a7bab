"""The async batch driver: submission queue, pool workers, result cache.

``ServiceDriver`` turns the library's one-shot entry points into a
service: jobs go onto an :mod:`asyncio` submission queue, a fixed set of
consumer tasks feeds them to a process pool of 1..N stateless workers
(or runs them inline with ``workers=0`` — the sequential reference
driver the differential suite compares pools against), and every job
resolves to a typed :class:`JobOutcome` — ``ok``, ``non-planar``,
``degraded``, ``error``, or the resilience layer's ``timeout`` /
``quarantined`` / ``shed`` — in **deterministic submission order**
regardless of completion order.

The pool rides a :class:`~repro.serve.resilience.PoolSupervisor`: a
killed worker (``BrokenProcessPool``) costs one pool respawn, the
in-flight jobs are requeued with seeded backoff
(:func:`~repro.serve.resilience.retry_delay`), and a job that keeps
killing workers is quarantined instead of poisoning the batch —
every other job still gets its deterministic submission-order verdict.

With a :class:`~repro.serve.cache.ResultCache` attached, each job is
canonically hashed before dispatch; exact and canonical hits skip the
pool entirely, and concurrent duplicates of one in-flight computation
are **coalesced** (single-flight): the first occurrence computes, the
rest await its result, so a batch of R identical topologies performs
exactly one embedding computation at any worker count.  Cache counters
(`hits_exact` / `hits_canonical` / `hits_coalesced` / `misses`) surface
in the aggregate batch report; ``misses`` equals the number of actual
computations.

The process boundary carries only primitives (:meth:`Job.payload` /
verdict dicts), and every verdict is normalized through one JSON
round-trip before leaving the worker — so a warm cache hit is
*bit-identical* (same ``json.dumps`` bytes) to its cold run, which
``tests/serve/test_service_differential.py`` asserts.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from ..obs.flightrec import SERVICE_LANE
from ..obs.sinks import observer
from ..planar.graph import Graph
from .cache import ResultCache
from .canon import CanonicalForm, canonical_form, exact_fingerprint
from .jobs import Job, config_key
from .resilience import (
    ChaosKilledError,
    ChaosPool,
    PoolSupervisor,
    ResiliencePolicy,
    ResilienceStats,
    chaos_execute_inline,
    chaos_execute_job,
)

__all__ = ["JobOutcome", "ServiceDriver", "execute_job", "OUTCOME_EXIT"]

#: CLI exit code contributed by each per-job outcome; a batch exits with
#: the maximum over its jobs (see the exit-code table in README.md).
#: ``timeout`` / ``quarantined`` / ``shed`` are the resilience layer's
#: typed verdicts for jobs the service could not complete — worse than a
#: degraded result, because no result was produced at all.
OUTCOME_EXIT = {
    "ok": 0,
    "non-planar": 1,
    "error": 3,
    "degraded": 4,
    "timeout": 5,
    "quarantined": 6,
    "shed": 7,
}


def _normalize(record: dict) -> dict:
    """One canonical JSON round-trip: the bit-identical-verdict contract
    compares ``json.dumps(..., sort_keys=True)`` of these."""
    return json.loads(json.dumps(record, sort_keys=True, default=repr))


def _rotation_repr(rotation: dict) -> dict:
    return {repr(v): [repr(u) for u in order] for v, order in rotation.items()}


def execute_job(payload: dict) -> dict:
    """Run one serialized job to a verdict record.  **Worker-side**: this
    is the function shipped to pool processes, so it takes primitives and
    returns a plain normalized dict; every failure mode is folded into a
    typed outcome rather than an escaping exception.

    Records look like ``{"outcome": "ok", "report": {...},
    "rotation": {...}}`` (plus ``witness`` for non-planar, ``error`` /
    ``diagnosis`` for failures).
    """
    from ..core import NonPlanarNetworkError, distributed_planar_embedding

    graph = Graph()
    for v in payload.get("nodes", ()):
        graph.add_node(v)
    for u, v in payload.get("edges", ()):
        graph.add_edge(u, v)
    kind = payload.get("kind", "embed")
    config = payload.get("config", {})
    bandwidth = config.get("bandwidth", 1)

    try:
        if kind in ("embed", "certify"):
            result = distributed_planar_embedding(
                graph,
                bandwidth_words=bandwidth,
                certify=(kind == "certify"),
            )
            record = {
                "outcome": "ok",
                "report": result.to_report(),
                "rotation": _rotation_repr(result.rotation),
            }
            if kind == "certify" and not result.certification.accepted:
                # The verifier rejected our own output: an algorithm bug
                # (CLI exit 3), never cached.
                record["outcome"] = "error"
                record["error"] = {
                    "type": "CertificationRejected",
                    "message": result.certification.summary(),
                }
        elif kind == "churn":
            from ..certify import DynamicCertifiedEmbedding

            engine = DynamicCertifiedEmbedding(
                graph,
                incremental=config.get("incremental", True),
                bandwidth_words=bandwidth,
            )
            churn = engine.run_churn(
                config.get("churn_ops", 8), seed=config.get("churn_seed", 0)
            )
            result = engine.to_result()
            report = result.to_report()
            report["churn"] = churn.to_dict()
            record = {
                "outcome": "ok",
                "report": report,
                "rotation": _rotation_repr(result.rotation),
            }
            if not churn.accepted:
                # A patched (or rebuilt) certificate the verifier
                # rejected: an algorithm bug, never cached.
                record["outcome"] = "error"
                record["error"] = {
                    "type": "CertificationRejected",
                    "message": churn.final_certification.summary(),
                }
        elif kind == "heal":
            from ..congest.faults import FaultPlan
            from ..core import self_healing_embedding

            spec = config.get("faults")
            plan = (
                FaultPlan.parse(spec, seed=config.get("fault_seed", 0))
                if spec is not None
                else None
            )
            result = self_healing_embedding(
                graph,
                bandwidth_words=bandwidth,
                max_retries=config.get("max_retries", 3),
                faults=plan,
            )
            if getattr(result, "degraded", False):
                record = {
                    "outcome": "degraded",
                    "report": result.to_report(),
                    "diagnosis": result.diagnosis,
                }
            else:
                record = {
                    "outcome": "ok",
                    "report": result.to_report(),
                    "rotation": _rotation_repr(result.rotation),
                }
        else:
            record = {
                "outcome": "error",
                "error": {"type": "JobSpecError", "message": f"unknown kind {kind!r}"},
            }
    except NonPlanarNetworkError:
        from ..planar.kuratowski import classify_kuratowski, kuratowski_subgraph

        witness = kuratowski_subgraph(graph)
        record = {
            "outcome": "non-planar",
            "witness": {
                "kind": classify_kuratowski(witness),
                "nodes": witness.num_nodes,
                "edges": sorted([list(e) for e in witness.edges()], key=repr),
            },
        }
    except Exception as exc:  # noqa: BLE001 - worker boundary: every
        # failure becomes a typed per-job outcome, the pool stays alive.
        record = {
            "outcome": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    return _normalize(record)


@dataclass
class JobOutcome:
    """One job's typed result, in wire-ready form."""

    index: int
    id: str
    kind: str
    cache: str  # "miss" | "exact" | "canonical" | "coalesced" | "off" | "shed"
    wall_s: float  # submission-to-resolution latency (includes queue wait)
    record: dict

    @property
    def outcome(self) -> str:
        return self.record["outcome"]

    @property
    def exit_code(self) -> int:
        return OUTCOME_EXIT.get(self.outcome, 3)

    def to_json_obj(self) -> dict:
        """The JSONL verdict line ``repro serve`` streams."""
        return {
            "type": "job-verdict",
            "index": self.index,
            "id": self.id,
            "kind": self.kind,
            "outcome": self.outcome,
            "cache": self.cache,
            "wall_s": round(self.wall_s, 6),
            "verdict": {k: v for k, v in self.record.items() if k != "outcome"},
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a pre-sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class ServiceDriver:
    """Async job driver over a process pool with a canonical result cache.

    ``workers=0`` executes jobs inline on the event loop — strictly
    sequential, the reference the differential suite holds pools to;
    ``workers=N`` runs up to N jobs concurrently in pool processes.
    ``cache=None`` disables caching *and* single-flight coalescing
    (every job genuinely computes — what the cold side of the E19 bench
    measures).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        resilience: ResiliencePolicy | None = None,
        chaos: ChaosPool | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = inline sequential)")
        self.workers = workers
        self.cache = cache
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self.chaos = chaos
        self.rstats = ResilienceStats()

    # -- public API ------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobOutcome], None] | None = None,
    ) -> list[JobOutcome]:
        """Run ``jobs`` to completion; outcomes in submission order.

        ``on_result`` is invoked once per job, also in submission order,
        as soon as that job *and all earlier ones* finished — the
        streaming hook ``repro serve`` uses to emit verdict lines.
        """
        return asyncio.run(self.run_async(jobs, on_result=on_result))

    async def run_async(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobOutcome], None] | None = None,
    ) -> list[JobOutcome]:
        loop = asyncio.get_running_loop()
        policy = self.resilience
        queue: asyncio.Queue = asyncio.Queue(maxsize=policy.queue_limit)
        inflight: dict = {}
        submitted = time.perf_counter()
        futures: list[asyncio.Future] = [loop.create_future() for _ in jobs]
        n_consumers = max(1, self.workers)
        supervisor = (
            PoolSupervisor(self.workers, self.rstats) if self.workers else None
        )
        consumers = [
            asyncio.ensure_future(
                self._consume(queue, supervisor, inflight, loop, submitted)
            )
            for _ in range(n_consumers)
        ]
        producer = asyncio.ensure_future(
            self._produce(jobs, futures, queue, n_consumers, submitted)
        )
        try:
            outcomes: list[JobOutcome] = []
            for future in futures:
                outcome = await future
                if on_result is not None:
                    on_result(outcome)
                outcomes.append(outcome)
            return outcomes
        finally:
            producer.cancel()
            for consumer in consumers:
                consumer.cancel()
            await asyncio.gather(producer, *consumers, return_exceptions=True)
            if supervisor is not None:
                supervisor.shutdown()

    # -- internals -------------------------------------------------------

    async def _produce(self, jobs, futures, queue, n_consumers, submitted) -> None:
        """Admission control: enqueue jobs, shedding past the bound.

        With ``queue_limit=0`` the queue is unbounded and every job is
        admitted.  With a bound, the enqueue loop never yields, so the
        shed set is deterministic: a batch submits all at once, and
        exactly the jobs beyond the queue bound are refused with a
        typed ``shed`` outcome (load shedding at admission — the queue
        depth *is* the backlog, since consumers have not run yet).
        """
        limit = self.resilience.queue_limit
        obs = observer()
        for job, future in zip(jobs, futures):
            try:
                queue.put_nowait((job, future))
            except asyncio.QueueFull:
                self.rstats.shed += 1
                if obs is not None:
                    obs.on_event(
                        SERVICE_LANE, "shed", None, job=job.id, queue_limit=limit
                    )
                record = _normalize({
                    "outcome": "shed",
                    "shed": {"queue_limit": limit},
                })
                if not future.done():
                    future.set_result(self._outcome(job, "shed", submitted, record))
        for _ in range(n_consumers):
            await queue.put(None)  # one shutdown sentinel per consumer

    async def _consume(self, queue, supervisor, inflight, loop, submitted) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            job, future = item
            try:
                outcome = await self._process(job, supervisor, inflight, loop, submitted)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # infrastructure failure the retry
                # ladder could not absorb: still a typed per-job error —
                # setting the exception on the future would abort the
                # result loop and strip every later job of its verdict.
                record = _normalize({
                    "outcome": "error",
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "where": "driver",
                    },
                })
                outcome = self._outcome(
                    job, "off" if self.cache is None else "miss", submitted, record
                )
            if not future.done():
                future.set_result(outcome)

    async def _process(self, job: Job, supervisor, inflight, loop, submitted) -> JobOutcome:
        cache = self.cache
        if cache is None:
            record = await self._execute(job, supervisor, loop)
            return self._outcome(job, "off", submitted, record)

        form = canonical_form(job.graph)
        exact = exact_fingerprint(job.graph)
        key = (form.hash, job.kind, config_key(job.config))
        hit = cache.lookup(key, exact, form, job.graph)
        if hit is not None:
            return self._outcome(job, hit.tier, submitted, hit.verdict)

        flight_key = (key, exact)
        waiter = inflight.get(flight_key)
        if waiter is not None:
            # Single-flight: an identical job is already computing;
            # share its verdict instead of burning a worker on it.
            record = await asyncio.shield(waiter)
            cache.stats.hits_coalesced += 1
            return self._outcome(job, "coalesced", submitted, record)

        waiter = loop.create_future()
        inflight[flight_key] = waiter
        cache.stats.misses += 1
        try:
            record = await self._execute(job, supervisor, loop)
        except BaseException as exc:
            if not waiter.done():
                waiter.set_exception(exc)
            inflight.pop(flight_key, None)
            raise
        inflight.pop(flight_key, None)
        waiter.set_result(record)
        if record["outcome"] in ("ok", "non-planar"):
            # Churn verdicts are exact-tier only: the op plan picks
            # endpoints by repr order, so it is not invariant under the
            # relabelings a canonical remap hit would equate — and the
            # rotation describes the churned edge set, not the
            # submitted one.
            canonical_rotation = (
                None
                if job.kind == "churn"
                else self._canonical_rotation(job.graph, form, record)
            )
            cache.store(key, exact, record, canonical_rotation)
        return self._outcome(job, "miss", submitted, record)

    async def _execute(self, job: Job, supervisor, loop) -> dict:
        """Run one job to a verdict record under the resilience policy:
        per-attempt deadline, seeded backoff between attempts, pool
        respawn + requeue on worker death, quarantine when the retry
        budget is spent on pool deaths, ``timeout`` when it is spent on
        deadlines.  Worker-side failures come back as typed records and
        are never retried — they are deterministic job failures."""
        payload = job.payload()
        policy = self.resilience
        deadline = payload["config"].get("deadline_s", policy.deadline_s)
        attempts = 1 + policy.max_retries
        pool_deaths = 0
        last_error: dict | None = None
        obs = observer()
        for attempt in range(attempts):
            if attempt:
                self.rstats.retries += 1
                delay = policy.delay(job.id, attempt)
                if obs is not None:
                    obs.on_event(
                        SERVICE_LANE, "retry", None,
                        job=job.id, attempt=attempt, backoff_s=round(delay, 6),
                    )
                if delay:
                    await asyncio.sleep(delay)
            generation = supervisor.generation if supervisor is not None else 0
            try:
                if supervisor is None:
                    # Inline sequential reference path: same worker
                    # function, same serialized payload, no process hop.
                    # Deadlines cannot preempt it (it blocks the loop).
                    if self.chaos is not None:
                        return chaos_execute_inline(payload, self.chaos, attempt)
                    return execute_job(payload)
                if self.chaos is not None:
                    future = supervisor.submit(
                        loop, chaos_execute_job, payload, self.chaos.to_dict(), attempt
                    )
                else:
                    future = supervisor.submit(loop, execute_job, payload)
                if deadline is not None:
                    return await asyncio.wait_for(future, timeout=deadline)
                return await future
            except asyncio.CancelledError:
                raise
            except TimeoutError:
                # The attempt's budget ran out; the abandoned worker
                # computation finishes (or dies) on its own and its
                # result is discarded.
                self.rstats.timeouts += 1
                last_error = {
                    "type": "DeadlineExceeded",
                    "message": f"attempt {attempt + 1}/{attempts} exceeded"
                               f" the {deadline}s deadline",
                }
                if obs is not None:
                    obs.on_event(
                        SERVICE_LANE, "job-timeout", None,
                        job=job.id, attempt=attempt, deadline_s=deadline,
                    )
                continue
            except (BrokenExecutor, ChaosKilledError) as exc:
                # Worker death: the pool (or its inline stand-in) died
                # under this job.  Heal the pool once across however
                # many consumers observed the same death, then requeue.
                pool_deaths += 1
                self.rstats.pool_deaths += 1
                last_error = {
                    "type": type(exc).__name__,
                    "message": str(exc) or "worker process died",
                }
                if obs is not None:
                    obs.on_event(
                        SERVICE_LANE, "pool-death", None, job=job.id, attempt=attempt
                    )
                if supervisor is not None:
                    await supervisor.heal(generation)
                self.rstats.requeued += 1
                after = policy.quarantine_after
                if after is not None and pool_deaths >= after:
                    break  # poison fast-path: stop burning retries on it
                continue
            except Exception as exc:
                # The worker folds job failures into records, so reaching
                # here means dispatch infrastructure failed in a way a
                # fresh pool would not fix (e.g. unpicklable payload).
                # Surface it as a typed error outcome, no retry.
                return _normalize({
                    "outcome": "error",
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "where": "dispatch",
                    },
                })
        # Retry budget exhausted: a typed verdict, never an exception —
        # the rest of the batch keeps its deterministic outcomes.
        if pool_deaths:
            self.rstats.quarantined += 1
            if obs is not None:
                obs.on_event(
                    SERVICE_LANE, "quarantine", None,
                    job=job.id, pool_deaths=pool_deaths,
                )
            return _normalize({
                "outcome": "quarantined",
                "quarantined": {
                    "attempts": attempts,
                    "pool_deaths": pool_deaths,
                    "last_error": last_error,
                },
            })
        return _normalize({
            "outcome": "timeout",
            "timeout": {
                "attempts": attempts,
                "deadline_s": deadline,
                "last_error": last_error,
            },
        })

    @staticmethod
    def _outcome(job: Job, tier: str, submitted: float, record: dict) -> JobOutcome:
        return JobOutcome(
            index=job.index,
            id=job.id,
            kind=job.kind,
            cache=tier,
            wall_s=time.perf_counter() - submitted,
            record=record,
        )

    @staticmethod
    def _canonical_rotation(
        graph: Graph, form: CanonicalForm, record: dict
    ) -> dict[int, list[int]] | None:
        """Re-key the verdict's rotation by canonical rank (for remap
        hits); ``None`` when refinement wasn't discrete or there is no
        rotation (non-planar verdicts)."""
        rotation = record.get("rotation")
        if rotation is None or form.labels is None:
            return None
        by_repr = {repr(v): v for v in graph.nodes()}
        try:
            return {
                form.labels[by_repr[rv]]: [form.labels[by_repr[ru]] for ru in order]
                for rv, order in rotation.items()
            }
        except KeyError:
            return None  # repr round-trip mismatch; cache exact-only

    # -- aggregation -----------------------------------------------------

    def aggregate(self, outcomes: Sequence[JobOutcome], wall_s: float) -> dict:
        """The batch report: outcome counts, cache counters, throughput,
        and latency percentiles (JSON-ready)."""
        counts = {name: 0 for name in OUTCOME_EXIT}
        fault_stats: dict[str, int] = {}
        for outcome in outcomes:
            counts[outcome.outcome] = counts.get(outcome.outcome, 0) + 1
            report = outcome.record.get("report")
            if isinstance(report, dict):
                for key, value in (report.get("fault_stats") or {}).items():
                    if isinstance(value, int) and not isinstance(value, bool):
                        fault_stats[key] = fault_stats.get(key, 0) + value
        latencies = sorted(outcome.wall_s for outcome in outcomes)
        stats = self.cache.stats if self.cache is not None else None
        return {
            "type": "batch-report",
            "jobs": len(outcomes),
            "workers": self.workers,
            "outcomes": counts,
            "cache": stats.to_dict() if stats is not None else None,
            "computed": stats.misses if stats is not None else len(outcomes),
            "resilience": self.rstats.to_dict(),
            "fault_stats": fault_stats or None,
            "wall_s": round(wall_s, 6),
            "jobs_per_s": round(len(outcomes) / wall_s, 3) if wall_s > 0 else None,
            "latency_s": {
                "p50": round(_percentile(latencies, 0.50), 6),
                "p99": round(_percentile(latencies, 0.99), 6),
                "max": round(latencies[-1], 6) if latencies else 0.0,
            },
            "exit_code": self.exit_code(outcomes),
        }

    @staticmethod
    def exit_code(outcomes: Sequence[JobOutcome]) -> int:
        """Batch partial-failure semantics: the worst per-job code wins
        (0 ok < 1 non-planar < 3 error < 4 degraded < 5 timeout
        < 6 quarantined < 7 shed, numerically)."""
        return max((outcome.exit_code for outcome in outcomes), default=0)
