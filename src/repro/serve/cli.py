"""The ``repro serve``, ``repro batch``, and ``repro cache-compact`` CLIs.

``serve`` reads JSONL jobs from a file or stdin and **streams** one
JSONL verdict line per job to stdout, in submission order, as soon as
each job (and all earlier ones) resolves — the long-running-consumer
mode.  ``batch`` runs a job file to completion and prints one aggregate
report — outcome counts, cache hit/miss counters, resilience counters,
throughput, latency percentiles — human-readable by default,
machine-readable with ``--json``; ``--verdicts FILE`` additionally
writes the per-job JSONL.  ``cache-compact`` rewrites a persistent
cache store to its live entries atomically.

Both serving commands take the resilience knobs (``--deadline``,
``--retries``, ``--queue-limit``, ``--resilience-seed``) and the chaos
harness (``--chaos SPEC``, ``--flight FILE``) — see
:mod:`repro.serve.resilience`.

Both exit with the batch partial-failure convention: the **worst**
per-job exit code (0 ok, 1 non-planar, 3 error, 4 degraded, 5 timeout,
6 quarantined, 7 shed; 2 = usage) — see the consolidated exit-code
table in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from .cache import ResultCache, compact_store
from .driver import JobOutcome, ServiceDriver
from .jobs import JobSpecError, load_jobs
from .resilience import ChaosPool, ResiliencePolicy

__all__ = ["serve_cli", "batch_cli", "compact_cli"]


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="pool worker processes (default 1; 0 = inline "
                             "sequential, the reference driver)")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="disable the result cache and single-flight "
                             "coalescing: every job computes")
    parser.add_argument("--cache-size", type=int, default=512, metavar="K",
                        dest="cache_size",
                        help="max cached topologies in memory (LRU, default 512)")
    parser.add_argument("--cache-file", metavar="FILE", dest="cache_file",
                        help="persistent JSONL cache store: warm-started on "
                             "launch (torn tail repaired), fsync-appended on "
                             "every cold result")
    parser.add_argument("--deadline", type=float, default=None, metavar="S",
                        dest="deadline",
                        help="per-attempt wall-clock budget in seconds "
                             "(default none; pool mode only; exhausting every "
                             "attempt yields the 'timeout' outcome, exit 5)")
    parser.add_argument("--retries", type=int, default=2, metavar="K",
                        dest="retries",
                        help="max re-attempts after a worker death or "
                             "deadline (default 2; seeded exponential "
                             "backoff; repeated pool kills by one job yield "
                             "'quarantined', exit 6)")
    parser.add_argument("--queue-limit", type=int, default=0, metavar="N",
                        dest="queue_limit",
                        help="bounded admission queue: jobs beyond the bound "
                             "get the 'shed' outcome, exit 7 (default 0 = "
                             "unbounded, never shed)")
    parser.add_argument("--resilience-seed", type=int, default=0, metavar="N",
                        dest="resilience_seed",
                        help="seed for the deterministic retry-backoff "
                             "jitter (default 0)")
    parser.add_argument("--chaos", metavar="SPEC", dest="chaos",
                        help="seeded process-chaos plan applied inside pool "
                             "workers, e.g. 'kill=0.2,latency=0.3:0.05,"
                             "seed=7' (kill = SIGKILL rate per attempt; "
                             "latency = rate[:seconds] of injected sleep)")
    parser.add_argument("--flight", metavar="FILE", dest="flight",
                        help="record service-level fault events (retries, "
                             "timeouts, pool deaths, quarantine, shed) to a "
                             "flight-recorder JSONL dump")


def _build(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ServiceDriver:
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    if args.cache_size < 1:
        parser.error("--cache-size must be >= 1")
    if args.no_cache and args.cache_file:
        parser.error("--no-cache and --cache-file are contradictory")
    if args.deadline is not None and args.deadline <= 0:
        parser.error("--deadline must be > 0 seconds")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.queue_limit < 0:
        parser.error("--queue-limit must be >= 0 (0 = unbounded)")
    cache = None
    if not args.no_cache:
        cache = ResultCache(capacity=args.cache_size, path=args.cache_file)
    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosPool.parse(args.chaos, seed=args.resilience_seed)
        except ValueError as exc:
            parser.error(f"bad --chaos spec: {exc}")
    policy = ResiliencePolicy(
        seed=args.resilience_seed,
        deadline_s=args.deadline,
        max_retries=args.retries,
        queue_limit=args.queue_limit,
    )
    return ServiceDriver(
        workers=args.workers, cache=cache, resilience=policy, chaos=chaos,
    )


@contextlib.contextmanager
def _flight_scope(args: argparse.Namespace):
    """Install a flight recorder for one CLI run (none without
    ``--flight``); the dump is written when the block exits."""
    from ..obs import FlightRecorder, installed, observe

    recorder = FlightRecorder(capacity=256) if args.flight is not None else None
    with observe(*installed(), recorder):
        try:
            yield
        finally:
            if recorder is not None:
                recorder.dump(args.flight)


def _load(path: str, parser: argparse.ArgumentParser):
    try:
        if path == "-":
            return load_jobs(sys.stdin)
        return load_jobs(path)
    except JobSpecError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(f"cannot read job file {path!r}: {exc}")


def _cache_summary(driver: ServiceDriver) -> str:
    if driver.cache is None:
        return "cache: disabled"
    stats = driver.cache.stats
    return (
        f"cache: {stats.hits} hits"
        f" ({stats.hits_exact} exact, {stats.hits_canonical} canonical,"
        f" {stats.hits_coalesced} coalesced), {stats.misses} misses"
        f" (= computations), {stats.evictions} evictions"
    )


def serve_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Stream embedding-service verdicts for a JSONL job stream",
    )
    parser.add_argument("jobs", nargs="?", default="-",
                        help="JSONL job file (default '-' = stdin)")
    _add_common_options(parser)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stderr summary")
    args = parser.parse_args(argv)
    driver = _build(args, parser)
    jobs = _load(args.jobs, parser)
    say = (lambda *a, **k: None) if args.quiet else functools.partial(print, file=sys.stderr)
    say(f"serve: {len(jobs)} jobs, {args.workers} workers"
        + (", cache disabled" if driver.cache is None else ""))

    import time

    def emit(outcome: JobOutcome) -> None:
        print(json.dumps(outcome.to_json_obj(), sort_keys=True), flush=True)

    t0 = time.perf_counter()
    with _flight_scope(args):
        outcomes = driver.run(jobs, on_result=emit)
    report = driver.aggregate(outcomes, time.perf_counter() - t0)
    say(f"serve: {report['jobs']} verdicts in {report['wall_s']}s"
        f" ({report['jobs_per_s']} jobs/s),"
        f" p50 {report['latency_s']['p50']}s p99 {report['latency_s']['p99']}s")
    say(_cache_summary(driver))
    if driver.rstats.any:
        say("resilience: " + ", ".join(
            f"{k} {v}" for k, v in driver.rstats.to_dict().items() if v))
    return report["exit_code"]


def batch_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Run a JSONL job file to completion and aggregate a report",
    )
    parser.add_argument("jobs", help="JSONL job file")
    _add_common_options(parser)
    parser.add_argument("--json", action="store_true",
                        help="print the aggregate batch report as JSON on "
                             "stdout (human summary moves to stderr)")
    parser.add_argument("--verdicts", metavar="FILE",
                        help="also write per-job JSONL verdicts to FILE")
    args = parser.parse_args(argv)
    driver = _build(args, parser)
    jobs = _load(args.jobs, parser)
    say = functools.partial(print, file=sys.stderr) if args.json else print

    verdict_sink = None
    if args.verdicts is not None:
        try:
            verdict_sink = open(args.verdicts, "w")
        except OSError as exc:
            parser.error(f"cannot open verdict file {args.verdicts!r}: {exc}")

    import time

    def emit(outcome: JobOutcome) -> None:
        if verdict_sink is not None:
            verdict_sink.write(json.dumps(outcome.to_json_obj(), sort_keys=True) + "\n")

    t0 = time.perf_counter()
    try:
        with _flight_scope(args):
            outcomes = driver.run(jobs, on_result=emit)
    finally:
        if verdict_sink is not None:
            verdict_sink.close()
    report = driver.aggregate(outcomes, time.perf_counter() - t0)

    say(f"batch: {report['jobs']} jobs on {args.workers} workers"
        f" in {report['wall_s']}s ({report['jobs_per_s']} jobs/s)")
    counts = report["outcomes"]
    say(f"outcomes: {counts['ok']} ok, {counts['non-planar']} non-planar,"
        f" {counts['degraded']} degraded, {counts['error']} error,"
        f" {counts['timeout']} timeout, {counts['quarantined']} quarantined,"
        f" {counts['shed']} shed")
    say(f"latency: p50 {report['latency_s']['p50']}s"
        f" p99 {report['latency_s']['p99']}s max {report['latency_s']['max']}s")
    say(_cache_summary(driver))
    say(f"computations: {report['computed']} of {report['jobs']} jobs")
    if driver.rstats.any:
        say("resilience: " + ", ".join(
            f"{k} {v}" for k, v in driver.rstats.to_dict().items() if v))
    if report["fault_stats"]:
        say("fault stats: " + ", ".join(
            f"{k} {v}" for k, v in sorted(report["fault_stats"].items()) if v))
    if args.verdicts is not None:
        say(f"verdicts written to {args.verdicts}")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    return report["exit_code"]


def compact_cli(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache-compact",
        description="Rewrite a persistent cache store to its live entries, "
                    "atomically (torn tail dropped, corrupt lines and "
                    "superseded duplicates removed, LRU capacity applied)",
    )
    parser.add_argument("store", help="persistent cache JSONL file")
    parser.add_argument("--cache-size", type=int, default=512, metavar="K",
                        dest="cache_size",
                        help="LRU capacity applied during compaction "
                             "(default 512, matching the serving default)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the compacted store here instead of "
                             "replacing the input in place")
    parser.add_argument("--json", action="store_true",
                        help="print the compaction summary as JSON")
    args = parser.parse_args(argv)
    if args.cache_size < 1:
        parser.error("--cache-size must be >= 1")
    try:
        summary = compact_store(args.store, capacity=args.cache_size, output=args.output)
    except OSError as exc:
        parser.error(f"cannot compact {args.store!r}: {exc}")
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"compacted {summary['path']} -> {summary['output']}:"
              f" {summary['entries']} entries under {summary['keys']} keys,"
              f" {summary['bytes_before']} -> {summary['bytes_after']} bytes"
              f" ({summary['skipped']} corrupt skipped,"
              f" {summary['torn_truncated']} torn truncated,"
              f" {summary['stale']} stale dropped)")
    return 0
