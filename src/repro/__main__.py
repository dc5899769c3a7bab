"""Command-line interface: embed an edge-list network.

Usage::

    repro <edgelist-file> [--baseline] [--bandwidth W] [--quiet]
    repro --demo grid 8 8
    repro --demo grid 8 8 --churn 16 --incremental-certify --json
    repro --demo grid 8 8 --trace run.jsonl --json
    repro --view-trace run.jsonl
    repro trace-diff a.jsonl b.jsonl
    repro serve jobs.jsonl --workers 4
    repro batch jobs.jsonl --workers 4 --json
    repro batch jobs.jsonl --workers 4 --deadline 5 --retries 3 --queue-limit 64
    repro cache-compact cache.jsonl

(``repro`` is the installed console script; ``python -m repro`` is the
equivalent in-tree invocation.)

The edge-list format is one edge per line, two whitespace-separated
integer node IDs; blank lines and ``#`` comments are ignored.  The tool
runs the distributed planar embedding (or the trivial baseline), prints
per-vertex clockwise orders and the round ledger, and exits non-zero on
non-planar input (printing a Kuratowski witness).

Observability: ``--trace FILE`` writes a JSONL span trace of the run
(``-`` = stdout), ``--json`` prints a machine-readable run report to
stdout, ``--profile`` wraps the run in cProfile (top-20 cumulative
entries land in the JSON report, or a human table otherwise), and
``--view-trace FILE`` renders a previously captured trace as an ASCII
recursion tree + phase timeline.  ``--causal`` installs the
message-level causal recorder (:mod:`repro.obs.causal`) and prints the
critical-path length against the measured rounds and the paper's
D*log n prediction; ``--flight FILE`` (with ``--faults``) installs the
crash flight recorder and dumps its JSONL when the run ends, on every
exit; ``--perfetto FILE`` exports the span
tree and causal lanes as a Chrome trace-event file loadable in
Perfetto.  ``trace-diff A B`` (a subcommand, before any flags) diffs
two JSONL traces structurally and reports the first divergence — exit
0 identical, 1 divergent, 2 unreadable.  Whenever stdout carries
machine output, the human-readable report moves to stderr.

Certification: ``--certify`` appends the :mod:`repro.certify` phases —
every node gets an O(log n)-bit proof label and a distributed CONGEST
verifier re-checks the output in O(D) rounds; ``--certify-adversary``
additionally runs the tamper suite and demands 100% detection.
Labels ship bit-packed (:mod:`repro.certify.compact`); the report's
``certification`` block carries the measured ``label_bits_*`` sizes.

Churn: ``--churn N`` (implies ``--certify``) applies N seeded edge
insert/delete operations after the initial pipeline and re-certifies
after every one; ``--incremental-certify`` patches only each edit's
dirty region (tree path + incident faces) instead of re-running the
full pipeline per operation, falling back to a rebuild past the
dirty-region threshold (:mod:`repro.certify.delta`).  The ``churn``
block of the ``--json`` report records per-op mode, dirty-region size,
rounds, and the final verdict; a rejected patched certificate exits 3
exactly like a rejected static one.

Robustness: ``--faults SPEC`` runs the self-healing pipeline under a
deterministic chaos schedule (:mod:`repro.congest.faults`) — e.g.
``--faults drop=0.05,corrupt=0.02,crash=2:5`` — seeded by
``--fault-seed``; every pipeline execution then rides the reliable ARQ
transport (retransmission traffic shows in the ledger under the
``recovery`` phase), the result is certified, and a rejected
certificate is healed with up to ``--max-retries`` escalating retries
(re-verify, re-certify, re-embed).

Serving: ``serve`` streams JSONL verdicts for a JSONL job stream and
``batch`` runs a job file to one aggregate report, both over the
:mod:`repro.serve` driver (process-pool workers + canonical result
cache).  The serving resilience layer (:mod:`repro.serve.resilience`)
adds ``--deadline`` (per-attempt wall-clock budget), ``--retries``
(seeded exponential backoff after worker deaths and timeouts, with
pool respawn), ``--queue-limit`` (bounded admission, overflow jobs
shed), and ``--chaos SPEC`` (seeded process-level fault injection);
``cache-compact`` rewrites a persistent cache store to its live
entries atomically.  See those modules and the README "Serving"
section.

Exit codes (mirrors the consolidated "CLI exit codes" table in
README.md — every mode maps onto it; a ``serve`` / ``batch`` run exits
with the **worst** per-job code):

====  ==========================================================
code  meaning
====  ==========================================================
0     success — embedding computed (and certified, if asked)
1     input not planar (a Kuratowski witness is printed);
      ``trace-diff``: traces diverge
2     usage error (bad flags; a missing, malformed, empty or
      disconnected edge list, ``--demo`` spec, ``--view-trace``
      file or job file);
      ``trace-diff``: unreadable trace
3     the computed output was rejected — verification or
      certification failed, or a tamper went undetected — or the
      run raised an internal error: an algorithm bug, never the
      input's fault
4     degraded result — the self-healing retry budget ran out
      under ``--faults`` before a certified embedding emerged
      (partial state and diagnosis are reported)
5     timeout — every attempt of a job exceeded its ``--deadline``
      wall-clock budget (``serve`` / ``batch`` only)
6     quarantined — one job repeatedly killed pool workers; it was
      isolated after the retry budget so the rest of the batch
      kept serving (``serve`` / ``batch`` only)
7     shed — the bounded admission queue (``--queue-limit``) was
      full; the job was refused without being run (``serve`` /
      ``batch`` only)
====  ==========================================================
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
import time
import traceback

from .core import NonPlanarNetworkError, DistributedPlanarEmbedding, trivial_baseline_embedding
from .obs import CausalRecorder, FlightRecorder, Tracer, observe
from .planar import Graph
from .planar.generators import demo_graph
from .planar.kuratowski import classify_kuratowski, kuratowski_subgraph
from .planar.verify import EmbeddingViolation

_INT_ID = re.compile(r"-?[0-9]+")  # ASCII digits only, unlike str.isdigit


def load_edgelist(path: str) -> Graph:
    """Read one ``u v`` edge a line (``#`` starts a comment).  IDs that
    are ASCII ``-?[0-9]+`` are ints, the rest strings; a file may not mix
    the two, because the pipeline orders node IDs.  Raises ``ValueError``
    on a malformed file."""
    graph = Graph()
    kind = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node IDs, got {body!r}")
            u, v = (int(p) if _INT_ID.fullmatch(p) else p for p in parts)
            kind = kind or type(u)
            if type(u) is not kind or type(v) is not kind:
                raise ValueError(f"{path}:{lineno}: node IDs mix integers and strings")
            graph.add_edge(u, v)
    return graph


def view_trace(root) -> int:
    from .analysis import render_phase_timeline, render_trace_tree

    print(render_trace_tree(root))
    print()
    print("rounds by phase (parallel branches sum — a work view, not a clock):")
    print(render_phase_timeline(root))
    return 0


def trace_diff_cli(argv: list[str]) -> int:
    """The ``trace-diff`` subcommand: structural diff of two JSONL traces."""
    parser = argparse.ArgumentParser(
        prog="python -m repro trace-diff",
        description="Structurally diff two JSONL span traces "
                    "(wall-clock fields and span ids are ignored)",
    )
    parser.add_argument("trace_a", help="first JSONL trace file")
    parser.add_argument("trace_b", help="second JSONL trace file")
    parser.add_argument("--limit", type=int, default=16, metavar="N",
                        help="max divergences to report (default 16)")
    parser.add_argument("--json", action="store_true",
                        help="print the diff report as JSON")
    args = parser.parse_args(argv)
    if args.limit < 1:
        parser.error("--limit must be >= 1")
    from .analysis import diff_traces, render_diff

    try:
        report = diff_traces(args.trace_a, args.trace_b, limit=args.limit)
    except (OSError, ValueError) as exc:
        print(f"trace-diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, default=repr))
        if not report["identical"]:
            print(render_diff(report), file=sys.stderr)
    else:
        print(render_diff(report))
    return 0 if report["identical"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "trace-diff":
        return trace_diff_cli(argv[1:])
    if argv and argv[0] in ("serve", "batch"):
        from .serve.cli import batch_cli, serve_cli

        return serve_cli(argv[1:]) if argv[0] == "serve" else batch_cli(argv[1:])
    if argv and argv[0] == "cache-compact":
        from .serve.cli import compact_cli

        return compact_cli(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Distributed planar embedding (Ghaffari-Haeupler, PODC 2016)",
    )
    parser.add_argument("edgelist", nargs="?", help="edge-list file (u v per line)")
    parser.add_argument("--demo", nargs="+", metavar="FAMILY",
                        help="generate a demo graph instead (e.g. --demo grid 8 8)")
    parser.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for randomized --demo families and the "
                             "--certify-adversary tamper sweep (default 0)")
    parser.add_argument("--baseline", action="store_true",
                        help="run the trivial O(n) baseline instead")
    parser.add_argument("--certify", action="store_true",
                        help="equip nodes with proof labels and re-verify the "
                             "embedding with the distributed O(D) verifier")
    parser.add_argument("--certify-adversary", action="store_true",
                        dest="certify_adversary",
                        help="also run the certificate tamper suite "
                             "(implies --certify); exits 3 unless every "
                             "tamper is detected")
    parser.add_argument("--churn", type=int, default=None, metavar="N",
                        help="after embedding + certifying, apply N seeded "
                             "edge insert/delete operations and re-certify "
                             "after every one (implies --certify; the op "
                             "plan is seeded by --seed)")
    parser.add_argument("--incremental-certify", action="store_true",
                        dest="incremental_certify",
                        help="with --churn: re-certify incrementally — "
                             "re-prove and re-verify only the dirty region "
                             "of each edit, falling back to a full rebuild "
                             "past the threshold (default: full re-embed + "
                             "re-certify per operation)")
    parser.add_argument("--bandwidth", type=int, default=1, metavar="W",
                        help="CONGEST words per edge per round (default 1)")
    parser.add_argument("--faults", metavar="SPEC",
                        help="run self-healing under a deterministic chaos "
                             "schedule, e.g. drop=0.05,dup=0.01,delay=0.1:2,"
                             "corrupt=0.02,crash=2:5,link=1:6 (implies "
                             "--certify; exits 4 when healing is exhausted)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="S",
                        dest="fault_seed",
                        help="seed for the --faults schedule; the whole fault "
                             "run is reproducible from this seed alone "
                             "(default 0)")
    parser.add_argument("--max-retries", type=int, default=3, metavar="N",
                        dest="max_retries",
                        help="self-healing attempts beyond the first under "
                             "--faults (default 3)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-vertex rotations")
    parser.add_argument("--trace", metavar="FILE",
                        help="write a JSONL span trace of the run (- = stdout)")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable run report to stdout")
    parser.add_argument("--profile", action="store_true",
                        help="wrap the run in cProfile; the top-20 cumulative "
                             "entries go into the --json report (or a human "
                             "table otherwise)")
    parser.add_argument("--view-trace", metavar="FILE", dest="view_trace",
                        help="render a JSONL trace as an ASCII tree and exit")
    parser.add_argument("--causal", action="store_true",
                        help="attach the message-level causal recorder and "
                             "report critical-path length vs measured rounds "
                             "vs the paper's D*log n prediction")
    parser.add_argument("--flight", metavar="FILE",
                        help="with --faults: dump the crash flight recorder "
                             "(last-K delivery/fault/ARQ events per node) as "
                             "JSONL to FILE")
    parser.add_argument("--perfetto", metavar="FILE", dest="perfetto",
                        help="export the span tree and causal lanes as a "
                             "Chrome trace-event file (load in "
                             "ui.perfetto.dev)")
    args = parser.parse_args(argv)

    if args.bandwidth < 1:
        parser.error("--bandwidth must be >= 1")
    if args.view_trace is not None:
        if args.edgelist is not None or args.demo is not None:
            parser.error("--view-trace takes no network input")
        if args.profile:
            parser.error("--profile instruments a run; --view-trace does not run")
        from .analysis import load_trace

        try:
            root = load_trace(sys.stdin if args.view_trace == "-" else args.view_trace)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read trace {args.view_trace!r}: {exc}")
        return view_trace(root)
    if (args.edgelist is None) == (args.demo is None):
        parser.error("provide exactly one of an edge-list file or --demo")
    if args.json and args.trace == "-":
        parser.error("--json and --trace - both claim stdout; trace to a file instead")
    if args.baseline and args.trace is not None:
        parser.error("--trace instruments the Theorem 1.1 pipeline, not --baseline")

    # When stdout carries machine output (a report or a trace), the
    # human-readable account moves to stderr so both stay parseable.
    machine_stdout = args.json or args.trace == "-"
    say = functools.partial(print, file=sys.stderr) if machine_stdout else print

    try:
        graph = (
            demo_graph(args.demo, seed=args.seed) if args.demo else load_edgelist(args.edgelist)
        )
    except OSError as exc:
        parser.error(f"cannot read edge list {args.edgelist!r}: {exc.strerror}")
    except ValueError as exc:
        parser.error(str(exc))
    if not graph.num_nodes or not graph.is_connected():
        parser.error("the network must be non-empty and connected")
    say(f"network: n={graph.num_nodes}, m={graph.num_edges}")
    certify = args.certify or args.certify_adversary

    if args.incremental_certify and args.churn is None:
        parser.error("--incremental-certify selects the --churn "
                     "re-certification mode; it needs --churn")
    if args.churn is not None:
        if args.churn < 1:
            parser.error("--churn must be >= 1")
        if args.baseline:
            parser.error("--churn drives the certified dynamic engine, "
                         "not --baseline")
        if args.faults is not None:
            parser.error("--churn and --faults are separate workloads; "
                         "pick one")
        if args.certify_adversary:
            parser.error("--certify-adversary tampers a static run; "
                         "it does not compose with --churn")
        if graph.num_nodes < 2:
            parser.error("--churn needs a network with at least two nodes")
        certify = True  # churn is certificate-driven by construction

    fault_plan = None
    if args.faults is not None:
        if args.baseline:
            parser.error("--faults drives the self-healing Theorem 1.1 "
                         "pipeline, not --baseline")
        if args.max_retries < 0:
            parser.error("--max-retries must be >= 0")
        from .congest import FaultPlan, FaultSpecError

        try:
            fault_plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except FaultSpecError as exc:
            parser.error(str(exc))
        certify = True  # healing is certificate-driven

    if args.flight is not None and fault_plan is None:
        parser.error("--flight records chaos events; it needs --faults")

    # --perfetto exports the span tree, so it implies span tracing even
    # when no JSONL --trace sink was asked for.
    tracer = Tracer() if (args.trace is not None or args.perfetto is not None) else None
    causal_recorder = CausalRecorder() if args.causal or args.perfetto is not None else None
    flight_recorder = FlightRecorder() if args.flight is not None else None
    overrides = contextlib.ExitStack()
    overrides.enter_context(observe(causal_recorder, flight_recorder))
    # Open the trace sink before the (possibly long) run so a bad path
    # fails fast instead of discarding the finished trace.
    trace_sink = None
    if args.trace == "-":
        trace_sink = sys.stdout
    elif args.trace is not None:
        try:
            trace_sink = open(args.trace, "w")
        except OSError as exc:
            parser.error(f"cannot open trace file {args.trace!r}: {exc}")
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    def finish() -> list[dict] | None:
        """Close what the run opened and write its output files; every
        exit that ran the pipeline calls this once.  Returns the profile
        rows."""
        overrides.close()
        profile_rows = _stop_profiler(profiler)
        _dump_trace(tracer, trace_sink)
        if flight_recorder is not None:
            flight_recorder.dump(args.flight)
            say(f"flight recorder dumped to {args.flight}")
        if args.perfetto is not None:
            from .obs import export_chrome_trace

            export_chrome_trace(args.perfetto, spans=tracer, causal=causal_recorder)
            say(f"perfetto trace written to {args.perfetto}")
        return profile_rows

    t0 = time.perf_counter()
    driver = None
    churn_report = None
    try:
        if args.baseline:
            result = trivial_baseline_embedding(graph, bandwidth_words=args.bandwidth)
            say("algorithm: trivial gather-everything baseline (footnote 2)")
            if certify:
                result.verify_distributed()
        elif fault_plan is not None:
            from .core import self_healing_embedding

            result = self_healing_embedding(
                graph,
                bandwidth_words=args.bandwidth,
                max_retries=args.max_retries,
                tracer=tracer,
                faults=fault_plan,
            )
            say("algorithm: self-healing Theorem 1.1 pipeline")
            say(f"chaos schedule: {fault_plan.describe()}")
        elif args.churn is not None:
            from .certify import DynamicCertifiedEmbedding

            engine = DynamicCertifiedEmbedding(
                graph,
                incremental=args.incremental_certify,
                bandwidth_words=args.bandwidth,
                tracer=tracer,
            )
            churn_report = engine.run_churn(args.churn, seed=args.seed)
            result = engine.to_result()
            mode = ("incremental" if args.incremental_certify
                    else "full-rebuild")
            say("algorithm: Theorem 1.1 pipeline + dynamic re-certification")
            say(f"churn mode: {mode} re-certification")
        else:
            driver = DistributedPlanarEmbedding(
                graph,
                bandwidth_words=args.bandwidth,
                tracer=tracer,
                certify=certify,
            )
            result = driver.run()
            say("algorithm: Theorem 1.1 distributed planar embedding")
    except NonPlanarNetworkError:
        wall_s = time.perf_counter() - t0
        profile_rows = finish()
        say("result: NOT PLANAR")
        witness = kuratowski_subgraph(graph)
        kind = classify_kuratowski(witness)
        say(f"Kuratowski witness: a {kind} subdivision on "
            f"{witness.num_nodes} nodes / {witness.num_edges} edges:")
        for u, v in sorted(witness.edges(), key=repr):
            say(f"  {u} -- {v}")
        if args.json:
            metrics = driver.last_metrics if driver is not None else None
            print(json.dumps({
                "type": "run-report",
                "planar": False,
                "n": graph.num_nodes,
                "m": graph.num_edges,
                "wall_s": round(wall_s, 6),
                "witness": {
                    "kind": kind,
                    "nodes": witness.num_nodes,
                    "edges": sorted([list(e) for e in witness.edges()], key=repr),
                },
                "metrics": metrics.to_dict() if metrics is not None else None,
                "profile": profile_rows,
            }))
        elif profile_rows is not None:
            _print_profile(say, profile_rows)
        return 1
    except Exception as exc:  # noqa: BLE001 - every other failure is exit 3
        # The computed output failed the centralized referee, or the run
        # raised an internal error: an algorithm bug, distinct from
        # non-planar *input* (exit 1).
        finish()
        if isinstance(exc, EmbeddingViolation):
            error = str(exc)
            say(f"result: EMBEDDING REJECTED — {error}")
        else:
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()  # stderr: where the internal error arose
            say(f"result: INTERNAL ERROR — {error}")
        if args.json:
            print(json.dumps({
                "type": "run-report",
                "planar": None,
                "accepted": False,
                "n": graph.num_nodes,
                "m": graph.num_edges,
                "error": error,
            }))
        return 3
    wall_s = time.perf_counter() - t0
    profile_rows = finish()
    causal_report = causal_recorder.report() if causal_recorder is not None else None
    if causal_report is not None and hasattr(result, "causal"):
        # A self-healing result's snapshot predates later executions;
        # the recorder's final report supersedes it.
        result.causal = causal_report
    if getattr(result, "degraded", False):
        # The self-healing retry budget ran out: report the structured
        # partial state instead of pretending nothing was computed.
        say(f"result: DEGRADED — {result.diagnosis}")
        say(f"healing attempts: {result.attempts}")
        for line in result.heal_log:
            say(f"  {line}")
        if result.fault_stats is not None:
            say(f"chaos: {result.fault_stats['faults_injected']} faults injected"
                f" ({result.fault_stats['sent']} frames sent)")
        if result.rotation is not None:
            say("partial (uncertified) rotation retained"
                f" for {len(result.rotation)} nodes")
        if args.causal and causal_report is not None:
            _say_causal(say, causal_report, result, graph)
        if args.json:
            report = result.to_report()
            report["wall_s"] = round(wall_s, 6)
            report["algorithm"] = "theorem-1.1-self-healing"
            if causal_report is not None:
                report["causal"] = causal_report
            if profile_rows is not None:
                report["profile"] = profile_rows
            print(json.dumps(report, default=repr))
        elif profile_rows is not None:
            _print_profile(say, profile_rows)
        return 4
    say(f"result: planar embedding in {result.rounds} CONGEST rounds")
    if churn_report is not None:
        st = churn_report.stats
        say(f"churn: {st['ops']} ops ({st['inserts']} inserts,"
            f" {st['deletes']} deletes) -> {st['patched']} patched,"
            f" {st['cert_rebuilds']} certificate rebuilds,"
            f" {st['embed_rebuilds']} embed rebuilds;"
            f" mean {churn_report.mean_op_rounds():.1f} rounds/op")
    if args.causal and causal_report is not None:
        _say_causal(say, causal_report, result, graph)
    if getattr(result, "heal_attempts", 0):
        if result.heal_attempts > 1:
            say(f"self-healing: certified after {result.heal_attempts} attempts")
            for line in result.heal_log:
                say(f"  {line}")
        fstats = result.fault_stats
        if fstats is not None:
            say(f"chaos: {fstats['faults_injected']} faults injected"
                f" ({fstats['dropped']} dropped, {fstats['corruption_detected']}"
                f" corruptions detected, {fstats['duplicated']} duplicated,"
                f" {fstats['delayed']} delayed, {fstats['crash_inbox_drops']}"
                f" crash-eaten); recovery traffic:"
                f" {fstats['recovery_messages']} messages,"
                f" {fstats['recovery_words']} words")
    if result.trace:
        say(f"recursion depth: {result.recursion_depth}")
    if getattr(result, "split_tests", 0):
        line = (f"split validation: {result.split_tests} tests,"
                f" {result.split_rejections} rejected")
        oracle = getattr(result, "split_oracle", None)
        if oracle is not None:
            line += (f" (oracle: {oracle['scoped_tests']} witness,"
                     f" {oracle['full_tests']} full LR)")
        say(line)

    exit_code = 0
    suite = None
    if certify:
        say(f"certification: {result.certification.summary()}")
        if not result.certification.accepted:
            exit_code = 3
        if churn_report is not None and not churn_report.accepted:
            # Some per-op scoped verification rejected even though the
            # final full pass may look clean: still an algorithm bug.
            exit_code = 3
        if args.certify_adversary:
            if graph.num_nodes < 2:
                say("tamper suite: skipped (needs at least one edge)")
            else:
                from .certify import run_tamper_suite

                suite = run_tamper_suite(
                    graph, result.rotation, result.certificates, seed=args.seed
                )
                say(suite.summary())
                if not suite.all_detected:
                    exit_code = 3

    if not args.quiet:
        say("clockwise edge orders:")
        for v in sorted(result.rotation, key=repr):
            say(f"  {v}: {' '.join(str(u) for u in result.rotation[v])}")
    say("round ledger:")
    breakdown = result.metrics.phase_breakdown()
    for phase, row in sorted(breakdown.items(), key=lambda x: -x[1]["rounds"]):
        line = f"  {phase:32s} {row['rounds']:7d} rounds {row['words']:9d} words"
        if row.get("activations"):
            line += (
                f" {row['activations']:8d} act"
                f" (saved {row.get('activations_saved', 0)})"
            )
        say(line)
    if result.metrics.node_activations:
        say(
            f"scheduler: {result.metrics.node_activations} node activations,"
            f" {result.metrics.activations_saved} saved vs dense polling"
        )
    if args.json:
        report = result.to_report() if hasattr(result, "to_report") else {
            "type": "run-report",
            "planar": True,
            "n": graph.num_nodes,
            "m": graph.num_edges,
            "rounds": result.rounds,
            "metrics": result.metrics.to_dict(),
        }
        report["wall_s"] = round(wall_s, 6)
        report["algorithm"] = (
            "baseline" if args.baseline
            else "theorem-1.1-self-healing" if fault_plan is not None
            else "theorem-1.1"
        )
        if suite is not None:
            report["tamper_suite"] = suite.to_dict()
        if churn_report is not None:
            report["churn"] = churn_report.to_dict()
        if profile_rows is not None:
            report["profile"] = profile_rows
        print(json.dumps(report, default=repr))
    elif profile_rows is not None:
        _print_profile(say, profile_rows)
    return exit_code


def _stop_profiler(profiler, limit: int = 20) -> list[dict] | None:
    """Disable ``profiler`` and return its top-``limit`` cumulative rows.

    Each row is JSON-ready (function, file, line, call counts, tottime,
    cumtime); ties on cumulative time break deterministically by
    location so repeated profiles diff cleanly.
    """
    if profiler is None:
        return None
    import pstats

    profiler.disable()
    rows = []
    for (file, line, name), (cc, nc, tt, ct, _callers) in pstats.Stats(
        profiler
    ).stats.items():
        rows.append({
            "function": name,
            "file": file,
            "line": line,
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": round(tt, 6),
            "cumtime_s": round(ct, 6),
        })
    rows.sort(key=lambda r: (-r["cumtime_s"], r["file"], r["line"], r["function"]))
    return rows[:limit]


def _print_profile(say, rows: list[dict]) -> None:
    say("profile: top cumulative functions")
    say(f"  {'cumtime_s':>10s} {'tottime_s':>10s} {'ncalls':>9s}  function")
    for row in rows:
        where = f"{row['file']}:{row['line']}" if row["line"] else row["file"]
        say(
            f"  {row['cumtime_s']:10.4f} {row['tottime_s']:10.4f}"
            f" {row['ncalls']:9d}  {row['function']} ({where})"
        )


def _dump_trace(tracer: Tracer | None, sink) -> None:
    if tracer is None or sink is None:
        return
    tracer.write_jsonl(sink)
    if sink is not sys.stdout:
        sink.close()


def _say_causal(say, report: dict, result, graph) -> None:
    """The --causal summary: critical path vs rounds vs the paper bound."""
    cp = report["critical_path"]
    rr = report["real_rounds"]
    say(f"causal: critical path {cp} over {report['executions']} executions;"
        f" {rr} real message rounds; ledger total {result.metrics.rounds} rounds")
    d_upper = getattr(result, "diameter_upper", 0)
    if d_upper:
        log_n = max(1, math.ceil(math.log2(max(2, graph.num_nodes))))
        bound = d_upper * log_n
        say(f"paper prediction O(D log n): D<={d_upper}, log2(n)={log_n} ->"
            f" {bound} rounds per phase-chain; critical/bound = {cp / bound:.2f}")
    for phase, row in sorted(
        report["phases"].items(), key=lambda x: -x[1]["critical_path"]
    ):
        say(f"  {phase:32s} critical {row['critical_path']:6d} /"
            f" {row['rounds']:6d} rounds  {row['messages']:8d} msgs"
            f"  ({row['executions']} execs)")


if __name__ == "__main__":
    sys.exit(main())
