#!/usr/bin/env python3
"""Repository benchmark for the distributed planar embedding reproduction.

Run from the repository root (no build step; the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload outerplanar --seed 1 --seconds 10 --trace 0

``--workload`` is one of the workloads in ``BENCHMARK.json``
(``outerplanar``, ``subdivided``, ``certify-churn``; see
``perfbench/README.md`` for why each exists).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
``--smoke`` shrinks inputs and op counts so the whole path runs in
seconds (the benchmark's own tests use it).

Each workload runs in fresh interpreters (``worker.py``): a few set-up
only processes give the median ``setup_s``, one process runs the timed
closed loop.  Times are rescaled to a nominal host speed measured by
calibration chunks between ops (``hostspeed.py``); the raw figures and
the speed factor are in the diagnostic line.  A fixed pure-Python probe
that imports nothing from the program is timed before and after, as a
host-drift diagnostic.  The last
line of stdout is the result object; the line before it holds the
diagnostics.  The exit code is 0 only when every op and every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

DEFAULT_SEED = 1
# The unseen seed: a gain claimed on DEFAULT_SEED must also hold here.
UNSEEN_SEED = 4242
SETUP_SAMPLES = 3  # fresh-interpreter set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s; leave room to report


class WorkerError(RuntimeError):
    pass


def spawn(phase: str, args, deadline: float, ops: int = 0) -> dict:
    """Run one worker process to completion and parse its report."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase]
    if ops:
        cmd += ["--ops", str(ops)]
    if args.smoke:
        cmd.append("--smoke")
    # A fixed hash seed makes a run a pure function of --seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_ts = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawn-ts", repr(spawn_ts)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError(f"{phase} worker exceeded the run deadline") from None
    if err:
        sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{phase} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rescaled(report: dict) -> list[float]:
    """Op latencies rescaled to nominal host speed (``hostspeed.speeds``)."""
    return [t * v for t, v in zip(report["latencies"],
                                  hostspeed.speeds(report["reference_s"], report["op_chunks"]))]


def setup_rescaled(report: dict) -> float:
    """A worker's set-up time rescaled by the chunks run right after it."""
    return report["setup_s"] * hostspeed.speed(report["reference_s"][:hostspeed.SETUP_CHUNKS])


def end_to_end(main: dict, latencies: list[float], setups: list[float]) -> dict:
    # The exact counts cover the minimum op prefix, which every run of a
    # seed completes, so they repeat exactly for the seed.
    prefix = max(1, min(main["min_ops"], len(main["rounds"])))
    return {
        "ops_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_p90_s": percentile(latencies, 90) if latencies else 0.0,
        "rounds_per_op": sum(main["rounds"][:prefix]) / prefix,
        "words_per_op": sum(main["words"][:prefix]) / prefix,
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """The traced run's layer metrics, times rescaled like the end-to-end ones."""
    raw, scaled = sum(traced["latencies"]), sum(rescaled(traced))
    factor = scaled / raw if raw else 1.0
    metrics = {k: v * factor if k.endswith("_s") else v for k, v in traced["layers"].items()}
    base = sum(rescaled(untraced)[:len(traced["latencies"])])
    metrics["trace.overhead_ratio"] = scaled / base if base else 0.0
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; {UNSEEN_SEED} is the unseen "
                        "seed a claimed gain must also hold on)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="minimum timed seconds (a workload also has a minimum op count)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs and op counts")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        p.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    probe_before = hostspeed.probe()
    try:
        if args.trace:
            untraced = spawn("run", args, deadline)
            main_report = spawn("trace", args, deadline, ops=len(untraced["latencies"]) or 1)
            metrics = per_layer(untraced, main_report)
            reports = [untraced, main_report]
            raw = None
        else:
            setups = [spawn("setup", args, deadline) for _ in range(SETUP_SAMPLES - 1)]
            main_report = spawn("run", args, deadline)
            setups.append(main_report)
            metrics = end_to_end(main_report, rescaled(main_report),
                                 [setup_rescaled(r) for r in setups])
            raw = end_to_end(main_report, main_report["latencies"],
                             [r["setup_s"] for r in setups])
            reports = [main_report]
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    probe_after = hostspeed.probe()

    if set(metrics) != {m["name"] for m in wanted}:
        print(f"perfbench: computed metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    problems = [msg for r in reports for msg in r["problems"]]
    for msg in problems:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    diagnostic = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_probe_before_s": probe_before,
        "host_probe_after_s": probe_after,
        "ops": len(main_report["latencies"]),
        "timed_s": main_report["timed_s"],
        "cpu_over_wall": main_report["cpu_s"] / main_report["timed_s"]
        if main_report["timed_s"] else 0.0,
        "host_speed": hostspeed.speed(main_report["reference_s"]),
        "raw": raw,
        "latencies_s": main_report["latencies"],
        "rounds": main_report["rounds"],
        "counters": main_report["counters"],
    }
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for name, entry in result["metrics"].items():
        print(f"  {args.workload:<14} {name:<30} {entry['value']:>14.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps({"diagnostic": diagnostic}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
