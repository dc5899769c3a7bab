"""One workload process of the benchmark (spawned by ``run.py``).

Each workload runs in a fresh interpreter, so the program's module-level
memo tables start empty and ``ru_maxrss`` is the workload's own peak.
Phases:

* ``setup``: imports, input generation, initial state and warm-up, then
  exit; reports the set-up time measured from the parent's spawn.
* ``run``: set-up, then the timed closed loop (untraced) with host-speed
  calibration chunks between ops, then the output checks.
* ``trace``: like ``run`` with the layer wrappers of ``layers.py``
  installed around the timed ops only, for exactly ``--ops`` ops.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve() != (src / "repro" / "__init__.py").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(clock, c: dict) -> dict:
    """The per-layer metrics of a traced run (totals over its ops)."""
    fn_self, fn_calls = clock.layer_fn_self, clock.layer_fn_calls
    s = clock.self_s
    return {
        "planar.scoped.self_s": s["planar.scoped"],
        "planar.scoped.checks": c["oracle_full"] + c["oracle_scoped"],
        "planar.scoped.memo_hit_ratio": _ratio(c["oracle_memo_hits"], c["oracle_scoped"]),
        "planar.scoped.accept_ratio": _ratio(c["split_tests"] - c["split_rejections"],
                                             c["split_tests"]),
        "planar.self_s": s["planar"],
        "planar.lr_s": fn_self("planar", ("lr_is_planar", "lr_planarity", "planar_embedding")),
        # planar_embedding delegates to lr_planarity, so it is not counted.
        "planar.lr_calls": fn_calls("planar", ("lr_is_planar", "lr_planarity")),
        "core.self_s": s["core"],
        "core.merge_s": fn_self("core", ("unrestricted_path_merge", "merge_parts")),
        "core.calls": c["core_calls"],
        "core.merge_fallbacks": c["merge_fallbacks"],
        "primitives.self_s": s["primitives"],
        "primitives.leader_s": fn_self("primitives", ("elect_leader",)),
        "primitives.calls": clock.layer_calls("primitives"),
        "congest.self_s": s["congest"],
        # run_program delegates to CongestNetwork.run: one execution each.
        "congest.executions": fn_calls("congest", ("CongestNetwork.run",)),
        "congest.rounds": c["rounds"],
        "congest.messages": c["messages"],
        "congest.words": c["words"],
        "congest.activation_ratio": _ratio(c["activations"],
                                           c["activations"] + c["activations_saved"]),
        "certify.self_s": s["certify"],
        "certify.encode_s": fn_self("certify", ("encode_certificates",)),
        "certify.verify_s": fn_self("certify", ("verify_compact", "verify_distributed")),
        "certify.patched_ratio": _ratio(c["patched"], c["patch_ops"]),
        "certify.rebuilds": c["rebuilds"],
        "other.self_s": s["other"],
    }


def rollup_failures(clock, timed_s: float, c: dict) -> list[str]:
    """The traced run's consistency checks."""
    failures = []
    total = sum(clock.self_s.values())
    if abs(total - clock.root_wall_s) > 1e-6 * max(1.0, clock.root_wall_s):
        failures.append(f"rollup: layer self times {total:.6f} s != root wall "
                        f"{clock.root_wall_s:.6f} s")
    if timed_s and abs(clock.root_wall_s - timed_s) > 0.02 * timed_s:
        failures.append(f"rollup: root wall {clock.root_wall_s:.4f} s vs timed "
                        f"{timed_s:.4f} s")
    checks = clock.layer_fn_calls("planar.scoped", ("ScopedPlanarityOracle.check_rerouted",))
    if checks != c["oracle_full"] + c["oracle_scoped"]:
        failures.append(f"wrapped check_rerouted calls {checks} != oracle counters")
    return failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--phase", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--spawn-ts", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--ops", type=int, default=0, help="exact op count (trace phase)")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    _import_program()
    import hostspeed
    import layers
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke)
    wl.setup()
    setup_s = time.monotonic() - args.spawn_ts
    # Chunks right after set-up give the host speed to rescale it with.
    calibrator = hostspeed.Calibrator()
    for _ in range(hostspeed.SETUP_CHUNKS):
        calibrator.chunk()
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s, "reference_s": calibrator.samples}))
        return 0

    clock = instrumentation = None
    if args.phase == "trace":
        clock = layers.LayerClock()
        instrumentation = layers.Instrumentation(clock)
        instrumentation.install()
    else:
        layers.assert_untraced()

    latencies: list[float] = []
    rounds: list[int] = []
    words: list[int] = []
    # (op index or None, message); None marks a failed check of the
    # measurement itself rather than of an op's output.
    problems: list[tuple[int | None, str]] = []
    attempted = 0
    timed = 0.0
    cpu0 = process_time()
    try:
        while (attempted < args.ops if args.phase == "trace"
               else attempted < wl.min_ops or timed < args.seconds):
            i = attempted
            x = wl.op_input(i)
            attempted += 1
            t0 = perf_counter()
            try:
                out = clock.call_root(wl.run_op, x) if clock else wl.run_op(x)
            except Exception as exc:  # a failed op ends the run; it is reported, not raised
                problems.append((i, f"{type(exc).__name__}: {exc}"))
                traceback.print_exc()
                break
            dt = perf_counter() - t0
            timed += dt
            latencies.append(dt)
            r, w, problem = wl.record(x, out)
            rounds.append(r)
            words.append(w)
            if problem:
                problems.append((i, problem))
            calibrator.after_op(dt)
    finally:
        if instrumentation is not None:
            instrumentation.restore()
    cpu_s = process_time() - cpu0
    calibrator.chunk()
    layers.assert_untraced()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems += wl.check()
    report = {}
    if clock is not None:
        report["layers"] = layer_metrics(clock, wl.counters)
        problems += [(None, msg) for msg in rollup_failures(clock, timed, wl.counters)]
    report.update({
        "setup_s": setup_s,
        "min_ops": wl.min_ops,
        "latencies": latencies,
        "rounds": rounds,
        "words": words,
        "peak_rss_mb": peak_rss_mb,
        "timed_s": timed,
        "cpu_s": cpu_s,
        "reference_s": calibrator.samples,
        "op_chunks": calibrator.op_chunks,
        "attempted": attempted,
        "failed": len({i for i, _ in problems if i is not None}),
        "problems": [msg if i is None else f"op {i}: {msg}" for i, msg in problems[:20]],
        "counters": wl.counters,
    })
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
