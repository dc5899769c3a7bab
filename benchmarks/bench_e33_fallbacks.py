"""E33 — every merge of 160 random planar inputs realizes its arrangement.

``merge_parts`` has one algorithm: the skeleton merge.  A non-planar
coordinator instance is the non-planarity verdict, and any other merge
failure raises as an internal error.  Until E34 a fallback re-embedded
the union instead; it fired on four of the 160 ``random_planar`` inputs
below, where assembly spliced a two-terminal part into a face that
separated the merged part's stubs, and assembly now picks a face that
keeps them on one side.

The gate runs the same 160 inputs (n in {60, 120, 200, 300}, seeds 0-39)
and requires each to embed without an exception, with an output that
networkx accepts as a planar embedding of exactly the input's edges.
``REPRO_BENCH_SMOKE`` does not shrink it: the corpus is the point.
"""

import time

from repro import distributed_planar_embedding
from repro.analysis import print_table, verdict
from repro.planar.generators import random_planar
from tests.integration.generated import networkx_accepts

SIZES = (60, 120, 200, 300)
SEEDS = range(40)


def run_experiment(report=None):
    rows = []
    failures = []
    for n in SIZES:
        raised = invalid = 0
        for seed in SEEDS:
            graph = random_planar(n, seed=seed)
            t0 = time.perf_counter()
            try:
                result = distributed_planar_embedding(graph)
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                raised += 1
                failures.append((n, seed, f"{type(exc).__name__}: {exc}"))
                continue
            wall = time.perf_counter() - t0
            valid = networkx_accepts(graph, result.rotation)
            invalid += not valid
            if not valid:
                failures.append((n, seed, "networkx rejects the output"))
            if report is not None:
                report.record_run(graph, result, wall, seed=seed, networkx_ok=valid)
        rows.append([n, len(SEEDS), raised, invalid])
    print_table(
        ["n", "inputs", "raised", "invalid outputs"],
        rows,
        title="E33: random_planar(n, seed) for seeds 0-39",
    )
    return failures


def test_e33_fallbacks(run_once, bench_report):
    failures = run_once(run_experiment, bench_report)
    assert verdict(
        "E33: every input embeds, and networkx accepts every output",
        not failures,
        f"{len(SIZES) * len(SEEDS)} inputs; failing (n, seed, error): {failures}",
    )
