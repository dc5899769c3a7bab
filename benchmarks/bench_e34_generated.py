"""E34 — a fixed seeded corpus of generated inputs, every check on each.

The corpus is :mod:`tests.integration.generated`'s families at fixed
seeds: 40 inputs per planar family (six families, n = 5, 10, .., 200,
every fourth one certified) and 30 per non-planar family (two families,
n = 20, 24, .., 136).  Each planar input must pass
:func:`~tests.integration.generated.check_planar_input` (networkx-valid
output, Lemma 4.2 part sizes and P0 length, Lemma 4.3 depth, rounds at
most 120 n, certification accepted) and
:func:`~tests.integration.generated.check_theorem_bound` (Theorem 1.1's
``rounds <= 16 D~ min(log2 n, D~)``), and each non-planar one
:func:`~tests.integration.generated.check_nonplanar_input` (a
``NonPlanarNetworkError`` and an edge-minimal K5 or K3,3 witness inside
the input).  Tier-1's property tests draw the same families at
n <= 60; this is the deeper run.  ``REPRO_BENCH_SMOKE`` does not shrink
it: the corpus is the point.
"""

import math
import time

from repro.analysis import print_table, verdict
from tests.integration.generated import (
    NONPLANAR_FAMILIES,
    PLANAR_FAMILIES,
    build,
    check_nonplanar_input,
    check_planar_input,
    check_theorem_bound,
    theorem_ratio,
)

PLANAR_SEEDS = range(40)
NONPLANAR_SEEDS = range(30)


def planar_corpus():
    """(family, seed, n, certify, graph) for every planar corpus input."""
    for family, generator in PLANAR_FAMILIES.items():
        for seed in PLANAR_SEEDS:
            n = 5 * (seed + 1)
            yield family, seed, n, seed % 4 == 0, build(generator, seed, n)


def nonplanar_corpus():
    """(family, seed, n, graph) for every non-planar corpus input."""
    for family, generator in NONPLANAR_FAMILIES.items():
        for seed in NONPLANAR_SEEDS:
            n = 20 + 4 * seed
            yield family, seed, n, build(generator, seed, n)


def run_experiment(report=None):
    rows = {}
    failures = []
    for family, seed, _, certify, graph in planar_corpus():
        row = rows.setdefault(family, [family, 0, 0, 0, 0.0, 0.0, 0.0])
        n = graph.num_nodes
        t0 = time.perf_counter()
        try:
            result = check_planar_input(graph, certify=certify)
            check_theorem_bound(result)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append((family, seed, f"{type(exc).__name__}: {exc}"))
            continue
        wall = time.perf_counter() - t0
        row[1] += 1
        row[2] += certify
        row[3] = max(row[3], result.recursion_depth)
        row[4] = max(row[4], round(result.rounds / n, 1))
        row[5] = max(row[5], round(result.recursion_depth / (math.log(max(n, 2), 1.5) + 2), 2))
        row[6] = max(row[6], round(theorem_ratio(result), 2))
        if report is not None:
            report.record_run(
                graph, result, wall, family=family, seed=seed, certified=certify,
                recursion_depth=result.recursion_depth,
            )
    print_table(
        ["family", "passed", "certified", "max depth", "max rounds/n", "max depth/bound",
         "max rounds/(D~ min(log n, D~))"],
        list(rows.values()),
        title=f"E34: {len(PLANAR_SEEDS)} generated planar inputs per family",
    )
    kinds = {}
    for family, seed, _, graph in nonplanar_corpus():
        t0 = time.perf_counter()
        try:
            kind = check_nonplanar_input(graph)
        except Exception as exc:  # noqa: BLE001 - every failure is reported
            failures.append((family, seed, f"{type(exc).__name__}: {exc}"))
            continue
        kinds.setdefault(family, {"K5": 0, "K3,3": 0})[kind] += 1
        if report is not None:
            report.record(
                family=family, seed=seed, n=graph.num_nodes, m=graph.num_edges,
                planar=False, witness=kind, wall_s=round(time.perf_counter() - t0, 6),
            )
    print_table(
        ["family", "K5 witnesses", "K3,3 witnesses"],
        [[family, k["K5"], k["K3,3"]] for family, k in kinds.items()],
        title=f"E34: {len(NONPLANAR_SEEDS)} generated non-planar inputs per family",
    )
    return failures


def test_e34_generated(run_once, bench_report):
    failures = run_once(run_experiment, bench_report)
    total = (len(PLANAR_FAMILIES) * len(PLANAR_SEEDS)
             + len(NONPLANAR_FAMILIES) * len(NONPLANAR_SEEDS))
    assert verdict(
        "E34: every generated input passes every per-input check",
        not failures,
        f"{total} inputs; failing (family, seed, error): {failures}",
    )
