"""E33 — no merge falls back to re-embedding the union.

``merge_parts`` keeps a correctness fallback: when a skeleton merge
cannot realize its arrangement it re-embeds the union of the parts
directly.  On a safe partition it should never fire.  It did on four of
the 160 ``random_planar`` inputs below, where assembly spliced a
two-terminal part into a face that separated the merged part's stubs;
assembly now picks a face that keeps them on one side.

The gate runs the same 160 inputs (n in {60, 120, 200, 300}, seeds
0-39) in both modes and requires, on each, ``merge_fallbacks == 0`` and
an output that networkx accepts as a planar embedding of exactly the
input's edges.  ``REPRO_BENCH_SMOKE`` does not shrink it: the corpus is
the point.
"""

import time

import networkx as nx

from repro import distributed_planar_embedding
from repro.analysis import print_table, verdict
from repro.planar.generators import random_planar

SIZES = (60, 120, 200, 300)
SEEDS = range(40)


def networkx_accepts(graph, result):
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(ring) for v, ring in result.rotation.items()})
    try:
        embedding.check_structure()
    except nx.NetworkXException:
        return False
    edges = {frozenset(e) for e in embedding.edges()}
    return edges == {frozenset(e) for e in graph.edges()}


def run_experiment(report=None):
    rows = []
    failures = []
    for n in SIZES:
        fallbacks = invalid = 0
        for seed in SEEDS:
            graph = random_planar(n, seed=seed)
            t0 = time.perf_counter()
            result = distributed_planar_embedding(graph)
            wall = time.perf_counter() - t0
            valid = networkx_accepts(graph, result)
            fallbacks += result.merge_fallbacks
            invalid += not valid
            if result.merge_fallbacks or not valid:
                failures.append((n, seed, result.merge_fallbacks, valid))
            if report is not None:
                report.record_run(
                    graph, result, wall, seed=seed,
                    merge_fallbacks=result.merge_fallbacks, networkx_ok=valid,
                )
        rows.append([n, len(SEEDS), fallbacks, invalid])
    print_table(
        ["n", "inputs", "merge fallbacks", "invalid outputs"],
        rows,
        title="E33: random_planar(n, seed) for seeds 0-39",
    )
    return failures


def test_e33_fallbacks(run_once, bench_report):
    failures = run_once(run_experiment, bench_report)
    assert verdict(
        "E33: no merge fallback and a networkx-valid output on every input",
        not failures,
        f"{len(SIZES) * len(SEEDS)} inputs; failing (n, seed, fallbacks, valid): {failures}",
    )
