"""Road network: planar embedding as a preprocessing step at city scale.

The paper positions distributed planar embedding as "the first
algorithmic step" that later algorithms (MST, min-cut — part II of the
project) consume as a black box.  Road networks are near-planar; this
example models a downtown as a triangulated grid (blocks plus diagonal
shortcuts), runs both the Theorem 1.1 algorithm and the trivial
gather-at-one-node baseline, and breaks the round budget down by phase —
the comparison in which the paper's O(D log n) beats the folklore O(n).

    python examples/road_network.py
"""

import math

from repro import distributed_planar_embedding, trivial_baseline_embedding
from repro.planar.generators import triangulated_grid


def main() -> None:
    print("city grid sweep: algorithm vs gather-everything baseline\n")
    print(f"{'n':>6} {'D~':>5} {'algorithm':>10} {'baseline':>9} "
          f"{'factor':>7} {'D*log2(n)':>10}")
    for k in (6, 10, 14, 20, 28):
        graph = triangulated_grid(k, k)
        alg = distributed_planar_embedding(graph)
        base = trivial_baseline_embedding(graph)
        n = graph.num_nodes
        d = 2 * alg.bfs_depth
        print(f"{n:>6} {d:>5} {alg.rounds:>10} {base.rounds:>9} "
              f"{base.rounds / alg.rounds:>6.1f}x {d * math.log2(n):>10.0f}")

    print("\nphase breakdown of the largest run:")
    graph = triangulated_grid(28, 28)
    alg = distributed_planar_embedding(graph)
    total = alg.rounds
    for phase, rounds in sorted(alg.metrics.phase_rounds.items(), key=lambda x: -x[1]):
        print(f"  {phase:32s} {rounds:7d}  ({100 * rounds / total:4.1f}%)")


if __name__ == "__main__":
    main()
