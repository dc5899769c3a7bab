"""The Section 2 preamble: distributed estimation of n and D.

``DistributedPlanarEmbedding`` runs it once per embedding (leader
election, BFS, then one convergecast and one broadcast of ``(n, ecc)``),
and the result reports what every node learned.
"""

import pytest

from repro import distributed_planar_embedding
from repro.core import DistributedPlanarEmbedding
from repro.planar import Graph
from repro.planar.generators import cycle_graph, grid_graph, path_graph, random_tree


def true_diameter(g):
    best = 0
    for s in g.nodes():
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in g.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


@pytest.mark.parametrize(
    "g",
    [path_graph(20), cycle_graph(15), grid_graph(5, 6), random_tree(40, 2)],
    ids=["path", "cycle", "grid", "tree"],
)
def test_two_approximation(g):
    result = distributed_planar_embedding(g)
    d = true_diameter(g)
    assert result.known_n == g.num_nodes
    assert result.bfs_depth <= d <= result.diameter_upper  # ecc(root) <= D
    assert result.diameter_upper <= 2 * d


def test_leader_is_max_id():
    assert distributed_planar_embedding(grid_graph(4, 4)).leader == 15


def test_single_node():
    result = distributed_planar_embedding(Graph(nodes=[3]))
    assert (result.leader, result.bfs_depth, result.diameter_upper) == (3, 0, 0)
    assert result.metrics.rounds == 0


def test_empty_rejected():
    with pytest.raises(ValueError):
        DistributedPlanarEmbedding(Graph()).run()


def test_costs_linear_in_depth():
    # leader flood + BFS + convergecast + broadcast: a few multiples of D
    phases = distributed_planar_embedding(path_graph(30)).metrics.phase_rounds
    assert phases["leader-election"] + phases["bfs"] + phases["preamble"] <= 5 * 30
    assert phases["preamble"] <= 2 * 30
