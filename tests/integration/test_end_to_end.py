"""End-to-end runs of the distributed embedding across graph families.

Every run is checked three ways: the output is a valid rotation system of
the input, its Euler genus is zero (a real planar embedding), and the
planarity *decision* agrees with networkx.
"""

import math

import networkx as nx
import pytest

from repro import distributed_planar_embedding
from repro.core import NonPlanarNetworkError
from repro.planar import Graph, verify_planar_embedding
from repro.planar.generators import (
    caterpillar,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    delaunay_triangulation,
    grid_graph,
    k4_subdivision,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    star_graph,
    theta_graph,
    triangulated_grid,
    wheel_graph,
)

FAMILIES = [
    ("single", Graph(nodes=[0])),
    ("edge", path_graph(2)),
    ("triangle", cycle_graph(3)),
    ("path30", path_graph(30)),
    ("cycle17", cycle_graph(17)),
    ("star9", star_graph(9)),
    ("tree40", random_tree(40, 2)),
    ("caterpillar", caterpillar(8, 2)),
    ("grid5x6", grid_graph(5, 6)),
    ("trigrid5", triangulated_grid(5, 5)),
    ("cylinder4x8", cylinder_graph(4, 8)),
    ("wheel10", wheel_graph(10)),
    ("theta35", theta_graph(3, 5)),
    ("k4", complete_graph(4)),
    ("k4sub6", k4_subdivision(6)),
    ("outerplanar25", random_outerplanar(25, 4)),
    ("maxplanar35", random_maximal_planar(35, 6)),
    ("planar45", random_planar(45, 80, 12)),
    ("delaunay50", delaunay_triangulation(50, 8)[0]),
]


@pytest.mark.parametrize("name,g", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_family_embeds_and_verifies(name, g):
    result = distributed_planar_embedding(g)
    system = verify_planar_embedding(g, result.rotation)
    assert system.genus() == 0
    # output format: every vertex orders exactly its own edges
    for v in g.nodes():
        assert sorted(result.rotation[v], key=repr) == sorted(
            g.neighbors(v), key=repr
        )


@pytest.mark.parametrize(
    "name,g",
    [("k5", complete_graph(5)), ("k33", complete_bipartite(3, 3)),
     ("k5sub_plus", None)],
    ids=["k5", "k33", "k5-plus-paths"],
)
def test_nonplanar_rejected(name, g):
    if g is None:
        # K5 with pendant paths: non-planarity buried under tree parts.
        g = complete_graph(5)
        nxt = 5
        for v in range(5):
            g.add_edge(v, nxt)
            g.add_edge(nxt, nxt + 1)
            nxt += 2
    with pytest.raises(NonPlanarNetworkError):
        distributed_planar_embedding(g)


class TestPaperInvariants:
    """Lemmas 4.2 and 4.3, measured on real executions."""

    def test_recursion_depth_bound(self):
        # Lemma 4.3: depth <= min(O(log n), D) — with the 2/3 shrink the
        # log base is 3/2.
        for g in (grid_graph(8, 8), random_maximal_planar(80, 1), cycle_graph(40)):
            result = distributed_planar_embedding(g)
            n = g.num_nodes
            assert result.recursion_depth <= math.log(n, 1.5) + 2

    def test_part_sizes_shrink(self):
        # Lemma 4.2: every hanging part has <= 2|T_s|/3 vertices.
        result = distributed_planar_embedding(grid_graph(7, 7))
        for record in result.trace:
            for size in record.part_sizes:
                assert 3 * size <= 2 * record.subtree_size

    def test_p0_is_short(self):
        # P0 is a root-to-splitter tree path: at most depth(T_s)+1 long.
        result = distributed_planar_embedding(grid_graph(7, 7))
        for record in result.trace:
            if record.p0_length:
                assert record.p0_length <= record.subtree_depth + 1

    def test_rounds_scale_with_headline_bound(self):
        # Theorem 1.1 shape: rounds / (D * log n) bounded by a constant
        # across sizes (grids: D = Theta(sqrt n)).
        ratios = []
        for k in (8, 12, 16):
            g = grid_graph(k, k)
            result = distributed_planar_embedding(g)
            d = 2 * (k - 1)
            ratios.append(result.rounds / (d * math.log2(g.num_nodes)))
        assert max(ratios) / min(ratios) < 2.5

    def test_beats_baseline_at_scale(self):
        from repro import trivial_baseline_embedding

        g = grid_graph(18, 18)
        alg = distributed_planar_embedding(g)
        base = trivial_baseline_embedding(g)
        assert alg.rounds < base.rounds


class TestAgainstNetworkxOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_connected_graphs(self, seed):
        import random

        rng = random.Random(seed)
        nxg = nx.gnp_random_graph(rng.randrange(4, 16), rng.uniform(0.2, 0.7), seed=seed)
        if nxg.number_of_nodes() == 0 or not nx.is_connected(nxg):
            nxg = nx.path_graph(5)
        g = Graph(nodes=nxg.nodes(), edges=nxg.edges())
        expected, _ = nx.check_planarity(nxg)
        try:
            result = distributed_planar_embedding(g)
            assert expected
            verify_planar_embedding(g, result.rotation)
        except NonPlanarNetworkError:
            assert not expected
