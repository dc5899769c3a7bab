"""Adversarial families engineered to stress specific algorithm paths.

Each family targets one mechanism of the Section 5.3 merge pipeline:
pendant discharges, two-terminal dedup, split-off copies with
non-consecutive bundles, deep nesting of blocks, huge-degree
coordinators, and parts with many parallel connections.
"""

import pytest

from repro import distributed_planar_embedding
from repro.planar import Graph, verify_planar_embedding
from repro.planar.generators import (
    caterpillar,
    cycle_graph,
    path_graph,
    star_graph,
    subdivide,
    theta_graph,
)


def embed_ok(g):
    result = distributed_planar_embedding(g)
    verify_planar_embedding(g, result.rotation)
    return result


class TestPendantHeavy:
    def test_broom(self):
        # long handle + a fan of bristles at the end: many pendant parts
        g = path_graph(20)
        for i in range(15):
            g.add_edge(19, 100 + i)
        embed_ok(g)

    def test_caterpillar_with_subdivided_legs(self):
        g = subdivide(caterpillar(10, 3), 3)
        embed_ok(g)

    def test_spider(self):
        # one center, many legs of different lengths
        g = Graph(nodes=[0])
        nxt = 1
        for leg in range(8):
            prev = 0
            for _ in range(leg + 2):
                g.add_edge(prev, nxt)
                prev = nxt
                nxt += 1
        embed_ok(g)


class TestTwoTerminalHeavy:
    def test_fat_theta(self):
        # many parallel strands between two terminals: the (i, j)-part
        # dedup (steps 3-5) must park most of them.
        g = theta_graph(8, 6)
        # the dedup machinery may or may not trigger depending on where
        # the splitter lands; what matters is correctness (the mechanism
        # itself is unit-tested directly)
        embed_ok(g)

    def test_nested_thetas(self):
        # a theta graph whose strands are themselves theta graphs
        g = theta_graph(3, 4)
        base_edges = list(g.edges())
        nxt = 1000
        for u, v in base_edges[:3]:
            g.remove_edge(u, v)
            mid1, mid2 = nxt, nxt + 1
            nxt += 2
            for a, b in ((u, mid1), (mid1, v), (u, mid2), (mid2, v)):
                g.add_edge(a, b)
        embed_ok(g)

    def test_ladder(self):
        # parallel rungs: every rung is a 2-terminal bridge candidate
        g = Graph()
        for i in range(12):
            g.add_edge(("a", i), ("a", i + 1))
            g.add_edge(("b", i), ("b", i + 1))
            g.add_edge(("a", i), ("b", i))
        g.add_edge(("a", 12), ("b", 12))
        # relabel to ints for the wrapper
        mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
        h = Graph(nodes=mapping.values())
        for u, v in g.edges():
            h.add_edge(mapping[u], mapping[v])
        embed_ok(h)


class TestCoordinatorStress:
    def test_huge_star(self):
        result = embed_ok(star_graph(60))
        assert result.rounds < 200  # a star is nearly trivial

    def test_double_star(self):
        g = star_graph(20)
        for i in range(21, 41):
            g.add_edge(1, i)
        embed_ok(g)

    def test_wheel_of_wheels(self):
        from repro.planar.generators import wheel_graph

        g = wheel_graph(8)
        nxt = 100
        for rim in range(1, 9):
            # a small wheel pasted onto each rim vertex
            hub = nxt
            ring = [nxt + 1 + k for k in range(4)]
            for k, r in enumerate(ring):
                g.add_edge(hub, r)
                g.add_edge(r, ring[(k + 1) % 4])
            g.add_edge(rim, hub)
            nxt += 10
        embed_ok(g)


class TestNonConsecutiveBundles:
    def test_cylinder_rings(self):
        # the family that originally forced the validated split-off
        from repro.planar.generators import cylinder_graph

        for rows, cols in ((3, 5), (4, 8), (5, 12), (7, 9)):
            embed_ok(cylinder_graph(rows, cols))

    def test_concentric_cycles(self):
        g = cycle_graph(8)
        for k in range(8):
            g.add_edge(k, 10 + k)
            g.add_edge(10 + k, 10 + (k + 1) % 8)
        # and a center inside the inner ring
        for k in range(0, 8, 2):
            g.add_edge(99, 10 + k)
        embed_ok(g)


class TestDeepBlockNesting:
    def test_chain_of_triangles(self):
        g = Graph()
        prev = 0
        nxt = 1
        for _ in range(15):
            a, b = nxt, nxt + 1
            g.add_edge(prev, a)
            g.add_edge(a, b)
            g.add_edge(b, prev)
            prev = b
            nxt += 2
        embed_ok(g)

    def test_subdivided_wheel(self):
        from repro.planar.generators import wheel_graph

        embed_ok(subdivide(wheel_graph(7), 4))

    def test_binary_tree_with_cross_edges(self):
        from repro.planar.generators import binary_tree

        g = binary_tree(5)
        # connect adjacent leaves: still planar (outerplanar-ish fringe)
        leaves = [v for v in g.nodes() if g.degree(v) == 1]
        for a, b in zip(leaves, leaves[1:]):
            g.add_edge(a, b)
        embed_ok(g)


class TestMetricsSanity:
    @pytest.mark.parametrize(
        "g",
        [theta_graph(5, 5), caterpillar(15, 2), cycle_graph(30)],
        ids=["theta", "caterpillar", "cycle"],
    )
    def test_ledger_consistency(self, g):
        result = distributed_planar_embedding(g)
        # Every round has Charge provenance now (real executions are
        # filed as kind="real" by CongestNetwork.run), so the charge sum
        # covers the total; parallel branches over-count it because the
        # ledger composes their rounds as a max while retaining every
        # branch's charges.
        charged = sum(c.rounds for c in result.metrics.charges)
        assert charged >= result.metrics.rounds
        # ... and cost-model charges alone cannot cover more than the
        # total minus at least one real round of leader election.
        model_only = sum(c.rounds for c in result.metrics.charges if c.kind == "charge")
        real_only = charged - model_only
        assert real_only >= 1
        assert result.metrics.max_words_edge_round <= 8
