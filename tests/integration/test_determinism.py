"""Determinism, trace integrity, and knob monotonicity across the stack."""

import pytest

from repro import DistributedPlanarEmbedding, distributed_planar_embedding
from repro.planar.generators import (
    cylinder_graph,
    delaunay_triangulation,
    grid_graph,
    random_maximal_planar,
    theta_graph,
)


class TestDeterminism:
    @pytest.mark.parametrize(
        "g",
        [grid_graph(6, 5), cylinder_graph(4, 6), random_maximal_planar(40, 9),
         theta_graph(4, 4)],
        ids=["grid", "cylinder", "maximal", "theta"],
    )
    def test_identical_reruns(self, g):
        a = distributed_planar_embedding(g)
        b = distributed_planar_embedding(g)
        assert a.rotation == b.rotation
        assert a.rounds == b.rounds
        assert a.metrics.total_words == b.metrics.total_words
        assert [r.splitter for r in a.trace] == [r.splitter for r in b.trace]

    def test_generators_deterministic(self):
        g1, p1 = delaunay_triangulation(60, 5)
        g2, p2 = delaunay_triangulation(60, 5)
        assert g1.edges() == g2.edges()
        assert p1 == p2


class TestTraceIntegrity:
    def test_subtree_sizes_sum(self):
        g = grid_graph(7, 7)
        result = distributed_planar_embedding(g)
        top = [r for r in result.trace if r.level == 0]
        assert len(top) == 1
        assert top[0].subtree_size == g.num_nodes

    def test_every_call_has_consistent_p0(self):
        g = random_maximal_planar(80, 2)
        result = distributed_planar_embedding(g)
        for r in result.trace:
            if r.subtree_size > 1:
                assert 1 <= r.p0_length <= r.subtree_size
                assert sum(r.part_sizes) + r.p0_length == r.subtree_size

    def test_levels_nested(self):
        g = grid_graph(8, 8)
        result = distributed_planar_embedding(g)
        by_level = {}
        for r in result.trace:
            by_level.setdefault(r.level, []).append(r)
        # deeper levels cover fewer vertices in each call
        for level in range(1, max(by_level)):
            assert max(r.subtree_size for r in by_level[level]) <= max(
                r.subtree_size for r in by_level[level - 1]
            )

    def test_preamble_knowledge(self):
        g = grid_graph(6, 6)
        result = distributed_planar_embedding(g)
        assert result.known_n == 36
        assert result.diameter_upper >= 10  # true D = 10
        assert result.diameter_upper <= 2 * 10


class TestKnobs:
    def test_bandwidth_monotone(self):
        g = grid_graph(8, 8)
        rounds = [
            DistributedPlanarEmbedding(g, bandwidth_words=b).run().rounds
            for b in (1, 2, 4, 8)
        ]
        assert all(a >= b for a, b in zip(rounds, rounds[1:]))
