"""The unrestricted path-coordinated merge driver (paper Section 5.3)."""

import pytest

from repro import distributed_planar_embedding
from repro.congest import RoundMetrics
from repro.core import fresh_part, unrestricted_path_merge
from repro.core.unrestricted import _MergeDriver
from repro.planar import RotationSystem
from repro.planar.generators import caterpillar, grid_graph, path_graph, star_graph


def build_scenario(graph, p0_nodes, hanging_groups):
    """P0's half-edges + hanging parts over ``graph`` with full boundaries."""
    def boundary_of(nodes):
        return [
            (u, x)
            for u in sorted(nodes, key=repr)
            for x in graph.neighbors(u)
            if x not in nodes
        ]

    p0 = boundary_of(set(p0_nodes))
    hanging = [
        fresh_part(graph.subgraph(nodes), boundary_of(set(nodes)))
        for nodes in hanging_groups
    ]
    return p0, hanging


class TestWholeGraphMerges:
    def test_grid_rows(self):
        # P0 = middle row of a 3xK grid; hanging parts = the other rows.
        g = grid_graph(3, 5)
        p0_nodes = [5, 6, 7, 8, 9]
        rows = [{0, 1, 2, 3, 4}, {10, 11, 12, 13, 14}]
        p0, hanging = build_scenario(g, p0_nodes, rows)
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge(p0_nodes, p0, hanging, metrics)
        assert merged.vertices >= set(g.nodes())
        assert merged.boundary == []
        assert merged.rotation.genus() == 0
        assert stats.initial_parts == 2
        assert metrics.rounds > 0

    def test_path_with_pendants(self):
        # star-of-paths: P0 is the center path, pendant paths hang off it.
        g = path_graph(5)
        pendant_nodes = []
        nxt = 100
        for v in range(5):
            g.add_edge(v, nxt)
            g.add_edge(nxt, nxt + 1)
            pendant_nodes.append({nxt, nxt + 1})
            nxt += 10
        p0_nodes = [0, 1, 2, 3, 4]
        p0, hanging = build_scenario(g, p0_nodes, pendant_nodes)
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge(p0_nodes, p0, hanging, metrics)
        assert merged.boundary == []
        assert merged.rotation.genus() == 0
        # each pendant connects to exactly one P0 vertex and nothing else:
        # all must discharge via step 2(c)
        assert stats.pendants_discharged == 5

    def test_two_terminal_parts_deduped(self):
        # several parallel 2-terminal parts between P0's ends
        g = path_graph(3)
        groups = []
        nxt = 50
        for _ in range(4):
            g.add_edge(0, nxt)
            g.add_edge(nxt, nxt + 1)
            g.add_edge(nxt + 1, 2)
            groups.append({nxt, nxt + 1})
            nxt += 10
        p0_nodes = [0, 1, 2]
        p0, hanging = build_scenario(g, p0_nodes, groups)
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge(p0_nodes, p0, hanging, metrics)
        assert merged.boundary == []
        assert merged.rotation.genus() == 0
        assert stats.two_terminal_exited == 3  # all but the highest-ID one

    def test_external_boundary_preserved(self):
        g = grid_graph(2, 4)
        p0_nodes = [0, 1, 2, 3]
        p0, hanging = build_scenario(g, p0_nodes, [{4, 5, 6, 7}])
        # fake outside world: attach external half-edges to the hanging part
        hanging[0] = fresh_part(
            hanging[0].graph, hanging[0].boundary + [(4, 999)]
        )
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge(p0_nodes, p0, hanging, metrics)
        assert merged.boundary == [(4, 999)]
        assert merged.rotation.genus() == 0

    def test_no_hanging_parts(self):
        g = path_graph(4)
        p0, _ = build_scenario(g, [0, 1, 2, 3], [])
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge([0, 1, 2, 3], p0, [], metrics)
        assert merged.vertices == {0, 1, 2, 3}
        assert stats.initial_parts == 0
        # P0 alone: the path through p0_order, its depth the path's length
        assert merged.graph.edges() == [(0, 1), (1, 2), (2, 3)]
        assert merged.depth == 3


class TestStatsAndCharges:
    def test_phase_charges_recorded(self):
        # P0 = middle row; four hanging parts, each touching P0 (the
        # recursion's invariant) and some touching each other.
        g = grid_graph(3, 6)
        p0_nodes = [6, 7, 8, 9, 10, 11]
        rows = [{0, 1, 2}, {3, 4, 5}, {12, 13, 14}, {15, 16, 17}]
        p0, hanging = build_scenario(g, p0_nodes, rows)
        metrics = RoundMetrics()
        merged, stats = unrestricted_path_merge(p0_nodes, p0, hanging, metrics)
        assert "unrestricted:low-connection" in metrics.phase_rounds
        assert "merge:path" in metrics.phase_rounds
        assert stats.final_instance_parts >= 1
        assert len(stats.parts_after_iteration) == 2


class TestAssembly:
    @pytest.mark.parametrize(
        "make", [lambda: star_graph(63), lambda: caterpillar(16, 3)], ids=["star", "caterpillar"]
    )
    def test_one_genus_check_per_assembly(self, make, monkeypatch):
        """Assembly splices every discharged part, however many, into one
        rotation and genus-checks it once."""
        real_check = RotationSystem.is_planar_embedding
        real_assemble = _MergeDriver._assemble
        counts = {"inside": False, "checks": 0}
        assemblies = []

        def counting_check(self):
            counts["checks"] += counts["inside"]
            return real_check(self)

        def spy(self, merged):
            counts.update(inside=True, checks=0)
            try:
                return real_assemble(self, merged)
            finally:
                counts["inside"] = False
                assemblies.append((len(self.pendants) + len(self.exited), counts["checks"]))

        monkeypatch.setattr(RotationSystem, "is_planar_embedding", counting_check)
        monkeypatch.setattr(_MergeDriver, "_assemble", spy)
        distributed_planar_embedding(make())
        assert max(parts for parts, _ in assemblies) >= 15
        assert all(checks == (1 if parts else 0) for parts, checks in assemblies)
