"""Remaining generator families and their structural guarantees."""

from repro.planar import is_planar
from repro.planar.generators import (
    binary_tree,
    random_outerplanar,
    stacked_prism,
    subdivide,
    theta_graph,
)
from tests.integration.generated import is_outerplanar


def test_binary_tree_shape():
    g = binary_tree(4)
    assert g.num_nodes == 31
    assert g.num_edges == 30
    assert g.degree(0) == 2
    leaves = [v for v in g.nodes() if g.degree(v) == 1]
    assert len(leaves) == 16


def test_binary_tree_is_outerplanar():
    assert is_outerplanar(binary_tree(3))


def test_stacked_prism_planarity_sweep():
    for layers, rim in ((2, 3), (3, 8), (5, 20)):
        g = stacked_prism(layers, rim)
        assert g.num_nodes == layers * rim
        assert is_planar(g)


def test_subdivision_preserves_planarity_and_nonplanarity():
    from repro.planar.generators import complete_graph

    assert is_planar(subdivide(complete_graph(4), 5))
    assert not is_planar(subdivide(complete_graph(5), 5))


def test_theta_is_outerplanar_iff_two_paths():
    assert is_outerplanar(theta_graph(2, 5))
    assert not is_outerplanar(theta_graph(3, 5))  # K2,3 subdivision


def test_random_outerplanar_chord_budget():
    g = random_outerplanar(20, 3, extra_chords=0)
    assert g.num_edges == 20  # just the cycle
    g2 = random_outerplanar(20, 3)
    assert g2.num_edges >= 20
    assert is_outerplanar(g2)
