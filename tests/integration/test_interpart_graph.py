"""Audit of the paper's Section 5.2 structural claim on real runs.

"Note that G_P \\ P0 can be any outerplanar graph" — the inter-part
graph that the Lemma 5.3 symmetry breaking consumes is outerplanar, and
after the per-coordinator merges of step 2(b) its low-connection
coloring is proper.  We capture every inter-part instance arising in
real executions and check both preconditions.
"""

import pytest

import repro.core.unrestricted as unrestricted_module
from repro import distributed_planar_embedding
from repro.planar.generators import (
    cylinder_graph,
    delaunay_triangulation,
    grid_graph,
    random_maximal_planar,
)
from tests.integration.generated import is_outerplanar


@pytest.fixture
def captured_instances(monkeypatch):
    captured = []
    original = unrestricted_module.symmetry_break

    def capturing(graph, colors):
        captured.append((graph.copy(), dict(colors)))
        return original(graph, colors)

    monkeypatch.setattr(unrestricted_module, "symmetry_break", capturing)
    return captured


@pytest.mark.parametrize(
    "g",
    [
        grid_graph(9, 9),
        cylinder_graph(5, 9),
        random_maximal_planar(120, 3),
        delaunay_triangulation(120, 6)[0],
    ],
    ids=["grid", "cylinder", "maximal", "delaunay"],
)
def test_interpart_graphs_are_outerplanar_and_properly_colored(
    g, captured_instances
):
    distributed_planar_embedding(g)
    assert captured_instances, "no symmetry-breaking instance arose"
    for inter, colors in captured_instances:
        assert is_outerplanar(inter), (
            f"inter-part graph with {inter.num_nodes} parts is not outerplanar"
        )
        for u, v in inter.edges():
            assert colors[u] != colors[v], "low-connection coloring not proper"
