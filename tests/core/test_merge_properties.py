"""Property-based merge testing: random planar graphs, random bipartitions.

The central correctness property of the merge engine: splitting any
connected planar graph into connected parts, embedding each with its
half-embedded edges co-facial, and merging must reproduce a planar
embedding of the whole.  A non-planar coordinator instance is the
non-planarity verdict, and a sabotaged skeleton surfaces as the internal
error it is: there is no second merge algorithm to mask it.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.merges as merges_module
from repro.core import fresh_part, merge_parts
from repro.core.interface import SkeletonError
from repro.planar.generators import grid_graph, random_planar


def random_connected_bipartition(g, rng):
    """Grow one connected half; keep only splits whose other side is
    connected too (else report None)."""
    nodes = g.nodes()
    size = rng.randrange(1, g.num_nodes)
    seed = rng.choice(nodes)
    side = {seed}
    frontier = [seed]
    while frontier and len(side) < size:
        v = frontier.pop(rng.randrange(len(frontier)))
        for u in g.neighbors(v):
            if u not in side and len(side) < size:
                side.add(u)
                frontier.append(u)
    other = set(nodes) - side
    if not other or not g.subgraph(other).is_connected():
        return None
    return side, other


def part_of(g, nodes):
    sub = g.subgraph(nodes)
    boundary = [
        (u, x)
        for u in sorted(nodes, key=repr)
        for x in g.neighbors(u)
        if x not in nodes
    ]
    return fresh_part(sub, boundary)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(min_value=4, max_value=40),
    graph_seed=st.integers(0, 10**6),
    split_seed=st.integers(0, 10**6),
)
def test_split_and_merge_roundtrip(n, graph_seed, split_seed):
    g = random_planar(n, 2 * n, graph_seed)
    rng = random.Random(split_seed)
    split = random_connected_bipartition(g, rng)
    if split is None:
        return
    parts = [part_of(g, side) for side in split]
    result = merge_parts(parts)
    merged = result.part
    assert merged.vertices == set(g.nodes())
    assert merged.boundary == []
    assert merged.rotation.genus() == 0
    assert merged.graph.num_edges == g.num_edges


def test_sabotaged_skeleton_raises_out_of_merge_parts(monkeypatch):
    """A skeleton failure is an internal error: it propagates."""

    def broken_skeleton(part, decomposition=None, face=None, steiner=None):
        raise SkeletonError("sabotaged for testing")

    monkeypatch.setattr(merges_module, "interface_skeleton", broken_skeleton)
    g = grid_graph(3, 4)
    top = {0, 1, 2, 3}
    bottom = set(g.nodes()) - top
    with pytest.raises(SkeletonError, match="sabotaged"):
        merge_parts([part_of(g, top), part_of(g, bottom)])


def test_k5_in_two_parts_is_rejected_by_the_instance():
    """K5 split into {0, 1} and {2, 3, 4}: the coordinator's instance is
    non-planar, and that is the verdict (the message is the instance's)."""
    from repro.core import NonPlanarNetworkError
    from repro.planar.generators import complete_graph

    g = complete_graph(5)
    parts = [part_of(g, {0, 1}), part_of(g, {2, 3, 4})]
    with pytest.raises(NonPlanarNetworkError, match="admit no planar arrangement"):
        merge_parts(parts)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=30),
    graph_seed=st.integers(0, 10**6),
    split_seed=st.integers(0, 10**6),
)
def test_three_way_split_and_merge(n, graph_seed, split_seed):
    g = random_planar(n, 2 * n, graph_seed)
    rng = random.Random(split_seed)
    first = random_connected_bipartition(g, rng)
    if first is None:
        return
    side_a, rest = first
    sub_rest = g.subgraph(rest)
    second = random_connected_bipartition(sub_rest, rng) if len(rest) >= 2 else None
    if second is None:
        groups = [side_a, rest]
    else:
        groups = [side_a, second[0], second[1]]
    # Merging requires a safe partition (Definition 3.1): every part's
    # complement must stay connected; skip generated splits that are not.
    all_nodes = set(g.nodes())
    for nodes in groups:
        complement = all_nodes - set(nodes)
        if complement and not g.subgraph(complement).is_connected():
            return
    parts = [part_of(g, nodes) for nodes in groups]
    result = merge_parts(parts)
    assert result.part.rotation.genus() == 0
    assert result.part.vertices == set(g.nodes())
