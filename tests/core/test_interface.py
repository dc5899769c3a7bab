"""Interface skeletons: the compressed-PQ-tree analogue (Observation 3.2).

The block-cut Steiner walk and the wheels read off a part's outer face
are held to :mod:`tests.core.interface_reference`, which keeps the pruned
whole-tree Steiner search and the LR-embedded block orders they replaced.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.merges as merges_module
from repro import distributed_planar_embedding
from repro.core import cyclic_equal, fresh_part, interface_skeleton
from repro.core.interface import SkeletonError, face_wheels, steiner_blocks
from repro.planar import Graph, biconnected_components, is_planar
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    subdivide,
    theta_graph,
    wheel_graph,
)
from tests.core.interface_reference import (
    block_attachment_order,
    block_graph_of,
    reference_steiner,
)
from tests.core.test_merge_differential import random_part


class TestBlockAttachmentOrder:
    def test_cycle_order_matches_cycle(self):
        g = cycle_graph(8)
        order = block_attachment_order(g, [0, 2, 5])
        # On a cycle, co-facial order is the cyclic position order (up to
        # rotation/flip).
        seq = sorted(order, key=lambda v: v)
        assert seq == [0, 2, 5]
        idx = [order.index(v) for v in (0, 2, 5)]
        # consecutive in one of the two cyclic directions
        assert len(set(idx)) == 3

    def test_two_or_fewer_passthrough(self):
        g = cycle_graph(4)
        assert block_attachment_order(g, [1, 3]) == [1, 3]
        assert block_attachment_order(g, [2]) == [2]

    def test_unique_up_to_flip(self):
        # Observation 3.2: any valid embedding gives the same cyclic
        # order up to reversal — check against the cycle's true order.
        g = cycle_graph(10)
        relevant = [0, 3, 6, 9]
        order = block_attachment_order(g, relevant)
        pos = {v: i for i, v in enumerate(order)}
        ring = sorted(relevant)
        forward = [pos[v] for v in ring]
        diffs = {(forward[(i + 1) % 4] - forward[i]) % 4 for i in range(4)}
        assert diffs == {1} or diffs == {3}  # rotation or reflection


class TestSkeleton:
    def test_single_attachment_is_a_point(self):
        part = fresh_part(grid_graph(3, 3), [(4, 100)])
        sk = interface_skeleton(part)
        assert sk.graph.num_nodes == 1
        assert sk.words <= 4

    def test_no_attachment(self):
        part = fresh_part(path_graph(5), [])
        sk = interface_skeleton(part)
        assert sk.graph.num_nodes == 1

    def test_path_part_skeleton_is_path(self):
        part = fresh_part(path_graph(10), [(0, 50), (9, 51)])
        sk = interface_skeleton(part)
        # A tree part between two attachments compresses to a single edge.
        assert sk.graph.num_edges == 1
        assert set(sk.anchors) == {0, 9}

    def test_cycle_part_becomes_wheel(self):
        g = cycle_graph(12)
        boundary = [(0, 100), (4, 101), (8, 102)]
        part = fresh_part(g, boundary)
        sk = interface_skeleton(part)
        hubs = [v for v in sk.graph.nodes() if isinstance(v, tuple) and v[0] == "hub"]
        assert len(hubs) == 1
        assert sk.graph.degree(hubs[0]) == 3
        assert is_planar(sk.graph)

    def test_skeleton_size_independent_of_part_size(self):
        # E10's claim in miniature: same boundary, growing part.
        sizes = []
        for n in (12, 48, 120):
            g = cycle_graph(n)
            part = fresh_part(g, [(0, 100), (n // 3, 101), (2 * n // 3, 102)])
            sizes.append(interface_skeleton(part).words)
        assert sizes[0] == sizes[1] == sizes[2]

    def test_theta_part(self):
        g = theta_graph(3, 4)
        boundary = [(0, 100), (1, 101)]
        part = fresh_part(g, boundary)
        sk = interface_skeleton(part)
        assert {0, 1} <= set(sk.anchors)
        assert sk.graph.is_connected()

    def test_block_cut_chain(self):
        # Two triangles joined by a bridge: attachments at far ends.
        g = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        part = fresh_part(g, [(0, 100), (5, 101)])
        sk = interface_skeleton(part)
        assert sk.graph.is_connected()
        assert {0, 5} <= set(sk.anchors)
        # Blocks with two relevant vertices compress to edges, so the
        # skeleton is a short path, not the original 6 edges.
        assert sk.graph.num_edges <= 3

    def test_skeleton_planar_for_grid_part(self):
        g = grid_graph(5, 5)
        # attachments on the grid's outer face (always co-facial)
        boundary = [(v, 1000 + v) for v in (0, 2, 4, 14, 24, 22, 20, 10)]
        part = fresh_part(g, boundary)
        sk = interface_skeleton(part)
        assert is_planar(sk.graph)
        assert sk.words < 8 * len(boundary)

    def test_wheel_part(self):
        g = wheel_graph(8)
        boundary = [(1, 100), (4, 101), (7, 102)]
        part = fresh_part(g, boundary)
        sk = interface_skeleton(part)
        assert sk.graph.is_connected()
        assert set(part.attachments()) <= set(sk.anchors)


# -- differentials against tests/core/interface_reference.py ----------------


def steiner_node_set(steiner, decomposition):
    """The block-cut nodes of a :func:`steiner_blocks` result: its blocks,
    and the cut vertices among their relevant vertices."""
    nodes = {("block", b) for b in steiner}
    nodes |= {
        ("cut", v) for vs in steiner.values() for v in vs if decomposition.is_cut_vertex(v)
    }
    return nodes


def check_against_reference(part, face, rng):
    """The walk's Steiner blocks and relevant sets equal the pruned tree's
    for all attachments and a random subset; every face-read wheel is
    ``block_attachment_order``'s cyclic order up to rotation and flip.
    Returns the number of wheels compared."""
    attachments = part.attachments()
    if len(attachments) < 2:
        return 0
    decomposition = biconnected_components(part.graph)
    subset = rng.sample(attachments, rng.randint(2, len(attachments)))
    for chosen in (set(attachments), set(subset)):
        nodes, relevant = reference_steiner(chosen, decomposition)
        steiner = steiner_blocks(chosen, decomposition)
        assert steiner == relevant
        assert steiner_node_set(steiner, decomposition) == nodes
    steiner = steiner_blocks(set(attachments), decomposition)
    wheels = face_wheels(face, steiner, decomposition)
    assert set(wheels) == {b for b, vs in steiner.items() if len(vs) >= 3}
    for b, wheel in wheels.items():
        relevant = sorted(steiner[b], key=repr)
        expected = block_attachment_order(block_graph_of(decomposition, b), relevant)
        assert cyclic_equal(wheel, expected) or cyclic_equal(wheel, expected[::-1])
    return len(wheels)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_steiner_walk_and_face_wheels_match_the_reference(seed):
    rng = random.Random(seed)
    part = random_part(rng)
    check_against_reference(part, part.outer_face(), rng)


def test_face_wheels_are_compared_on_generated_parts():
    wheels = 0
    for seed in range(200):
        rng = random.Random(seed)
        part = random_part(rng)
        wheels += check_against_reference(part, part.outer_face(), rng)
    assert wheels >= 60


def test_face_wheels_match_the_reference_on_pipeline_parts(monkeypatch):
    """Every part a merge compresses, with the face the merge traced."""
    seen = []
    skeleton = merges_module.interface_skeleton

    def spy(part, decomposition=None, face=None, steiner=None):
        seen.append((part, face))
        return skeleton(part, decomposition, face, steiner)

    monkeypatch.setattr(merges_module, "interface_skeleton", spy)
    for graph in (
        subdivide(random_maximal_planar(10, 3), 3),
        random_outerplanar(80, seed=4),
        random_planar(80, seed=2),
        grid_graph(7, 7),
    ):
        distributed_planar_embedding(graph)
    rng = random.Random(7)
    wheels = sum(check_against_reference(part, face, rng) for part, face in seen)
    assert len(seen) > 100 and wheels >= 20


def test_a_relevant_vertex_off_the_face_raises():
    part = fresh_part(cycle_graph(6), [(0, 100), (2, 101), (4, 102)])
    decomposition = biconnected_components(part.graph)
    steiner = steiner_blocks({0, 2, 4}, decomposition)
    inner = part.rotation.face_of(1, 0)  # the cycle's stub-free face
    with pytest.raises(SkeletonError, match="not on the part's outer face"):
        face_wheels([d for d in inner if d[0] != 0 and d[1] != 0], steiner, decomposition)
