"""Empirical validation of Observation 3.2 — the paper's key structural fact.

"The interface for a part is uniquely identified by the bi-connected
component decomposition and the fixed cyclic order interface of the
bi-connected components":

* for a *biconnected* planar graph, the cyclic order of any co-facial
  vertex set is the same in every planar embedding, up to a flip
  (Figure 2);
* flips of blocks and permutations of blocks around cut vertices
  (Figure 4's moves) preserve planarity.

These tests probe both halves on randomized instances, independent of
the algorithm that relies on them.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.core.interface_reference import block_attachment_order
from repro.planar import Graph, biconnected_components, planar_embedding
from repro.planar.generators import random_maximal_planar, theta_graph, wheel_graph


def shuffled_copy(g: Graph, seed: int) -> Graph:
    """The same graph with randomized adjacency insertion order — drives
    the deterministic LR kernel to a different embedding."""
    rng = random.Random(seed)
    nodes = g.nodes()
    rng.shuffle(nodes)
    out = Graph(nodes=nodes)
    edges = g.edges()
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(u, v)
    return out


def cyclic_or_mirror_equal(a, b):
    from repro.core import cyclic_equal

    return cyclic_equal(a, b) or cyclic_equal(a, list(reversed(b)))


def cofacial_sets(g, k, rng):
    """Vertex sets of size k lying on one face of some embedding."""
    rot = planar_embedding(g)
    faces = rot.faces()
    rng.shuffle(faces)
    for face in faces:
        vertices = []
        for u, _ in face:
            if u not in vertices:
                vertices.append(u)
        if len(vertices) >= k:
            return vertices[:k]
    return None


class TestFixedCyclicOrder:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n=st.integers(min_value=4, max_value=30),
        seed=st.integers(0, 10**6),
        k=st.integers(min_value=3, max_value=5),
    )
    def test_attachment_order_unique_up_to_flip(self, n, seed, k):
        # maximal planar graphs are 3-connected for n >= 4: biconnected.
        g = random_maximal_planar(n, seed)
        rng = random.Random(seed)
        relevant = cofacial_sets(g, k, rng)
        if relevant is None:
            return
        base = block_attachment_order(g, sorted(relevant, key=repr))
        for variant_seed in range(3):
            shuffled = shuffled_copy(g, seed * 7 + variant_seed)
            other = block_attachment_order(shuffled, sorted(relevant, key=repr))
            assert cyclic_or_mirror_equal(base, other), (
                f"orders differ beyond a flip: {base} vs {other}"
            )

    def test_wheel_rim_order_is_the_rim(self):
        g = wheel_graph(9)
        rim = [1, 4, 7]
        order = block_attachment_order(g, rim)
        # rim positions 1 < 4 < 7: their cyclic order must follow the rim
        assert cyclic_or_mirror_equal(order, [1, 4, 7])

    def test_theta_terminals(self):
        g = theta_graph(3, 4)
        order = block_attachment_order(g, [0, 1])
        assert sorted(order) == [0, 1]


class TestInterfaceMoves:
    def test_mirror_flip_preserves_planarity(self):
        g = random_maximal_planar(25, 3)
        rot = planar_embedding(g)
        assert rot.mirrored().genus() == 0

    def test_block_flip_preserves_planarity(self):
        # Two triangles sharing a cut vertex: flipping one block's
        # rotation (mirroring only its vertices' restricted order)
        # keeps the whole embedding planar.
        g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        rot = planar_embedding(g)
        decomp = biconnected_components(g)
        block = decomp.components[0]
        order = {}
        for v in g.nodes():
            ring = list(rot.order(v))
            if v in block.vertices:
                inside = [u for u in ring if u in block.vertices]
                flipped = list(reversed(inside))
                it = iter(flipped)
                ring = [next(it) if u in block.vertices else u for u in ring]
            order[v] = tuple(ring)
        from repro.planar import RotationSystem

        flipped_rot = RotationSystem(g, order)
        assert flipped_rot.genus() == 0

    def test_permutation_around_cut_vertex_preserves_planarity(self):
        # A star of three triangles at one cut vertex: any rotation of
        # the block bundles around the cut vertex stays planar.
        g = Graph()
        c = 0
        blocks = []
        nxt = 1
        for _ in range(3):
            a, b = nxt, nxt + 1
            g.add_edge(c, a)
            g.add_edge(a, b)
            g.add_edge(b, c)
            blocks.append((a, b))
            nxt += 2
        rot = planar_embedding(g)
        ring = list(rot.order(c))
        # rotate the ring by one whole block bundle (2 darts per block)
        rotated = ring[2:] + ring[:2]
        order = rot.as_dict()
        order[c] = tuple(rotated)
        from repro.planar import RotationSystem

        assert RotationSystem(g, order).genus() == 0
