"""A runnable tour of the paper's Figures 2-4 (the structural theory).

The algorithm rests on Observation 3.2: a part's embedding freedom is
exactly (a) one mirror flip per biconnected block and (b) free
permutation of blocks around cut vertices, while each block's external
cyclic order is *fixed*.  This script demonstrates all three facts on
concrete graphs using the library's machinery — the same checks the
test-suite runs, narrated.

    python examples/paper_figures.py
"""

import random

from repro.core import cyclic_equal
from repro.core.interface import interface_skeleton
from repro.core.parts import fresh_part
from repro.planar import Graph, RotationSystem, biconnected_components, planar_embedding
from repro.planar.generators import random_maximal_planar


def external_order(block: Graph, relevant: list) -> list:
    """The order in which the outer face of one drawing of ``block``, with
    a half-embedded edge at each relevant vertex, meets those vertices."""
    part = fresh_part(block, [(v, ("out", v)) for v in relevant])
    return [u for u, _ in part.boundary_order()]


def figure2_fixed_external_order() -> None:
    print("=" * 64)
    print("Figure 2: different drawings, same external cyclic order")
    print("=" * 64)
    g = random_maximal_planar(14, seed=5)  # 3-connected: one block
    # Deleting an edge merges its two triangles into one face of four
    # vertices: a co-facial set with three cyclic orders up to a flip.
    g.remove_edge(*g.edges()[0])
    face = next(f for f in planar_embedding(g).faces() if len(f) == 4)
    relevant = sorted({u for u, _ in face})
    base = external_order(g, relevant)
    print(f"block: random maximal planar graph less one edge, n=14; relevant set {relevant}")
    print(f"external cyclic order in drawing #1: {base}")
    for variant in range(2, 5):
        rng = random.Random(variant)
        nodes = g.nodes()
        rng.shuffle(nodes)
        shuffled = Graph(nodes=nodes)
        edges = g.edges()
        rng.shuffle(edges)
        for u, v in edges:
            shuffled.add_edge(u, v)
        other = external_order(shuffled, relevant)
        same = cyclic_equal(base, other) or cyclic_equal(base, list(reversed(other)))
        print(f"external cyclic order in drawing #{variant}: {other} "
              f"-> {'same up to flip' if same else 'DIFFERENT (!?)'}")


def figure3_cut_vertex_permutation() -> None:
    print()
    print("=" * 64)
    print("Figure 3: blocks permute freely around a cut vertex")
    print("=" * 64)
    g = Graph()
    nxt = 1
    for _ in range(3):  # three triangles sharing vertex 0
        a, b = nxt, nxt + 1
        g.add_edge(0, a)
        g.add_edge(a, b)
        g.add_edge(b, 0)
        nxt += 2
    rot = planar_embedding(g)
    ring = list(rot.order(0))
    print(f"cut vertex 0 joins {len(biconnected_components(g).components)} blocks")
    print(f"rotation at 0: {tuple(ring)}")
    rotated = ring[2:] + ring[:2]
    order = rot.as_dict()
    order[0] = tuple(rotated)
    genus = RotationSystem(g, order).genus()
    print(f"after permuting the block bundles: {tuple(rotated)} "
          f"-> genus {genus} ({'still planar' if genus == 0 else 'broken'})")


def figure4_skeleton_compression() -> None:
    print()
    print("=" * 64)
    print("Figure 4 / Observation 3.2: the interface skeleton")
    print("=" * 64)
    # two triangles and a long path, attachments at the far ends
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 5)])
    part = fresh_part(g, [(0, 100), (1, 101), (6, 102), (7, 103)])
    sk = interface_skeleton(part)
    print(f"part: 2 triangles + a path, n={g.num_nodes}, m={g.num_edges}")
    print(f"attachments: {part.attachments()}")
    print(f"skeleton nodes: {sorted(sk.graph.nodes(), key=repr)}")
    print(f"skeleton edges: {sorted(sk.graph.edges(), key=repr)}")
    print(f"summary size: {sk.words} words "
          "(what a merge coordinator actually receives)")


if __name__ == "__main__":
    figure2_fixed_external_order()
    figure3_cut_vertex_permutation()
    figure4_skeleton_compression()
