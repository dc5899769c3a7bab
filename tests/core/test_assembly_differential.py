"""One-build assembly against the one-splice-at-a-time reference.

:func:`repro.core.assembly.assemble` splices every discharged part into
one ring map and genus-checks it once.  :mod:`tests.core.assembly_reference`
keeps the splicers it replaced, which copy, rebuild and check the merged
part after every splice and search up to eight chiralities.  The reference
always keeps its first candidate on these inputs, so the two must agree
exactly, except where the reference's first face for an (i, j)-part
separates the host's stubs:

* **unit** — on seeded hosts with pendants (1-4 edges, several per anchor,
  an anchor whose ring starts empty) and (i, j)-parts (2-4 edges, several
  per pair): equal rotation tuples in equal vertex order, and equal graph
  node and edge order; on scenario 19, whose first face separates the
  stubs, ``assemble`` keeps them on one face and the reference does not
  (scenario 11 has no face that keeps them together, so both take the
  first);
* **pipeline** — with the merge driver's ``assemble`` swapped for the
  reference: equal rotations, ledgers, reports and merge statistics.
"""

import itertools
import random
from dataclasses import asdict

import pytest

from repro import distributed_planar_embedding
from repro.core import assemble, fresh_part
from repro.core.parts import stub_node
from repro.core import unrestricted as unrestricted_mod
from repro.planar import Graph
from repro.planar.verify import EmbeddingViolation, check_embedding_with_boundary
from repro.planar.generators import (
    binary_tree,
    caterpillar,
    grid_graph,
    random_outerplanar,
    random_planar,
    random_tree,
    star_graph,
)
from tests.core import assembly_reference as ref


def reference_assemble(merged, pendants=(), two_terminal=()):
    """``assemble`` as the reference computes it: one splice at a time."""
    for anchor, part in pendants:
        merged = ref.insert_pendant(merged, anchor, part)
    for i, j, part in two_terminal:
        merged = ref.insert_two_terminal(merged, i, j, part)
    return merged


def snapshot(part):
    return (
        list(part.rotation.as_dict().items()),
        part.graph.nodes(),
        part.graph.edges(),
        part.rotation.graph.edges(),
        part.boundary,
        part.depth,
    )


# -- unit differential -----------------------------------------------------


def random_host(rng):
    kind = rng.choice(["grid", "planar", "outerplanar", "tree"])
    if kind == "grid":
        g = grid_graph(rng.randint(2, 4), rng.randint(2, 4))
    elif kind == "planar":
        g = random_planar(rng.randint(5, 14), seed=rng.randrange(10**6))
    elif kind == "outerplanar":
        g = random_outerplanar(rng.randint(4, 12), seed=rng.randrange(10**6))
    else:
        g = random_tree(rng.randint(3, 12), seed=rng.randrange(10**6))
    # Half-edges to the outside must share a face: attach them along one.
    face = [u for u, _ in rng.choice(fresh_part(g, []).rotation.faces())]
    boundary = [(rng.choice(face), ("out", t)) for t in range(rng.randint(0, 3))]
    return fresh_part(g, boundary)


def random_pendant(rng, labels, anchor):
    """A random tree of 1-6 vertices with 1-4 edges to ``anchor``."""
    vertices = [next(labels) for _ in range(rng.randint(1, 6))]
    g = Graph(nodes=vertices)
    for idx in range(1, len(vertices)):
        g.add_edge(vertices[idx], vertices[rng.randrange(idx)])
    attached = rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
    return fresh_part(g, [(u, anchor) for u in attached])


def random_two_terminal(rng, labels, i, j):
    """A path whose first a vertices reach ``i`` and last b reach ``j``,
    2 <= a + b <= 4, with 0-2 further vertices hanging off it."""
    a = rng.randint(1, 3)
    b = rng.randint(1, 4 - a)
    path = [next(labels) for _ in range(a + b)]
    g = Graph(edges=list(zip(path, path[1:])))
    for _ in range(rng.randint(0, 2)):
        g.add_edge(next(labels), rng.choice(path))
    return fresh_part(g, [(u, i) for u in path[:a]] + [(u, j) for u in path[a:]])


def cofacial_pair(rng, host):
    faces = [
        sorted({u for u, _ in f if u in host.graph}, key=repr)
        for f in host.rotation.faces()
    ]
    face = rng.choice([f for f in faces if len(f) >= 2])
    return tuple(rng.sample(face, 2))


def scenario(seed):
    rng = random.Random(seed)
    host = random_host(rng)
    labels = itertools.count(1000)  # fresh vertices for the spliced parts
    anchors = rng.sample(host.graph.nodes(), min(3, host.graph.num_nodes))
    pendants = []
    for _ in range(rng.randint(0, 6)):
        anchor = rng.choice(anchors)
        pendants.append((anchor, random_pendant(rng, labels, anchor)))
    two_terminal = []
    for _ in range(rng.randint(0, 2)):
        i, j = cofacial_pair(rng, host)
        for _ in range(rng.randint(1, 3)):
            two_terminal.append((i, j, random_two_terminal(rng, labels, i, j)))
    return host, pendants, two_terminal


def stubs_cofacial(part):
    try:
        check_embedding_with_boundary(part.rotation, [stub_node(h) for h in part.boundary])
    except EmbeddingViolation:
        return False
    return True


SEPARATED_BY_REFERENCE = {19}


@pytest.mark.parametrize("seed", range(60))
def test_assemble_matches_reference(seed):
    host, pendants, two_terminal = scenario(seed)
    expected = reference_assemble(host, pendants, two_terminal)
    assembled = assemble(host, pendants, two_terminal)
    if seed in SEPARATED_BY_REFERENCE:
        assert stubs_cofacial(assembled) and not stubs_cofacial(expected)
    else:
        assert snapshot(assembled) == snapshot(expected)


def test_scenarios_cover_the_splice_cases():
    pendant_sizes, pair_sizes, per_anchor, per_pair = set(), set(), 0, 0
    for seed in range(60):
        _, pendants, two_terminal = scenario(seed)
        pendant_sizes |= {len(p.boundary) for _, p in pendants}
        pair_sizes |= {len(p.boundary) for _, _, p in two_terminal}
        anchors = [a for a, _ in pendants]
        per_anchor = max([per_anchor, *map(anchors.count, anchors)])
        pairs = [(i, j) for i, j, _ in two_terminal]
        per_pair = max([per_pair, *map(pairs.count, pairs)])
    assert pendant_sizes == {1, 2, 3, 4}
    assert pair_sizes == {2, 3, 4}
    assert per_anchor >= 3 and per_pair >= 3


@pytest.mark.parametrize("count", [1, 2, 4])
def test_lone_vertex_anchor_matches_reference(count):
    """A merged part of one vertex without boundary has an empty ring:
    the first bundle becomes it, the later ones go in after its head."""
    rng = random.Random(count)
    host = fresh_part(Graph(nodes=[0]), [])
    labels = itertools.count(1000)
    pendants = [(0, random_pendant(rng, labels, 0)) for _ in range(count)]
    expected = reference_assemble(host, pendants)
    assert snapshot(assemble(host, pendants)) == snapshot(expected)


# -- pipeline differential -------------------------------------------------

PIPELINE = [
    ("star127", lambda: star_graph(127)),
    ("caterpillar32x3", lambda: caterpillar(32, 3)),
    ("tree300", lambda: random_tree(300, seed=1)),
    ("binary7", lambda: binary_tree(7)),
    ("outerplanar256-s1", lambda: random_outerplanar(256, seed=1)),
    ("planar256-s9", lambda: random_planar(256, seed=9)),
]


def fingerprint(result):
    return {
        "rotation": list(result.rotation.items()),
        "metrics": result.metrics.to_dict(),
        "report": result.to_report(),
        "merge_stats": [
            None if r.merge_stats is None else asdict(r.merge_stats)
            for r in result.trace
        ],
    }


@pytest.mark.parametrize("family,make", PIPELINE, ids=[f for f, _ in PIPELINE])
def test_pipeline_matches_reference(family, make, monkeypatch):
    spliced = {"pendants": 0, "two_terminal": 0}

    def counting_reference(merged, pendants=(), two_terminal=()):
        spliced["pendants"] += len(pendants)
        spliced["two_terminal"] += len(two_terminal)
        return reference_assemble(merged, pendants, two_terminal)

    one_build = fingerprint(distributed_planar_embedding(make()))
    monkeypatch.setattr(unrestricted_mod, "assemble", counting_reference)
    reference = fingerprint(distributed_planar_embedding(make()))
    assert one_build == reference
    # Every input discharges parts: pendants, or (i, j)-parts on the two
    # biconnected families.
    if family.startswith(("outerplanar", "planar")):
        assert spliced["two_terminal"] >= 1
    else:
        assert spliced["pendants"] >= 10
