"""Realization by moves, and counted summary words, against the reference.

:func:`repro.core.realize.realize_boundary_order` applies block flips and
cut-vertex permutations to the part's own rotation; the skeleton merge
counts each reduced summary's words from the part's one decomposition.
:mod:`tests.core.merge_reference` keeps what they replaced: the gadget-LR
realizer and the second skeleton.  Output rotations may differ; nothing
else may:

* **unit** — on blocks (edges, cycles, wheels, K4s) glued at cut
  vertices: the same verdict as the gadget on interface orders (the walk
  of a re-embedded shuffled copy, and its mirror) and on random
  permutations, the exact walk, genus 0, untouched rings inside stub-free
  subtrees, stub-free branches kept in their corners, and the part's own
  rotation for the order it already has;
* **pipeline** — with the reference patched into the merges: equal
  ledgers, reports and merge statistics on seven families, and every
  rotation a planar embedding for both this library and networkx;
* **words** — on every merge of that corpus, the counted words equal the
  second skeleton's;
* **spy** — realize runs no LR test, and each merge builds one skeleton
  per part.
"""

import itertools
import random
from dataclasses import asdict
from importlib import import_module

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.merges as merges_module
from repro import distributed_planar_embedding
from repro.core import RealizationError, cyclic_equal, fresh_part, realize_boundary_order
from repro.planar import Graph, biconnected_components
from repro.planar.generators import (
    grid_graph,
    k4_subdivision,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    subdivide,
)
from repro.planar.verify import verify_planar_embedding
from tests.core import merge_reference as ref
from tests.core.test_observation32 import shuffled_copy

lr_module = import_module("repro.planar.lr_planarity")  # the package re-exports the function

# -- unit differential -----------------------------------------------------


def glued_blocks(rng):
    """Edges, cycles, wheels and K4s, each glued at a vertex so far."""
    labels = itertools.count(1)
    g = Graph(nodes=[0])
    for _ in range(rng.randint(1, 6)):
        at = rng.choice(g.nodes())
        kind = rng.choice(["edge", "cycle", "wheel", "k4"])
        if kind == "edge":
            g.add_edge(at, next(labels))
        elif kind == "k4":
            quad = [at] + [next(labels) for _ in range(3)]
            for a, b in itertools.combinations(quad, 2):
                g.add_edge(a, b)
        else:
            ring = [at] + [next(labels) for _ in range(rng.randint(2, 5))]
            hub = None
            if kind == "wheel":
                hub = next(labels)
                if rng.random() < 0.5:
                    ring[0], hub = hub, at  # glued at the hub, not the rim
            for a, b in zip(ring, ring[1:] + ring[:1]):
                g.add_edge(a, b)
                if hub is not None:
                    g.add_edge(hub, a)
    return g


def random_part(rng):
    """A glued-blocks part with 1-8 stubs on one face of some embedding."""
    g = glued_blocks(rng)
    faces = fresh_part(g, []).rotation.faces()
    face = max(faces, key=len) if rng.random() < 0.5 else rng.choice(faces)
    on_face = [u for u, _ in face]
    boundary = [(rng.choice(on_face), ("out", t)) for t in range(rng.randint(1, 8))]
    return fresh_part(g, boundary)


def stub_free_branches(part, root):
    """(cut vertex c, a component of the part minus c without stubs or root)."""
    carriers = {u for u, _ in part.boundary} | {root}
    for c in biconnected_components(part.graph).cut_vertices():
        rest = part.graph.subgraph(set(part.graph.nodes()) - {c})
        for component in rest.connected_components():
            if not component & carriers:
                yield c, component


def flanks(ring, branch, free):
    """The neighbours just before and after ``branch``'s edges, other stub-free
    edges skipped."""
    kept = [w for w in ring if w in branch or w not in free]
    n = len(kept)
    i = next(i for i in range(n) if kept[i] in branch and kept[i - 1] not in branch)
    j = i
    while kept[j % n] in branch:
        j += 1
    return kept[i - 1], kept[j % n]


def assert_minimal_moves(part, new, root):
    """Stub-free subtrees keep their rings, and a stub-free branch sitting in
    a corner of one block stays in that corner, flipped or not."""
    blocks = biconnected_components(part.graph)
    branches = list(stub_free_branches(part, root))
    for _, component in branches:
        for v in component:
            assert new.order(v) == part.rotation.order(v)
    for c, component in branches:
        free = {w for c2, other in branches if c2 == c for w in other}
        x, y = flanks(part.rotation.order(c), component, free)
        if x in part.graph and y in part.graph and x != y:
            if blocks.shared_component(c, x) == blocks.shared_component(c, y):
                assert set(flanks(new.order(c), component, free)) == {x, y}


def outcome(realize, part, prescribed):
    try:
        return realize(part, prescribed)
    except RealizationError:
        return None


def prescriptions(part, rng):
    """(order, in the interface?) pairs: re-embedded walks, a permutation."""
    walk = fresh_part(shuffled_copy(part.graph, rng.randrange(10**6)), part.boundary)
    walk = walk.boundary_order()
    yield walk, True
    yield walk[::-1], True
    yield rng.sample(part.boundary, len(part.boundary)), None


def check_realization(part, prescribed, in_interface):
    new = outcome(realize_boundary_order, part, prescribed)
    old = outcome(ref.realize_boundary_order, part, prescribed)
    assert (new is None) == (old is None)
    if in_interface:
        assert new is not None
    if new is None:
        return "rejected"
    assert cyclic_equal(part.with_rotation(new).boundary_order(), prescribed)
    assert new.genus() == 0
    assert_minimal_moves(part, new, prescribed[0][0])
    return "kept" if new is part.rotation else "moved"


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_realize_matches_gadget_reference(seed):
    rng = random.Random(seed)
    part = random_part(rng)
    for prescribed, in_interface in prescriptions(part, rng):
        check_realization(part, prescribed, in_interface)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_order_already_held_returns_the_part_rotation(seed):
    part = random_part(random.Random(seed))
    walk = part.boundary_order()
    shift = seed % len(walk)
    assert realize_boundary_order(part, walk[shift:] + walk[:shift]) is part.rotation


def test_unit_cases_cover_moves_and_rejections():
    seen = []
    for seed in range(150):
        rng = random.Random(seed)
        part = random_part(rng)
        for prescribed, in_interface in prescriptions(part, rng):
            seen.append(check_realization(part, prescribed, in_interface))
    assert {"kept", "moved", "rejected"} <= set(seen)
    assert seen.count("moved") >= 50 and seen.count("rejected") >= 20


# -- pipeline and word-count differentials ---------------------------------

CORPUS = [
    ("grid10x10", lambda: grid_graph(10, 10)),
    ("outerplanar128-s1", lambda: random_outerplanar(128, seed=1)),
    ("maximal60-s2", lambda: random_maximal_planar(60, seed=2)),
    ("planar120-s3", lambda: random_planar(120, seed=3)),
    ("subdivided8x8-s4", lambda: subdivide(random_maximal_planar(8, seed=4), 8)),
    ("tree150-s5", lambda: random_tree(150, seed=5)),
    ("k4sub12", lambda: k4_subdivision(12)),
]
IDS = [name for name, _ in CORPUS]


def fingerprint(result):
    return {
        "metrics": result.metrics.to_dict(),
        "report": result.to_report(),
        "merge_stats": [
            None if r.merge_stats is None else asdict(r.merge_stats)
            for r in result.trace
        ],
    }


def assert_planar_embedding(result):
    verify_planar_embedding(result.graph, result.rotation)
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(ring) for v, ring in result.rotation.items()})
    embedding.check_structure()
    assert {frozenset(e) for e in embedding.edges()} == {
        frozenset(e) for e in result.graph.edges()
    }


def gadget_realize(part, prescribed, decomposition=None, face=None, steiner=None):
    return ref.realize_boundary_order(part, prescribed)


def second_skeleton_words(p, connecting_set, face, decomposition=None, steiner=None):
    return ref._reduced_summary_words(p, connecting_set)


@pytest.mark.parametrize("family,make", CORPUS, ids=IDS)
def test_pipeline_matches_reference(family, make, monkeypatch):
    moves = distributed_planar_embedding(make())
    monkeypatch.setattr(merges_module, "realize_boundary_order", gadget_realize)
    monkeypatch.setattr(merges_module, "_reduced_summary_words", second_skeleton_words)
    gadget = distributed_planar_embedding(make())
    assert fingerprint(moves) == fingerprint(gadget)
    assert_planar_embedding(moves)
    assert_planar_embedding(gadget)


@pytest.mark.parametrize("family,make", CORPUS, ids=IDS)
def test_reduced_words_match_reference(family, make, monkeypatch):
    counted = merges_module._reduced_summary_words
    pairs = []

    def both(p, connecting_set, face, decomposition=None, steiner=None):
        words = counted(p, connecting_set, face, decomposition=decomposition, steiner=steiner)
        pairs.append((words, ref._reduced_summary_words(p, connecting_set)))
        return words

    monkeypatch.setattr(merges_module, "_reduced_summary_words", both)
    distributed_planar_embedding(make())
    assert all(a == b for a, b in pairs)
    if not family.startswith("tree"):  # a tree's parts are spliced, not merged
        assert any(a > 2 for a, _ in pairs)  # some summary has a skeleton


# -- spy: no LR in realize, one skeleton per part per merge ----------------


def test_realize_runs_no_lr_and_each_merge_one_skeleton_per_part(monkeypatch):
    inside_realize = [0]
    realized = [0]
    lr_in_realize = [0]
    skeletons = [0]
    merges = []
    lr = lr_module.lr_planarity
    realize = merges_module.realize_boundary_order
    skeleton = merges_module.interface_skeleton
    skeleton_merge = merges_module._skeleton_merge

    def spy_lr(graph):
        lr_in_realize[0] += inside_realize[0] > 0
        return lr(graph)

    def spy_realize(*args, **kwargs):
        inside_realize[0] += 1
        realized[0] += 1
        try:
            return realize(*args, **kwargs)
        finally:
            inside_realize[0] -= 1

    def spy_skeleton(*args, **kwargs):
        skeletons[0] += 1
        return skeleton(*args, **kwargs)

    def spy_skeleton_merge(parts, *args):
        before = skeletons[0]
        merged = skeleton_merge(parts, *args)
        merges.append((len(parts), skeletons[0] - before))
        return merged

    monkeypatch.setattr(lr_module, "lr_planarity", spy_lr)
    monkeypatch.setattr(merges_module, "realize_boundary_order", spy_realize)
    monkeypatch.setattr(merges_module, "interface_skeleton", spy_skeleton)
    monkeypatch.setattr(merges_module, "_skeleton_merge", spy_skeleton_merge)
    for seed in (1, 2):
        distributed_planar_embedding(random_outerplanar(96, seed=seed))
    assert len(merges) > 50
    assert realized[0] == sum(parts for parts, _ in merges)  # every part realized
    assert lr_in_realize[0] == 0
    assert all(built == parts for parts, built in merges), merges
