"""Parts that change only locally keep the rotation they have.

* **splice** — a split-off copy whose stubs are one run of the part's
  outer face is spliced into the part's own rotation: a valid rotation
  with every stub on one face, the old walk with the run replaced by the
  copy's stub, and every other ring untouched; any other split-off is
  re-embedded exactly as :func:`fresh_part` does;
* **lone vertex** — its closed-form ring is the LR kernel's;
* **P0** — the closed-form rings of a path and its stubs
  (:func:`~repro.core.unrestricted.path_rotation`) are the LR kernel's;
* **spies** — through the whole pipeline: one P0 part per recursion
  call and no LR embed of it, none for a lone vertex, none for a spliced
  split-off, no LR solver built inside ``core/interface.py`` or
  ``_p0_part``, and no ``boundary_order()`` call and one trace of each
  part's own rotation per merge; a part whose stubs are not on one face
  still falls back at the point that trace is read.
"""

import itertools
import os
import random
import sys
from collections import Counter
from importlib import import_module

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.interface as interface_module
import repro.core.merges as merges_module
import repro.core.recursion as recursion_module
import repro.core.unrestricted as unrestricted_module
from repro import distributed_planar_embedding
from repro.core import (
    NonPlanarNetworkError,
    PartEmbedding,
    cyclic_equal,
    embed_with_boundary,
    fresh_part,
    merge_parts,
)
from repro.core.parts import augment_with_stubs, is_stub, stub_node
from repro.core.recursion import RecursionContext
from repro.core.unrestricted import adopt_copy, path_rotation
from repro.planar import Graph, RotationError, RotationSystem
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    subdivide,
)
from repro.planar.verify import EmbeddingViolation, check_embedding_with_boundary
from tests.core.test_merge_differential import glued_blocks

lr_module = import_module("repro.planar.lr_planarity")  # the package re-exports the function
rotation_module = import_module("repro.planar.rotation")
parts_module = import_module("repro.core.parts")

COORDINATOR = "c"

# -- splice ------------------------------------------------------------------


def part_with_coordinator_edges(rng):
    """A glued-blocks part whose outer face holds 1-4 half-edges to the
    coordinator (one per vertex) and 0-4 others."""
    g = glued_blocks(rng)
    faces = fresh_part(g, []).rotation.faces()
    face = max(faces, key=len) if rng.random() < 0.5 else rng.choice(faces)
    on_face = sorted({u for u, _ in face}, key=repr)
    to_c = rng.sample(on_face, rng.randint(1, min(4, len(on_face))))
    boundary = [(u, COORDINATOR) for u in to_c]
    boundary += [(rng.choice(on_face), ("out", t)) for t in range(rng.randint(0, 4))]
    rng.shuffle(boundary)
    return fresh_part(g, boundary)


def rerouted_run(walk):
    """The half-edges to the coordinator, if they are one cyclic run of
    ``walk``, rotated to the run's start; ``None`` otherwise."""
    hit = [x == COORDINATOR for _, x in walk]
    starts = [k for k in range(len(walk)) if hit[k] and not hit[k - 1]]
    if len(starts) > 1:
        return None
    k = starts[0] if starts else 0
    return walk[k:] + walk[:k]


def re_embedded(part, copy):
    """The split-off as a fresh embedding of the new part."""
    graph = part.graph.copy()
    for u, x in part.boundary:
        if x == COORDINATOR:
            graph.add_edge(u, copy)
    boundary = [h for h in part.boundary if h[1] != COORDINATOR] + [(copy, COORDINATOR)]
    try:
        return fresh_part(graph, boundary, part_id=part.part_id)
    except NonPlanarNetworkError:
        return None


def snapshot(part):
    if part is None:
        return None
    return (
        list(part.rotation.as_dict().items()),
        part.graph.edges(),
        part.rotation.graph.edges(),
        part.boundary,
        part.depth,
    )


def check_splice(part):
    copy = ("copy", COORDINATOR, part.part_id, 1)
    walk = part.boundary_order()
    rotated = rerouted_run(walk)
    reference = re_embedded(part, copy)
    if rotated is None:
        try:
            new = adopt_copy(part, copy, COORDINATOR)
        except NonPlanarNetworkError:
            new = None
        assert snapshot(new) == snapshot(reference)
        return "re-embedded"
    new = adopt_copy(part, copy, COORDINATOR)
    assert reference is not None  # a consecutive bundle always fits
    assert (new.part_id, new.boundary) == (part.part_id, reference.boundary)
    assert new.depth == reference.depth
    assert new.graph.edges() == reference.graph.edges()
    assert new.rotation.graph.edges() == reference.rotation.graph.edges()
    # Full validation, genus 0 and co-facial stubs.
    checked = RotationSystem(augment_with_stubs(new.graph, new.boundary), new.rotation.as_dict())
    check_embedding_with_boundary(checked, [stub_node(h) for h in new.boundary])
    r = sum(x == COORDINATOR for _, x in walk)
    assert cyclic_equal(new.boundary_order(), [(copy, COORDINATOR)] + rotated[r:])
    rerouted = {u for u, x in part.boundary if x == COORDINATOR}
    for v in part.graph.nodes():
        old = part.rotation.order(v)
        if v in rerouted:
            old = tuple(copy if w == stub_node((v, COORDINATOR)) else w for w in old)
        assert new.rotation.order(v) == old
    return "spliced"


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6))
def test_splice_keeps_the_part_rotation(seed):
    check_splice(part_with_coordinator_edges(random.Random(seed)))


def test_splice_cases_are_covered():
    seen = [check_splice(part_with_coordinator_edges(random.Random(s))) for s in range(120)]
    assert seen.count("spliced") >= 40 and seen.count("re-embedded") >= 10


def test_single_rerouted_edge_is_a_subdivision():
    part = fresh_part(grid_graph(2, 3), [(0, COORDINATOR), (2, "x"), (5, "y")])
    copy = ("copy", COORDINATOR, part.part_id, 1)
    new = adopt_copy(part, copy, COORDINATOR)
    assert new.rotation.order(copy) == (stub_node((copy, COORDINATOR)), 0)
    assert new.depth == 3  # the eccentricity of vertex 0


# -- lone vertex -----------------------------------------------------------


def lr_lone_vertex(v, boundary):
    """The rings the LR kernel gives a stub star plus its rest vertex."""
    augmented = augment_with_stubs(Graph(nodes=[v]), boundary)
    stubs = [stub_node(h) for h in boundary]
    if len(stubs) >= 2:
        for s in stubs:
            augmented.add_edge(("rest",), s)
    rotation = lr_module.planar_embedding(augmented)
    rest = ("rest",)
    return {w: tuple(u for u in rotation.order(w) if u != rest) for w in augmented if w != rest}


IDS = {
    "int": (5, lambda i: 100 + i),
    "str": ("v", lambda i: f"t{i}"),
    "tuple": (("v", 3), lambda i: ("v", i)),
    "copy": (("copy", 1, (0,), 2), lambda i: ("copy", i, (1,), 3)),
}


@pytest.mark.parametrize("kind", sorted(IDS))
def test_lone_vertex_ring_is_the_lr_ring(kind):
    v, target = IDS[kind]
    for k in range(80):
        boundary = [(v, target(i)) for i in range(k)]
        rotation = embed_with_boundary(Graph(nodes=[v]), boundary)
        expected = lr_lone_vertex(v, boundary)
        assert list(rotation.as_dict().items()) == list(expected.items())
        assert list(rotation.graph.nodes()) == list(augment_with_stubs(Graph(nodes=[v]), boundary))


# -- spies ---------------------------------------------------------------------


def core_nodes(graph):
    return frozenset(v for v in graph if not is_stub(v) and v != ("rest",))


@pytest.fixture
def lr_calls(monkeypatch):
    """Node sets (stubs and rest left out) of every LR embed outside the
    split validator."""
    calls = []
    validating = [0]
    lr = lr_module.lr_planarity
    try_split = RecursionContext.try_split

    def spy_lr(graph):
        if not validating[0]:
            calls.append(core_nodes(graph))
        return lr(graph)

    def spy_try_split(self, *args):
        validating[0] += 1
        try:
            return try_split(self, *args)
        finally:
            validating[0] -= 1

    monkeypatch.setattr(lr_module, "lr_planarity", spy_lr)
    monkeypatch.setattr(RecursionContext, "try_split", spy_try_split)
    return calls


def test_one_p0_embed_per_call(lr_calls, monkeypatch):
    """One P0 part per recursion call, its rotation in closed form: no LR
    embed of P0."""
    p0_sets, built = [], []
    merge = recursion_module.unrestricted_path_merge
    p0_part = unrestricted_module._MergeDriver._p0_part

    def spy_merge(*args, **kwargs):
        p0_sets.append(frozenset(next(a for a in args if isinstance(a, list))))
        built.append(0)
        return merge(*args, **kwargs)

    def spy_p0_part(self):
        built[-1] += 1
        return p0_part(self)

    monkeypatch.setattr(recursion_module, "unrestricted_path_merge", spy_merge)
    monkeypatch.setattr(unrestricted_module._MergeDriver, "_p0_part", spy_p0_part)
    for graph in (random_outerplanar(96, seed=1), grid_graph(6, 6)):
        distributed_planar_embedding(graph)
    assert sum(len(p0) > 1 for p0 in p0_sets) >= 20
    assert built == [1] * len(p0_sets)
    for p0 in p0_sets:
        assert lr_calls.count(p0) == 0, sorted(p0, key=repr)


def test_no_lr_solver_from_the_interface_or_p0(monkeypatch):
    """No LR solver is built inside ``core/interface.py`` or ``_p0_part``
    (skeleton wheels come from the part's outer face, P0's rotation is
    closed-form), on runs with wheels and multi-vertex P0s."""
    solver = lr_module._LRPlanarity
    builders = Counter()

    class Spy(solver):
        def __init__(self, graph):
            frame = sys._getframe(1)
            while frame is not None:
                code = frame.f_code
                if code.co_filename.endswith(os.path.join("core", "interface.py")):
                    builders["interface"] += 1
                if code.co_name == "_p0_part":
                    builders["p0"] += 1
                frame = frame.f_back
            builders["all"] += 1
            super().__init__(graph)

    face_wheels = interface_module.face_wheels
    seen = Counter()

    def spy_wheels(face, steiner, decomposition):
        out = face_wheels(face, steiner, decomposition)
        seen["wheels"] += len(out)
        return out

    monkeypatch.setattr(lr_module, "_LRPlanarity", Spy)
    monkeypatch.setattr(interface_module, "face_wheels", spy_wheels)
    for graph in (
        subdivide(random_maximal_planar(10, seed=3), 4),
        random_outerplanar(96, seed=1),
        random_planar(80, seed=2),
    ):
        distributed_planar_embedding(graph)
    assert builders["all"] > 0 and seen["wheels"] >= 10
    assert builders["interface"] == 0 and builders["p0"] == 0, builders


# -- closed-form P0 ring -------------------------------------------------------


def assert_p0_ring_is_the_lr_ring(path, boundary):
    graph = Graph(nodes=path)
    for a, b in zip(path, path[1:]):
        graph.add_edge(a, b)
    expected = embed_with_boundary(graph, boundary)
    rotation = path_rotation(path, augment_with_stubs(graph, boundary))
    assert list(rotation.as_dict().items()) == list(expected.as_dict().items())
    assert list(rotation.graph.nodes()) == list(expected.graph.nodes())


def interleavings(groups):
    """Every merge of the sequences in ``groups``, each kept in order."""
    if not any(groups):
        yield []
        return
    for i, group in enumerate(groups):
        if group:
            rest = groups[:i] + [group[1:]] + groups[i + 1 :]
            for tail in interleavings(rest):
                yield [group[0], *tail]


def test_p0_ring_is_the_lr_ring_exhaustively():
    """Paths of 1-6 vertices with 0-3 stubs each: every interleaving of the
    vertices' stubs up to 4 stubs in all; beyond, the stubs grouped by
    vertex and the reversed round-robin order."""
    checked = 0
    for k in range(1, 7):
        path = list(range(k))
        for counts in itertools.product(range(4), repeat=k):
            groups = [[(v, 100 + 10 * v + j) for j in range(c)] for v, c in enumerate(counts)]
            if sum(counts) <= 4:
                orders = interleavings(groups)
            else:
                robin = [h for row in itertools.zip_longest(*groups) for h in row if h]
                orders = ([h for group in groups for h in group], robin[::-1])
            for boundary in orders:
                assert_p0_ring_is_the_lr_ring(path, boundary)
                checked += 1
    assert checked > 10_000


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    counts=st.lists(st.integers(0, 6), min_size=2, max_size=10),
    copies=st.lists(st.booleans(), min_size=10, max_size=10),
    seed=st.integers(0, 10**6),
)
def test_p0_ring_is_the_lr_ring(counts, copies, seed):
    """Int and ``("copy", ...)`` vertices and targets, shuffled boundary."""
    path = [("copy", i, (1,), 2) if copies[i] else i for i in range(len(counts))]
    boundary = [
        (v, ("copy", 7, (0,), 10 * i + j) if copies[-1 - j % 10] else 1000 + 10 * i + j)
        for i, (v, c) in enumerate(zip(path, counts))
        for j in range(c)
    ]
    random.Random(seed).shuffle(boundary)
    assert_p0_ring_is_the_lr_ring(path, boundary)


def test_no_lr_embed_for_a_lone_vertex(lr_calls):
    """Leaves, one-vertex P0s and one-vertex parts all take the closed form."""
    for graph in (random_tree(80, seed=2), grid_graph(6, 6)):
        distributed_planar_embedding(graph)
    assert lr_calls  # merges still embed their coordinator instances
    assert not [nodes for nodes in lr_calls if len(nodes) == 1]


def test_no_lr_embed_in_a_spliced_split_off(lr_calls, monkeypatch):
    split_off = unrestricted_module._MergeDriver._split_off_copy
    outcomes = []

    def spy_split_off(self, pid, coordinator):
        part = self.active[pid]
        hits = [x == coordinator for _, x in part.boundary_order()]
        consecutive = sum(h and not p for h, p in zip(hits, hits[-1:] + hits[:-1])) <= 1
        before = len(lr_calls)
        split_off(self, pid, coordinator)
        if self.active[pid] is not part:  # the validator accepted
            outcomes.append((consecutive, len(lr_calls) - before))

    monkeypatch.setattr(unrestricted_module._MergeDriver, "_split_off_copy", spy_split_off)
    for seed in (1, 2):
        distributed_planar_embedding(random_outerplanar(96, seed=seed))
    spliced = [embeds for consecutive, embeds in outcomes if consecutive]
    assert len(spliced) >= 20 and len(spliced) < len(outcomes)
    assert spliced == [0] * len(spliced)


def test_each_merge_traces_each_part_face_once(monkeypatch):
    inside = {}  # id(part rotation) -> traces during this merge
    boundary_orders = [0]
    merges = []
    face_of = RotationSystem.face_of
    contracted = rotation_module.contracted_rotation
    boundary_order = PartEmbedding.boundary_order
    skeleton_merge = merges_module._skeleton_merge

    def spy_face_of(self, u, v):
        if id(self) in inside:
            inside[id(self)] += 1
        return face_of(self, u, v)

    def spy_contracted(rotation, nodes):
        if id(rotation) in inside:
            inside[id(rotation)] += 1
        return contracted(rotation, nodes)

    def spy_boundary_order(self):
        boundary_orders[0] += bool(inside)
        return boundary_order(self)

    def spy_skeleton_merge(parts, *args):
        inside.update((id(p.rotation), 0) for p in parts)
        try:
            return skeleton_merge(parts, *args)
        finally:
            merges.append(list(inside.values()))
            inside.clear()

    monkeypatch.setattr(RotationSystem, "face_of", spy_face_of)
    monkeypatch.setattr(parts_module, "contracted_rotation", spy_contracted)
    monkeypatch.setattr(merges_module, "contracted_rotation", spy_contracted)
    monkeypatch.setattr(PartEmbedding, "boundary_order", spy_boundary_order)
    monkeypatch.setattr(merges_module, "_skeleton_merge", spy_skeleton_merge)
    for graph in (random_outerplanar(96, seed=1), random_planar(80, seed=3)):
        distributed_planar_embedding(graph)
    assert len(merges) > 50
    assert boundary_orders[0] == 0
    assert all(traces == [1] * len(traces) for traces in merges), merges



def test_a_part_with_split_stubs_raises():
    """Stubs on two faces leave no boundary walk: the word count raises
    where it reads the part's outer face, and the merge lets that
    ``RotationError`` propagate."""
    part = fresh_part(cycle_graph(4), [(0, "x"), (2, "y")])
    order = part.rotation.as_dict()
    order[2] = order[2][::-1]  # the stub moves to the other face
    split = part.with_rotation(RotationSystem(part.rotation.graph, order))
    with pytest.raises(EmbeddingViolation):
        check_embedding_with_boundary(split.rotation, [stub_node(h) for h in split.boundary])
    connecting = {frozenset(h) for h in split.boundary}
    with pytest.raises(RotationError):
        merges_module._reduced_summary_words(split, connecting, split.outer_face())
    other = fresh_part(Graph(edges=[("x", "y")]), [("x", 0), ("y", 2)])
    with pytest.raises(RotationError, match="boundary walk visited"):
        merge_parts([split, other])
