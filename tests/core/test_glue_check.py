"""Each merge is verified at its glue, not over the merged part.

:func:`repro.core.merges._check_glue` decides a merge's genus and the
co-faciality of its new boundary from the parts' stub cycles alone, and
:func:`repro.core.realize._check_move` holds every ring realization
rewrites to an Observation 3.2 move.  Here:

* **unit** — each check raises on hand-built faults (crossed prescribed
  orders, external half-edges on two faces, a connecting half-edge
  without its partner; an interleaved cut-vertex ring, a block neither
  kept nor reversed, a half-flipped block) and accepts their repairs;
* **corpora** — both accept everything the realize and merge
  differential corpora produce, and every merged part passes the
  whole-part check (full ring validation, genus, co-facial boundary);
* **mutation** — four fault operators injected at random merges of a
  seeded corpus; the new checks raise at a merge exactly when the
  whole-part check on the merged rotation (with no move check) does;
* **spies** — a merge traces no face, runs no whole-part check and no
  connected-components pass, and walks each part's block-cut tree at
  most once.
"""

import functools
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro.core.interface as interface_module
import repro.core.merges as merges_module
import repro.core.realize as realize_module
import repro.core.unrestricted as unrestricted_module
import repro.planar.graph as graph_module
import repro.planar.rotation as rotation_module
import repro.planar.verify as verify_module
from repro import distributed_planar_embedding
from repro.core import RealizationError, merge_parts
from repro.core.interface import SkeletonError
from repro.core.parts import stub_node
from repro.planar import RotationError, RotationSystem
from repro.planar.generators import (
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    subdivide,
)
from repro.planar.verify import EmbeddingViolation, check_embedding_with_boundary
from tests.core.test_merge_differential import (
    CORPUS,
    IDS,
    check_realization,
    prescriptions,
    random_part,
)

check_glue = merges_module._check_glue
check_move = realize_module._check_move

# -- the glue check on hand-built faults -----------------------------------

# Part "A" is vertex 0, part "B" the triangle 1-2-3; every B vertex has an
# edge to 0 (a K4).  B's stubs lie in the order 1, 2, 3: A's half-edges
# glue planarly in the opposite order and cross in the same one.
OWNER = {0: "A", 1: "B", 2: "B", 3: "B"}
B_ORDER = [(1, 0), (2, 0), (3, 0)]
PLANAR_A = [(0, 1), (0, 3), (0, 2)]
CROSSED_A = [(0, 1), (0, 2), (0, 3)]


def test_glue_check_accepts_a_planar_arrangement():
    check_glue([PLANAR_A, B_ORDER], OWNER)


def test_glue_check_raises_on_crossed_prescribed_orders():
    with pytest.raises(EmbeddingViolation, match="not a planar embedding"):
        check_glue([CROSSED_A, B_ORDER], OWNER)


def test_glue_check_raises_on_external_half_edges_on_two_faces():
    b_order = [(1, 0), (1, "y"), (2, 0), (3, 0)]
    # z follows A's half-edge to 2, on y's face: co-facial.
    check_glue([PLANAR_A + [(0, "z")], b_order], OWNER)
    # z follows A's half-edge to 1, on another face.
    with pytest.raises(EmbeddingViolation, match="external half-edges lie on 2 faces"):
        check_glue([[(0, 1), (0, "z"), (0, 3), (0, 2)], b_order], OWNER)


def test_glue_check_raises_on_a_connecting_half_edge_without_its_partner():
    with pytest.raises(EmbeddingViolation, match=r"half-edge \(0, 2\) has no partner"):
        check_glue([PLANAR_A, [(1, 0), (3, 0)]], OWNER)


# -- the move check on hand-built faults -----------------------------------


def test_move_check_raises_on_an_interleaved_cut_vertex_ring():
    edges = {"X": ["x1", "x2"], "Y": ["y1", "y2"], "s": ["s"]}
    check_move(["x1", "x2", "s", "y1", "y2"], edges, set())
    check_move(["x1", "y1", "y2", "s", "x2"], edges, set())  # Y and s in a corner of X
    with pytest.raises(RealizationError, match="interleaves"):
        check_move(["x1", "y1", "x2", "s", "y2"], edges, set())


def test_move_check_raises_on_a_block_neither_kept_nor_reversed():
    edges = {"B": ["b1", "b2", "b3", "b4"], "s": ["s"]}
    check_move(["b3", "b4", "s", "b1", "b2"], edges, set())  # kept
    check_move(["b4", "b3", "b2", "s", "b1"], edges, {"B"})  # flipped
    with pytest.raises(RealizationError, match="neither keeps nor flips block 'B'"):
        check_move(["b1", "b3", "b2", "b4", "s"], edges, set())
    with pytest.raises(RealizationError, match="neither keeps nor flips"):
        check_move(["b1", "b3", "b2", "b4", "s"], edges, {"B"})


def test_move_check_raises_on_a_half_flipped_block():
    # The block flipped, but this ring still holds its edges in the old order.
    edges = {"B": ["b1", "b2", "b3"], "C": ["c1", "c2"]}
    check_move(["b3", "b2", "b1", "c1", "c2"], edges, {"B", "C"})
    with pytest.raises(RealizationError, match="neither keeps nor flips block 'B'"):
        check_move(["b1", "b2", "b3", "c2", "c1"], edges, {"B", "C"})


def test_move_check_raises_on_a_ring_that_is_no_permutation():
    edges = {"B": ["b1", "b2", "b3"], "s": ["s"]}
    with pytest.raises(RealizationError, match="not a permutation"):
        check_move(["b1", "b2", "b3", "b3"], edges, set())
    with pytest.raises(RealizationError, match="not a permutation"):
        check_move(["b1", "b2", "b3"], edges, set())


# -- both checks accept the differential corpora ---------------------------


def _reference_check(part):
    """The whole-part check: every ring validated, genus 0, boundary co-facial."""
    rotation = RotationSystem(part.rotation.graph, part.rotation.as_dict())
    check_embedding_with_boundary(rotation, [stub_node(h) for h in part.boundary])


def test_move_check_accepts_every_ring_of_the_realize_corpus(monkeypatch):
    checked, raised = [0], []

    def spy(ring, edges, flipped):
        checked[0] += 1
        try:
            check_move(ring, edges, flipped)
        except RealizationError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(realize_module, "_check_move", spy)
    for seed in range(150):
        rng = random.Random(seed)
        part = random_part(rng)
        for prescribed, in_interface in prescriptions(part, rng):
            check_realization(part, prescribed, in_interface)
    assert checked[0] > 100 and not raised


@pytest.mark.parametrize("family,make", CORPUS, ids=IDS)
def test_glue_check_accepts_the_merge_corpus(family, make, monkeypatch):
    glued, skeleton_merge = [], merges_module._skeleton_merge

    def spy(parts, *args):
        merged = skeleton_merge(parts, *args)
        _reference_check(merged)
        glued.append(len(parts))
        return merged

    monkeypatch.setattr(merges_module, "_skeleton_merge", spy)
    distributed_planar_embedding(make())
    if not family.startswith("tree"):  # a tree's parts are spliced, not merged
        assert glued


# -- mutation differential against the whole-part check -------------------

MUTATION_CORPUS = [
    lambda: random_outerplanar(40, seed=1),
    lambda: random_outerplanar(48, seed=2),
    lambda: random_planar(40, seed=3),
    lambda: random_maximal_planar(24, seed=4),
    lambda: subdivide(random_maximal_planar(6, seed=5), 3),
    lambda: grid_graph(5, 5),
]
FAULTS = (EmbeddingViolation, RealizationError, RotationError, SkeletonError, ValueError)


@functools.lru_cache(maxsize=None)
def harvested_merges() -> tuple:
    """The parts of every merge of two or more parts in the corpus runs,
    each list copied before its merge runs."""
    merges = []

    def spy(parts):
        if len(parts) > 1:
            merges.append([replace(p, graph=p.graph.copy()) for p in parts])
        return merge_parts(parts)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(unrestricted_module, "merge_parts", spy)
        for make in MUTATION_CORPUS:
            distributed_planar_embedding(make())
    return tuple(merges)


def _drop_partner(parts, rng):
    """``parts`` with one connecting half-edge's stub cut out of its part."""
    owner = {v for p in parts for v in p.graph}
    i, h = rng.choice([(i, h) for i, p in enumerate(parts) for h in p.boundary if h[1] in owner])
    part, stub = parts[i], stub_node(h)
    graph = part.rotation.graph.copy()
    graph.remove_node(stub)
    order = {
        v: tuple(w for w in ring if w != stub)
        for v, ring in part.rotation.as_dict().items()
        if v != stub
    }
    cut = replace(
        part,
        boundary=[b for b in part.boundary if b != h],
        rotation=RotationSystem.trusted(graph, order),
    )
    return parts[:i] + [cut] + parts[i + 1 :]


def _swap(seq, rng):
    i, j = rng.sample(range(len(seq)), 2)
    seq[i], seq[j] = seq[j], seq[i]


def _raises(parts, operator, seed, reference):
    """Whether merging ``parts`` with ``operator`` injected raises: under
    the glue and move checks, or with both off and the whole-part check on
    the merged part instead (``reference``; the resolved-ring check and
    realization's walk check run in both)."""
    rng = random.Random(seed)
    target = rng.randrange(len(parts))  # the part, or the rewritten ring, to corrupt
    calls = [0]
    if operator == "rewritten-ring":
        with pytest.MonkeyPatch.context() as m:  # count the rewritten rings first
            m.setattr(realize_module, "_check_move", lambda *a: calls.__setitem__(0, calls[0] + 1))
            merge_parts(parts)
        if not calls[0]:
            return None
        target, calls[0] = rng.randrange(calls[0]), 0
    planar_embedding, realize = merges_module.planar_embedding, merges_module.realize_boundary_order
    skeleton_merge = merges_module._skeleton_merge

    def swapped_instance(graph):
        rotation = planar_embedding(graph)
        order = rotation.as_dict()
        v = rng.choice([v for v, ring in order.items() if len(ring) >= 3] or [None])
        if v is not None:
            ring = list(order[v])
            _swap(ring, rng)
            order[v] = tuple(ring)
        return RotationSystem.trusted(rotation.graph, order)

    def swapped_prescription(part, prescribed, *args):
        if calls[0] == target and len(prescribed) >= 3:
            _swap(prescribed, rng)
        calls[0] += 1
        return realize(part, prescribed, *args)

    def move(ring, edges, flipped):
        if operator == "rewritten-ring" and calls[0] == target:
            _swap(ring, rng)
        calls[0] += 1
        if not reference:
            check_move(ring, edges, flipped)

    def whole_part_check(parts, *args):
        merged = skeleton_merge(parts, *args)
        _reference_check(merged)
        return merged

    with pytest.MonkeyPatch.context() as m:
        m.setattr(realize_module, "_check_move", move)
        if operator == "instance-ring":
            m.setattr(merges_module, "planar_embedding", swapped_instance)
        if operator == "prescribed-order":
            m.setattr(merges_module, "realize_boundary_order", swapped_prescription)
        if operator == "partner":
            parts = _drop_partner(parts, rng)
        if reference:
            m.setattr(merges_module, "_check_glue", lambda orders, owner: None)
            m.setattr(merges_module, "_skeleton_merge", whole_part_check)
        try:
            merge_parts(parts)
        except FAULTS:
            return True
    return False


@pytest.mark.parametrize(
    "operator", ["instance-ring", "prescribed-order", "rewritten-ring", "partner"]
)
def test_new_checks_raise_exactly_when_the_whole_part_check_does(operator):
    merges = harvested_merges()
    assert len(merges) > 50
    rng = random.Random(operator)
    verdicts = []
    for _ in range(60):
        parts, seed = rng.choice(merges), rng.randrange(10**9)
        new = _raises(parts, operator, seed, reference=False)
        if new is not None:
            assert new == _raises(parts, operator, seed, reference=True), (operator, seed)
            verdicts.append(new)
    assert len(verdicts) >= 30 and any(verdicts)
    if operator == "partner":
        assert all(verdicts)
    if operator in ("instance-ring", "prescribed-order"):
        assert not all(verdicts)  # some corruptions stay planar under both


# -- spies -----------------------------------------------------------------

PLANAR_DIR = Path(rotation_module.__file__).parent


def test_a_merge_traces_no_face_and_runs_no_whole_part_pass():
    """No ``trace_faces``, ``check_embedding_with_boundary`` or
    ``Graph.connected_components`` call whose nearest caller outside the
    planar package is in the merge module."""
    targets = {
        rotation_module.trace_faces.__code__,
        verify_module.check_embedding_with_boundary.__code__,
        graph_module.Graph.connected_components.__code__,
    }
    calls: list = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in targets:
            caller = frame.f_back
            while caller is not None and Path(caller.f_code.co_filename).parent == PLANAR_DIR:
                caller = caller.f_back
            if caller is not None and caller.f_code.co_filename == merges_module.__file__:
                calls.append((frame.f_code.co_name, caller.f_code.co_name))

    merged = [0]
    skeleton_merge = merges_module._skeleton_merge

    def counted(*args):
        merged[0] += 1
        return skeleton_merge(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(merges_module, "_skeleton_merge", counted)
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            for graph in (random_outerplanar(48, seed=1), random_planar(40, seed=3)):
                distributed_planar_embedding(graph)
        finally:
            sys.setprofile(previous)
    assert merged[0] > 20
    assert calls == []


def test_one_steiner_walk_per_part_per_merge(monkeypatch):
    walks = [0]
    merges = []
    steiner = interface_module.steiner_blocks
    skeleton_merge = merges_module._skeleton_merge

    def spy_steiner(*args):
        walks[0] += 1
        return steiner(*args)

    def spy_skeleton_merge(parts, *args):
        before = walks[0]
        merged = skeleton_merge(parts, *args)
        merges.append((len(parts), walks[0] - before))
        return merged

    for module in (interface_module, merges_module, realize_module):
        monkeypatch.setattr(module, "steiner_blocks", spy_steiner)
    monkeypatch.setattr(merges_module, "_skeleton_merge", spy_skeleton_merge)
    for graph in (random_outerplanar(96, seed=1), subdivide(random_maximal_planar(8, seed=4), 8)):
        distributed_planar_embedding(graph)
    assert len(merges) > 50 and sum(w for _, w in merges) > 50
    assert all(w <= parts for parts, w in merges), merges
