"""ScopedPlanarityOracle: witness and block-scoped verdicts == full-graph
verdicts.

The oracle's contract (used by ``RecursionContext.try_split``): between
queries, the only modification is one reroute of an edge bundle from a
coordinator onto a fresh copy vertex (or an untested single-edge
subdivision reported through ``note_subdivision``), and a ``False``
verdict is followed by an exact rollback.  Under that discipline its
answers must equal a full-graph left-right test, and the rotation it
keeps must stay a planar embedding of exactly the evolving graph — a
stale rotation is the one way a witness "yes" could become unsound.

The tests drive the oracle through the real ``try_split``, so the
mutation, the subdivision bookkeeping and the exact rollback are the
pipeline's own.
"""

import random

import networkx as nx

import repro.planar.scoped as scoped_mod
from repro import distributed_planar_embedding
from repro.core.recursion import RecursionContext
from repro.planar.generators import random_maximal_planar, random_outerplanar
from repro.planar.graph import Graph
from repro.planar.lr_planarity import lr_is_planar
from repro.primitives.bfs import BfsTree


def _context(g):
    """A recursion context whose evolving graph *is* ``g`` (the one-node
    tree is never walked: only ``try_split`` and the oracle run)."""
    root = next(iter(g))
    tree = BfsTree(root=root, parent={root: None}, children={root: []}, depth_of={root: 0})
    ctx = RecursionContext(graph=g, tree=tree, current=g, reference_paths=False)
    assert ctx.oracle is not None and ctx.oracle.graph is g
    return ctx


def _wheel(rim, hub=0):
    g = Graph()
    for i, v in enumerate(rim):
        g.add_edge(hub, v)
        g.add_edge(v, rim[(i + 1) % len(rim)])
    return g


def _assert_rotation_embeds(oracle, g):
    """The oracle's rotation (when it has one) is a planar embedding of
    exactly ``g``."""
    if oracle.rotation is None:
        return
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(ring) for v, ring in oracle.rotation.items()})
    embedding.check_structure()
    assert set(embedding.nodes) == set(g.nodes())
    assert {frozenset(e) for e in embedding.edges()} == {frozenset(e) for e in g.edges()}


def _count_lr(monkeypatch):
    """Record the node set of every LR test the oracle runs."""
    calls = {"lr_is_planar": [], "lr_planarity": []}
    for name in calls:
        original = getattr(scoped_mod, name)

        def counted(graph, _original=original, _log=calls[name]):
            _log.append(set(graph.nodes()))
            return _original(graph)

        monkeypatch.setattr(scoped_mod, name, counted)
    return calls


def test_first_query_is_a_full_test_and_establishes_invariant(monkeypatch):
    g = _wheel([1, 2, 3, 4])
    ctx = _context(g)
    calls = _count_lr(monkeypatch)
    assert ctx.try_split(("copy", 1), 0, [1, 2]) is True
    oracle = ctx.oracle
    assert oracle.known_planar
    assert oracle.stats() == {"full_tests": 1, "scoped_tests": 0, "memo_hits": 0}
    # A decision-only test of the whole graph; no rotation yet.
    assert calls == {"lr_is_planar": [set(g.nodes())], "lr_planarity": []}
    assert oracle.rotation is None


def test_scoped_rejection_and_memoized_retry(monkeypatch):
    g = _wheel([1, 2, 3, 4, 5, 6])
    ctx = _context(g)
    oracle = ctx.oracle
    calls = _count_lr(monkeypatch)
    # Establish the invariant (full test), then build the rotation: the
    # first scoped query embeds the whole graph and answers from it.
    assert ctx.try_split(("copy", 1), 1, [2, 6]) is True
    assert ctx.try_split(("copy", 2), 3, [2, 4]) is True
    assert oracle.rotation is not None
    assert len(calls["lr_planarity"]) == 1
    _assert_rotation_embeds(oracle, g)

    # The wheel is a subdivision of a 3-connected graph, so its rotation
    # is unique: rim vertices 1 and 4 are never consecutive at the hub.
    # The witness misses and the block-scoped LR test rejects.
    before = {v: list(nbrs) for v, nbrs in g._adj.items()}
    assert ctx.try_split(("copy", 3), 0, [1, 4]) is False
    assert {v: list(nbrs) for v, nbrs in g._adj.items()} == before
    assert len(calls["lr_is_planar"]) == 2
    stats = oracle.stats()
    assert stats["scoped_tests"] == 2 and stats["memo_hits"] == 0
    # A rejection keeps the rotation: the graph was restored exactly.
    assert oracle.rotation is not None
    _assert_rotation_embeds(oracle, g)

    # The same bundle with a fresh copy label misses the witness again
    # and reaches the memo: the copy is renamed in the key.
    assert ctx.try_split(("copy", 4), 0, [1, 4]) is False
    assert len(calls["lr_is_planar"]) == 2
    assert oracle.stats() == {"full_tests": 1, "scoped_tests": 3, "memo_hits": 1}
    assert lr_is_planar(g) is True


def test_scoped_only_tests_the_blocks_at_the_copy(monkeypatch):
    # A wheel and a K4 sharing the cut vertex 0 (the wheel's hub).
    g = _wheel([1, 2, 3, 4, 5, 6])
    for u, v in [(0, 20), (0, 21), (0, 22), (20, 21), (20, 22), (21, 22)]:
        g.add_edge(u, v)
    ctx = _context(g)
    oracle = ctx.oracle
    calls = _count_lr(monkeypatch)
    assert ctx.try_split(("copy", 1), 20, [21, 22]) is True  # full test
    assert ctx.try_split(("copy", 2), 21, [0, 22]) is True  # lazy rotation
    assert oracle.rotation is not None

    # Rim vertices 1 and 3 are not consecutive at the hub in any planar
    # embedding: a witness miss, then an LR test of the copy's blocks.
    assert ctx.try_split(("copy", 3), 0, [1, 3]) is False
    (region,) = calls["lr_is_planar"][1:]
    assert region == {0, 1, 2, 3, 4, 5, 6, ("copy", 3)}  # not the K4 side
    assert oracle.stats()["scoped_tests"] == 2


def test_accepted_fallback_drops_rotation_and_next_query_rebuilds(monkeypatch):
    # Two triangles sharing the cut vertex 0: their darts never
    # interleave at 0, so a bundle of one neighbor from each block is
    # separated in the kernel's rotation yet consecutive once a block
    # flips.  The witness misses and the block-scoped test accepts.
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    ctx = _context(g)
    oracle = ctx.oracle
    calls = _count_lr(monkeypatch)
    assert ctx.try_split(("copy", 1), 1, [0, 2]) is True  # full test
    assert ctx.try_split(("copy", 2), 3, [0, 4]) is True  # lazy rotation
    ring = oracle.rotation[0]
    # Pick two neighbors of 0 that the current rotation separates.
    a, b = ring[0], ring[2]
    assert ctx.try_split(("copy", 3), 0, [a, b]) is True
    assert lr_is_planar(g)
    assert len(calls["lr_is_planar"]) == 2  # the block-scoped fallback
    assert oracle.rotation is None
    # The next query rebuilds the rotation from the modified graph.
    assert ctx.try_split(("copy", 4), ("copy", 3), [a, b]) is True
    assert len(calls["lr_planarity"]) == 2
    _assert_rotation_embeds(oracle, g)


def _rerouted_is_planar(g, copy, coordinator, bundle):
    """Full-graph LR verdict on ``g`` with the reroute applied."""
    h = g.copy()
    for u in bundle:
        h.remove_edge(u, coordinator)
        h.add_edge(u, copy)
    h.add_edge(copy, coordinator)
    return lr_is_planar(h)


def _random_bundle(rng, g, coordinator):
    neighbors = list(g._adj[coordinator])
    size = rng.choice((1, 2, 2, 3))
    return rng.sample(neighbors, min(size, len(neighbors)))


def test_random_reroutes_agree_with_full_graph_test(monkeypatch):
    """Random reroutes, subdivisions and rejections on planar families:
    after every step the verdict equals a full-graph LR test and the
    rotation is a planar embedding of exactly the evolving graph."""
    calls = _count_lr(monkeypatch)
    rng = random.Random(11)
    witness = fallback_accepts = fallback_rejects = subdivisions = 0
    families = [random_maximal_planar(24, seed=s) for s in range(6)]
    families += [random_outerplanar(30, seed=s) for s in range(4)]
    for g in families:
        ctx = _context(g)
        oracle = ctx.oracle
        serial = 0
        for _ in range(30):
            coordinator = rng.choice(g.nodes())
            if isinstance(coordinator, tuple) or len(g._adj[coordinator]) < 2:
                continue
            bundle = _random_bundle(rng, g, coordinator)
            copy = ("copy", serial)
            serial += 1
            had_rotation = oracle.rotation is not None
            lr_before = len(calls["lr_is_planar"])
            memo_before = oracle.memo_hits
            expected = _rerouted_is_planar(g, copy, coordinator, bundle)
            before = {v: list(nbrs) for v, nbrs in g._adj.items()}
            verdict = ctx.try_split(copy, coordinator, bundle)
            assert verdict == expected
            if not verdict:
                assert {v: list(nbrs) for v, nbrs in g._adj.items()} == before
            _assert_rotation_embeds(oracle, g)
            if len(bundle) == 1:
                subdivisions += had_rotation
            elif had_rotation and len(calls["lr_is_planar"]) == lr_before:
                witness += oracle.memo_hits == memo_before
            elif had_rotation and verdict:
                fallback_accepts += 1
            elif had_rotation:
                fallback_rejects += 1
        assert oracle.stats()["scoped_tests"] > 0
    # Every tier and every rotation update ran somewhere in the sweep.
    assert witness > 0 and subdivisions > 0
    assert fallback_accepts > 0 and fallback_rejects > 0
    assert len(calls["lr_planarity"]) > len(families)  # rebuilt after drops


def test_outerplanar_splits_cost_no_lr_test_each(monkeypatch):
    """Guard against the per-split whole-graph LR test coming back.

    A biconnected outerplanar run makes its split queries on one block —
    the whole graph — so an LR test per query (29 here) is quadratic
    overall.  With the witness rotation the run costs one full decision
    and one lazy embedding, however many scoped queries follow.
    """
    monkeypatch.delenv("REPRO_REFERENCE_PATHS", raising=False)
    calls = _count_lr(monkeypatch)
    result = distributed_planar_embedding(random_outerplanar(256, seed=7))
    assert result.split_oracle == {"full_tests": 1, "scoped_tests": 28, "memo_hits": 0}
    assert len(calls["lr_is_planar"]) + len(calls["lr_planarity"]) <= 2
