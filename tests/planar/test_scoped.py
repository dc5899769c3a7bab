"""ScopedPlanarityOracle: witness and whole-graph verdicts == networkx
verdicts.

The oracle's contract (used by ``RecursionContext.try_split``): between
queries, the only modification is one reroute of an edge bundle from a
coordinator onto a fresh copy vertex (or an untested single-edge
subdivision reported through ``note_subdivision``), and a ``False``
verdict is followed by an exact rollback.  Under that discipline its
answers must equal an independent planarity test of the whole rerouted
graph, and the rotation it keeps must stay a planar embedding of exactly
the evolving graph — a stale rotation is the one way a witness "yes"
could become unsound.

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
from repro.primitives.bfs import BfsTree


def _context(g):
    """A recursion context whose evolving graph *is* ``g`` (the one-node
    tree is never walked: only ``try_split`` and the oracle run)."""
    root = next(iter(g))
    tree = BfsTree(root=root, parent={root: None}, children={root: []}, depth_of={root: 0})
    ctx = RecursionContext(graph=g, tree=tree, current=g)
    assert ctx.oracle.graph is g
    return ctx


def _wheel(rim, hub=0):
    g = Graph()
    for i, v in enumerate(rim):
        g.add_edge(hub, v)
        g.add_edge(v, rim[(i + 1) % len(rim)])
    return g


def _adjacency(g):
    return {v: list(nbrs) for v, nbrs in g._adj.items()}


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
    calls = []
    original = scoped_mod.lr_planarity

    def counted(graph):
        calls.append(set(graph.nodes()))
        return original(graph)

    monkeypatch.setattr(scoped_mod, "lr_planarity", counted)
    return calls


def test_first_query_is_a_full_test_and_establishes_invariant(monkeypatch):
    g = _wheel([1, 2, 3, 4])
    ctx = _context(g)
    calls = _count_lr(monkeypatch)
    assert ctx.try_split(("copy", 1), 0, [1, 2]) is True
    oracle = ctx.oracle
    assert oracle.stats() == {"full_tests": 1, "scoped_tests": 0}
    # One LR embedding of the whole modified graph builds the rotation.
    assert calls == [set(g.nodes())]
    assert oracle.rotation is not None
    _assert_rotation_embeds(oracle, g)


def test_rejected_miss_leaves_rotation_and_graph_unchanged(monkeypatch):
    g = _wheel([1, 2, 3, 4, 5, 6])
    ctx = _context(g)
    oracle = ctx.oracle
    calls = _count_lr(monkeypatch)
    # The first query builds the rotation; a bundle of two of a rim
    # vertex's three neighbors is consecutive in any ring, so the second
    # is a witness answer with no LR test.
    assert ctx.try_split(("copy", 1), 1, [2, 6]) is True
    assert ctx.try_split(("copy", 2), 3, [2, 4]) is True
    assert len(calls) == 1
    assert oracle.stats() == {"full_tests": 1, "scoped_tests": 1}
    _assert_rotation_embeds(oracle, g)

    # The wheel is a subdivision of a 3-connected graph, so its rotation
    # is unique: rim vertices 1 and 4 are never consecutive at the hub.
    # The witness misses and the whole-graph LR test rejects.
    graph_before = _adjacency(g)
    rotation_before = dict(oracle.rotation)
    assert ctx.try_split(("copy", 3), 0, [1, 4]) is False
    assert calls[1] == set(g.nodes()) | {("copy", 3)}
    assert oracle.stats() == {"full_tests": 2, "scoped_tests": 1}
    assert _adjacency(g) == graph_before
    assert oracle.rotation == rotation_before
    _assert_rotation_embeds(oracle, g)


def test_accepted_miss_replaces_rotation_and_next_split_needs_no_lr(monkeypatch):
    # Two triangles sharing the cut vertex 0: their darts never
    # interleave at 0, so a bundle of one neighbor from each block is
    # separated in the kernel's rotation yet consecutive once a block
    # flips.  The witness misses and the LR test accepts.
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    ctx = _context(g)
    oracle = ctx.oracle
    calls = _count_lr(monkeypatch)
    assert ctx.try_split(("copy", 1), 1, [0, 2]) is True  # builds the rotation
    ring = oracle.rotation[0]
    # Pick two neighbors of 0 that the current rotation separates.
    a, b = ring[0], ring[2]
    assert ctx.try_split(("copy", 2), 0, [a, b]) is True
    assert len(calls) == 2
    assert oracle.stats() == {"full_tests": 2, "scoped_tests": 0}
    assert nx.check_planarity(nx.Graph(list(g.edges())))[0]
    # The accepted test's rotation replaced the old one: it embeds the
    # modified graph, copy included.
    assert ("copy", 2) in oracle.rotation
    _assert_rotation_embeds(oracle, g)
    # Two of the copy's three neighbors are consecutive in any ring: the
    # next split is a witness answer, with no LR test.
    assert ctx.try_split(("copy", 3), ("copy", 2), [a, b]) is True
    assert len(calls) == 2
    assert oracle.stats() == {"full_tests": 2, "scoped_tests": 1}
    _assert_rotation_embeds(oracle, g)


def _rerouted_is_planar(g, copy, coordinator, bundle):
    """networkx's verdict on ``g`` with the reroute applied."""
    h = nx.Graph(list(g.edges()))
    for u in bundle:
        h.remove_edge(u, coordinator)
        h.add_edge(u, copy)
    h.add_edge(copy, coordinator)
    return nx.check_planarity(h)[0]


def _random_bundle(rng, g, coordinator):
    neighbors = list(g._adj[coordinator])
    size = rng.choice((1, 2, 2, 3))
    return rng.sample(neighbors, min(size, len(neighbors)))


def test_random_reroutes_agree_with_full_graph_test(monkeypatch):
    """Random reroutes, subdivisions and rejections on planar families:
    after every step the verdict equals networkx's test of the rerouted
    graph and the rotation is a planar embedding of exactly the evolving
    graph."""
    calls = _count_lr(monkeypatch)
    rng = random.Random(11)
    witness = accepted_misses = rejected_misses = subdivisions = 0
    families = [random_maximal_planar(24, seed=s) for s in range(6)]
    families += [random_outerplanar(30, seed=s) for s in range(4)]
    for g in families:
        ctx = _context(g)
        oracle = ctx.oracle
        lr_at_start = len(calls)
        serial = 0
        for _ in range(30):
            coordinator = rng.choice(g.nodes())
            if isinstance(coordinator, tuple) or len(g._adj[coordinator]) < 2:
                continue
            bundle = _random_bundle(rng, g, coordinator)
            copy = ("copy", serial)
            serial += 1
            had_rotation = oracle.rotation is not None
            lr_before = len(calls)
            expected = _rerouted_is_planar(g, copy, coordinator, bundle)
            before = _adjacency(g)
            verdict = ctx.try_split(copy, coordinator, bundle)
            assert verdict == expected
            if not verdict:
                assert _adjacency(g) == before
            _assert_rotation_embeds(oracle, g)
            if len(bundle) == 1:
                subdivisions += had_rotation
            elif len(calls) == lr_before:
                witness += 1
            elif had_rotation and verdict:
                accepted_misses += 1
            elif had_rotation:
                rejected_misses += 1
        # One LR test per full test, none per witness answer.
        assert len(calls) - lr_at_start == oracle.stats()["full_tests"]
        assert oracle.stats()["scoped_tests"] > 0
    # Both steps, both outcomes of a miss, and subdivisions of a kept
    # rotation all ran somewhere in the sweep.
    assert witness > 0 and subdivisions > 0
    assert accepted_misses > 0 and rejected_misses > 0


def test_outerplanar_splits_cost_no_lr_test_each(monkeypatch):
    """Guard against the per-split whole-graph LR test coming back.

    A biconnected outerplanar run makes all its split queries on one
    block — the whole graph — so an LR test per query (29 here) is
    quadratic overall.  With the witness rotation the run costs one LR
    embedding, however many witness answers follow.
    """
    calls = _count_lr(monkeypatch)
    result = distributed_planar_embedding(random_outerplanar(256, seed=7))
    assert result.split_oracle == {"full_tests": 1, "scoped_tests": 28}
    assert len(calls) == 1
