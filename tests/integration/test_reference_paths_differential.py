"""Differential suite: the pipeline's hot paths vs test-local references.

The hot paths — the witness-rotation split oracle, the shared
:class:`~repro.core.index.RecursionIndex`, structural memoization in the
LR kernel, canonical-key caching and the closed-form leader-election
replay — must be *observationally invisible*.  The reference side of
this suite swaps three names for plain substitutes defined here:

* ``ScopedPlanarityOracle`` becomes :class:`FullTestOracle`, one
  networkx ``check_planarity`` of the whole evolving graph per
  multi-edge split;
* ``RecursionIndex`` becomes :class:`WalkIndex`, per-call ``BfsTree``
  walks and ``sorted(key=repr)``;
* ``_fast_flood`` always defers to the CONGEST simulator.

It runs the full pipeline both ways on eight graph families plus the
certified pipeline, asserting bit-identical

* output rotations (every vertex's clockwise order),
* recursion traces (every :class:`~repro.core.recursion.CallRecord`),
* and the complete ledger: rounds, messages, words, the per-edge-round
  maximum, activations, and the full per-phase breakdown.

This is the same discipline as ``tests/congest``'s dense-vs-event
scheduler equivalence, applied to the recursion's central bookkeeping.
"""

import networkx as nx
import pytest

from repro import distributed_planar_embedding
from repro.core import recursion as recursion_mod
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    triangulated_grid,
)
from repro.planar.scoped import ScopedPlanarityOracle
from repro.primitives import leader as leader_mod

# Eight families; the seeded outerplanar/maximal instances are chosen so
# the sweep exercises multi-edge bundle splits *and* rejections, and the
# two random_planar instances so the witness rotation misses with both
# outcomes — an accepted and a rejected whole-graph LR test after the
# rotation exists (see test_suite_exercises_split_validation below).
FAMILIES = [
    ("grid", lambda: grid_graph(5, 7)),
    ("trigrid", lambda: triangulated_grid(4, 6)),
    ("cycle", lambda: cycle_graph(17)),
    ("outerplanar", lambda: random_outerplanar(60, seed=3)),
    ("maximal", lambda: random_maximal_planar(48, seed=2)),
    ("tree", lambda: random_tree(33, seed=1)),
    ("planar80-s2", lambda: random_planar(80, seed=2)),
    ("planar80-s5", lambda: random_planar(80, seed=5)),
]


class FullTestOracle:
    """Reference split oracle: networkx decides the whole graph per query."""

    def __init__(self, graph):
        self.graph = graph
        self.full_tests = 0

    def stats(self):
        return {"full_tests": self.full_tests, "scoped_tests": 0}

    def note_subdivision(self, copy, coordinator, u):
        pass

    def check_rerouted(self, copy, coordinator, rerouted):
        self.full_tests += 1
        h = nx.Graph()
        h.add_nodes_from(self.graph.nodes())
        h.add_edges_from(self.graph.edges())
        return nx.check_planarity(h)[0]


class WalkIndex:
    """Reference recursion index: recompute every query from the tree."""

    def __init__(self, tree):
        self.tree = tree

    @classmethod
    def build(cls, tree):
        return cls(tree)

    def subtree_span(self, s):
        return self.tree.subtree_nodes(s)

    def subtree_size(self, s):
        return len(self.tree.subtree_nodes(s))

    def subtree_depth(self, s):
        return self.tree.subtree_depth(s)

    def sort(self, nodes):
        return sorted(nodes, key=repr)


def _fingerprint(result):
    """Everything observable about a run, in hashable/comparable form."""
    m = result.metrics
    return {
        "rounds": m.rounds,
        "messages": m.messages,
        "total_words": m.total_words,
        "max_words_edge_round": m.max_words_edge_round,
        "activations": m.node_activations,
        "activations_saved": m.activations_saved,
        "phases": {k: dict(v) for k, v in sorted(m.phase_breakdown().items())},
        "rotation": sorted(
            (repr(v), tuple(repr(u) for u in ring))
            for v, ring in result.rotation.items()
        ),
        "trace": [
            (
                r.level,
                repr(r.root),
                r.subtree_size,
                r.subtree_depth,
                r.p0_length,
                repr(r.splitter),
                tuple(r.part_sizes),
                None if r.merge_stats is None else r.merge_stats.final_instance_parts,
            )
            for r in result.trace
        ],
        "certification": None
        if result.certification is None
        else result.certification.accepted,
    }


def _run(make, monkeypatch, reference: bool, certify: bool = False):
    with monkeypatch.context() as m:
        if reference:
            m.setattr(recursion_mod, "ScopedPlanarityOracle", FullTestOracle)
            m.setattr(recursion_mod, "RecursionIndex", WalkIndex)
            m.setattr(leader_mod, "_fast_flood", lambda *args: leader_mod._FALLBACK)
        return distributed_planar_embedding(make(), certify=certify)


@pytest.mark.parametrize("family,make", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_optimized_matches_reference(family, make, monkeypatch):
    optimized = _run(make, monkeypatch, reference=False)
    reference = _run(make, monkeypatch, reference=True)
    assert _fingerprint(optimized) == _fingerprint(reference)
    # The substitutes genuinely ran: every reference query was a
    # networkx test of the whole graph.
    assert reference.split_oracle["scoped_tests"] == 0
    assert reference.split_oracle["full_tests"] == reference.split_tests
    # Both paths ran the same number of split validations.
    assert optimized.split_tests == reference.split_tests
    assert optimized.split_rejections == reference.split_rejections


def test_certified_pipeline_matches_reference(monkeypatch):
    def make():
        return grid_graph(5, 7)

    optimized = _run(make, monkeypatch, reference=False, certify=True)
    reference = _run(make, monkeypatch, reference=True, certify=True)
    assert optimized.certification is not None
    assert optimized.certification.accepted
    assert _fingerprint(optimized) == _fingerprint(reference)


def test_suite_exercises_split_validation(monkeypatch):
    """The family sweep must actually reach the oracle's decision paths:
    multi-edge bundle tests, at least one rejection/rollback, witness
    answers, and whole-graph LR tests after the rotation exists that
    accept and that reject."""
    outcomes = {"witness": 0, "accepted miss": 0, "rejected miss": 0}
    original = ScopedPlanarityOracle.check_rerouted

    def spy(self, copy, coordinator, rerouted):
        had_rotation = self.rotation is not None
        full_before = self.full_tests
        verdict = original(self, copy, coordinator, rerouted)
        if self.full_tests == full_before:
            outcomes["witness"] += 1
        elif had_rotation:
            outcomes["accepted miss" if verdict else "rejected miss"] += 1
        return verdict

    monkeypatch.setattr(ScopedPlanarityOracle, "check_rerouted", spy)
    tests = rejections = scoped = max_full = 0
    for _, make in FAMILIES:
        result = distributed_planar_embedding(make())
        tests += result.split_tests
        rejections += result.split_rejections
        scoped += result.split_oracle["scoped_tests"]
        max_full = max(max_full, result.split_oracle["full_tests"])
    assert tests > 0, "no family triggered a multi-edge bundle split test"
    assert rejections > 0, "no family triggered a split rejection/rollback"
    assert scoped > 0, "the oracle never answered from its witness rotation"
    assert max_full >= 2, "no run needed a second whole-graph LR test"
    assert scoped == outcomes["witness"]
    assert outcomes["accepted miss"] > 0 and outcomes["rejected miss"] > 0
