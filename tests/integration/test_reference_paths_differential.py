"""Differential suite: optimized hot paths vs the reference paths.

The perf overhaul (scoped split-validation oracle, shared
:class:`~repro.core.index.RecursionIndex`, structural memoization in the
LR kernel, canonical-key caching) must be *observationally invisible*:
``REPRO_REFERENCE_PATHS=1`` reverts the oracle and the index to the
unoptimized per-call recomputation, and this suite runs the full
pipeline both ways on six graph families plus the certified pipeline,
asserting bit-identical

* output rotations (every vertex's clockwise order),
* recursion traces (every :class:`~repro.core.recursion.CallRecord`),
* and the complete ledger: rounds, messages, words, the per-edge-round
  maximum, activations, and the full per-phase breakdown.

This is the same discipline as ``tests/congest``'s dense-vs-event
scheduler equivalence, applied to the recursion's central bookkeeping.
"""

import pytest

from repro import distributed_planar_embedding
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)

# Six families; the seeded outerplanar/maximal instances are chosen so
# the sweep exercises multi-edge bundle splits *and* rejections (see
# test_suite_exercises_split_validation below) — without them the
# scoped oracle would never leave its trivial path.
FAMILIES = [
    ("grid", lambda: grid_graph(5, 7)),
    ("trigrid", lambda: triangulated_grid(4, 6)),
    ("cycle", lambda: cycle_graph(17)),
    ("outerplanar", lambda: random_outerplanar(60, seed=3)),
    ("maximal", lambda: random_maximal_planar(48, seed=2)),
    ("tree", lambda: random_tree(33, seed=1)),
]


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
                None
                if r.merge_stats is None
                else (
                    r.merge_stats.final_instance_parts,
                    r.merge_stats.merge_fallbacks,
                ),
            )
            for r in result.trace
        ],
        "certification": None
        if result.certification is None
        else result.certification.accepted,
    }


def _run(make, monkeypatch, reference: bool, certify: bool = False):
    if reference:
        monkeypatch.setenv("REPRO_REFERENCE_PATHS", "1")
    else:
        monkeypatch.delenv("REPRO_REFERENCE_PATHS", raising=False)
    return distributed_planar_embedding(make(), certify=certify)


@pytest.mark.parametrize("family,make", FAMILIES, ids=[f for f, _ in FAMILIES])
def test_optimized_matches_reference(family, make, monkeypatch):
    optimized = _run(make, monkeypatch, reference=False)
    reference = _run(make, monkeypatch, reference=True)
    assert _fingerprint(optimized) == _fingerprint(reference)
    # The escape hatch genuinely flipped the implementation paths.
    assert optimized.split_oracle is not None
    assert reference.split_oracle is None
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
    multi-edge bundle tests AND at least one rejection/rollback."""
    monkeypatch.delenv("REPRO_REFERENCE_PATHS", raising=False)
    tests = rejections = scoped = 0
    for _, make in FAMILIES:
        result = distributed_planar_embedding(make())
        tests += result.split_tests
        rejections += result.split_rejections
        scoped += result.split_oracle["scoped_tests"]
    assert tests > 0, "no family triggered a multi-edge bundle split test"
    assert rejections > 0, "no family triggered a split rejection/rollback"
    assert scoped > 0, "the scoped oracle never ran a block-scoped test"
