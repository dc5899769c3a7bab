"""Ranked node IDs against the ``("v", id)`` wrapping they replaced.

On an input whose IDs are ``0..n-1`` a node's rank is its ID, so the
run on ranks (:func:`repro.core.algorithm._wrap`) and the run with
:func:`tests.core.wrap_reference.wrap_reference` swapped in must agree
on everything but the words that carry node IDs: the same rotation and
leader, the same rounds, messages and activations charge by charge, the
same recursion shape, and never more words in any charge.  Inputs are
the seeded generator families and the generated families of
``tests/integration/generated.py``, relabeled to ``0..n-1``.
"""

import random

import pytest

import repro.core.algorithm as algorithm
import repro.core.baseline as baseline
from repro import distributed_planar_embedding
from repro.core import trivial_baseline_embedding
from repro.planar import generators as gen
from tests.core.wrap_reference import wrap_reference
from tests.integration.generated import PLANAR_FAMILIES, as_ranks, networkx_accepts


SEEDED = {
    "grid": lambda: gen.grid_graph(6, 6),
    "trigrid": lambda: gen.triangulated_grid(5, 5),
    "cylinder": lambda: gen.cylinder_graph(4, 6),
    "prism": lambda: gen.stacked_prism(3, 5),
    "wheel": lambda: gen.wheel_graph(12),
    "star": lambda: gen.star_graph(15),
    "cycle": lambda: gen.cycle_graph(20),
    "binary-tree": lambda: gen.binary_tree(4),
    "caterpillar": lambda: gen.caterpillar(8, 2),
    "theta": lambda: gen.theta_graph(4, 4),
    "k4-subdivision": lambda: gen.k4_subdivision(3),
    "subdivided-maximal": lambda: gen.subdivide(gen.random_maximal_planar(8, 1), 6),
    **{f"tree-{s}": (lambda s=s: gen.random_tree(40, s)) for s in range(2)},
    **{f"outerplanar-{s}": (lambda s=s: gen.random_outerplanar(60, s)) for s in range(3)},
    **{f"maximal-{s}": (lambda s=s: gen.random_maximal_planar(40, s)) for s in range(2)},
    **{f"random-planar-{s}": (lambda s=s: gen.random_planar(50, seed=s)) for s in range(3)},
}

GENERATED = {
    f"{family}-{n}-{seed}": (family, n, seed)
    for family in sorted(PLANAR_FAMILIES)
    for n in (10, 40)
    for seed in range(3)
}


def _runs(graph, monkeypatch, embed=distributed_planar_embedding, module=algorithm):
    ranked = embed(graph)
    with monkeypatch.context() as m:
        m.setattr(module, "_wrap", wrap_reference)
        reference = embed(graph)
    return ranked, reference


def _charges(metrics):
    return [(c.phase, c.kind, c.rounds, c.messages, c.activations) for c in metrics.charges]


def _assert_same_run_fewer_words(ranked, reference):
    assert ranked.rotation == reference.rotation
    assert ranked.leader == reference.leader
    a, b = ranked.metrics, reference.metrics
    assert (a.rounds, a.messages, a.node_activations) == (
        b.rounds, b.messages, b.node_activations
    )
    assert a.phase_rounds == b.phase_rounds
    assert _charges(a) == _charges(b)
    assert all(x.words <= y.words for x, y in zip(a.charges, b.charges))
    phases_a, phases_b = a.phase_breakdown(), b.phase_breakdown()
    assert all(phases_a[p]["words"] <= phases_b[p]["words"] for p in phases_b)
    if ranked.graph.num_nodes > 1:
        assert a.total_words < b.total_words


def _assert_same_recursion(ranked, reference):
    def shape(record, node=lambda v: v):
        return (
            record.level, node(record.root), record.subtree_size, record.subtree_depth,
            record.p0_length, node(record.splitter), record.part_sizes,
        )

    assert [shape(r) for r in ranked.trace] == [
        shape(r, node=lambda v: v[1]) for r in reference.trace
    ]
    assert (ranked.bfs_depth, ranked.known_n, ranked.diameter_upper) == (
        reference.bfs_depth, reference.known_n, reference.diameter_upper
    )


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_family_runs_like_the_wrapped_ids(name, monkeypatch):
    graph = as_ranks(SEEDED[name]())
    ranked, reference = _runs(graph, monkeypatch)
    _assert_same_run_fewer_words(ranked, reference)
    _assert_same_recursion(ranked, reference)
    assert networkx_accepts(graph, ranked.rotation)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_family_runs_like_the_wrapped_ids(name, monkeypatch):
    family, n, seed = GENERATED[name]
    graph = as_ranks(PLANAR_FAMILIES[family](random.Random(seed), n))
    ranked, reference = _runs(graph, monkeypatch)
    _assert_same_run_fewer_words(ranked, reference)
    _assert_same_recursion(ranked, reference)
    assert networkx_accepts(graph, ranked.rotation)


@pytest.mark.parametrize("name", ["grid", "outerplanar-0", "star"])
def test_baseline_runs_like_the_wrapped_ids(name, monkeypatch):
    graph = as_ranks(SEEDED[name]())
    ranked, reference = _runs(
        graph, monkeypatch, embed=trivial_baseline_embedding, module=baseline
    )
    _assert_same_run_fewer_words(ranked, reference)


def test_leader_flood_words_halve(monkeypatch):
    # Max-ID flooding is the one phase that ships node IDs as payloads:
    # a wrapped ID is two words, a rank one.
    ranked, reference = _runs(gen.grid_graph(8, 8), monkeypatch)
    ranked_words, reference_words = (
        run.metrics.phase_breakdown()["leader-election"]["words"]
        for run in (ranked, reference)
    )
    assert 2 * ranked_words == reference_words
