"""Property tests on generated inputs (ROADMAP item 3).

Six planar families and two non-planar ones from
:mod:`tests.integration.generated`, each with node IDs of one kind per
graph (ints, strings or tuples).  Every planar input must embed within
the paper's Lemma 4.2 / 4.3 bounds with a networkx-valid output, some of
them certified; every non-planar input must be rejected with
:class:`~repro.core.NonPlanarNetworkError` and a checked Kuratowski
witness.  ``benchmarks/bench_e34_generated.py`` runs a larger fixed
corpus through the same checks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.planar.generators import path_graph
from repro.planar.graph import Graph
from tests.integration.generated import (
    ID_KINDS,
    NONPLANAR_FAMILIES,
    PLANAR_FAMILIES,
    build,
    check_nonplanar_input,
    check_planar_input,
    check_theorem_bound,
    chorded_grid,
    kuratowski_in_planar,
    relabel,
    seeded,
)

GENERATED = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
@GENERATED
@given(data=st.data())
def test_planar_family_embeds_within_bounds(family, data):
    graph = data.draw(seeded(PLANAR_FAMILIES[family], 2, 60), label="graph")
    check_planar_input(graph, certify=data.draw(st.booleans(), label="certify"))


@pytest.mark.parametrize("family", sorted(NONPLANAR_FAMILIES))
@GENERATED
@given(data=st.data())
def test_nonplanar_family_is_rejected_with_a_witness(family, data):
    check_nonplanar_input(data.draw(seeded(NONPLANAR_FAMILIES[family], 8, 60)))


@pytest.mark.parametrize("kind", ID_KINDS)
def test_ids_are_one_kind_from_a_poly_n_range(kind):
    n = 12
    graph = relabel(path_graph(n), random.Random(3), kind)
    ids = graph.nodes()
    assert len(set(ids)) == n
    assert {type(v) for v in ids} == {dict(int=int, str=str, tuple=tuple)[kind]}
    numbers = sorted(v if kind == "int" else int(v[1:]) if kind == "str" else v[1]
                     for v in ids)
    assert numbers == list(range(numbers[0], numbers[0] + n)) and numbers[0] < n
    assert graph.num_edges == n - 1 and graph.is_connected()


# kuratowski-in-planar at seed 16 (n = 84) with its ("v", k) IDs written
# as "t{k}" strings, the way an edge-list file carries them, shrunk by
# edge deletion to 26 nodes and 35 edges; networkx finds it non-planar.
INTERLEAVED_TWO_TERMINAL = [
    ("t13", "t71"), ("t13", "t36"), ("t18", "t69"), ("t36", "t69"), ("t63", "t69"),
    ("t18", "t49"), ("t9", "t18"), ("t49", "t57"), ("t29", "t49"), ("t27", "t49"),
    ("t49", "t72"), ("t57", "t68"), ("t29", "t57"), ("t57", "t72"), ("t34", "t57"),
    ("t29", "t68"), ("t27", "t29"), ("t43", "t63"), ("t34", "t67"), ("t34", "t56"),
    ("t14", "t34"), ("t45", "t67"), ("t43", "t45"), ("t6", "t45"), ("t37", "t45"),
    ("t7", "t43"), ("t23", "t43"), ("t6", "t56"), ("t44", "t56"), ("t56", "t62"),
    ("t14", "t62"), ("t33", "t62"), ("t23", "t62"), ("t33", "t37"), ("t7", "t44"),
]


@pytest.mark.parametrize(
    "graph",
    [
        Graph(edges=INTERLEAVED_TWO_TERMINAL),
        build(chorded_grid, seed=106, n=8),
        build(kuratowski_in_planar, seed=1433, n=10),
    ],
    ids=["shrunk-kuratowski-in-planar-16", "chorded-grid-106", "kuratowski-in-planar-1433"],
)
def test_nonplanar_input_with_an_interleaved_two_terminal_part(graph):
    """A two-terminal part whose walk interleaves its edges to ``i`` and
    ``j`` stays for the final merge, which rejects the network; it used
    to be discharged, and assembly raised ``AssemblyError``."""
    check_nonplanar_input(graph)


@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
def test_theorem_bound_on_the_seeded_corpus(family):
    """Theorem 1.1's rounds with the constant 16 on E34's planar corpus up
    to n = 60 (seeds 0-11, n = 5 (seed + 1))."""
    for seed in range(12):
        graph = build(PLANAR_FAMILIES[family], seed, 5 * (seed + 1))
        check_theorem_bound(check_planar_input(graph))


# hub-with-chords at seed 22 * 7919 + 9 (n = 9), IDs as their ranks,
# shrunk by edge deletion from 18 edges to 14: the run takes 203 rounds
# with D~ = 4, 16.01 times D~ min(log2 n, D~), where Theorem 1.1's check
# allows 16 (the unshrunk input: 218 rounds, 17.19).  hub-with-chords at
# seed 592 and n = 40, unshrunk: 287 rounds with D~ = 4 (17.94).  Open
# defects: each case passes once its run fits the bound.
SMALL_HUB_WITH_CHORDS = Graph(
    nodes=[2, 7, 6, 3, 8, 5, 0, 1, 4],
    edges=[
        (1, 2), (2, 4), (5, 7), (3, 6), (5, 6), (4, 6), (3, 8),
        (5, 8), (4, 8), (0, 5), (1, 5), (4, 5), (0, 1), (1, 4),
    ],
)


@pytest.mark.xfail(strict=True, reason="open defect: rounds over 16 D~ min(log2 n, D~)")
@pytest.mark.parametrize(
    "graph",
    [SMALL_HUB_WITH_CHORDS, build(PLANAR_FAMILIES["hub-with-chords"], seed=592, n=40)],
    ids=["shrunk-n9", "seed-592-n40"],
)
def test_hub_with_chords_within_theorem_bound(graph):
    check_theorem_bound(check_planar_input(graph))
