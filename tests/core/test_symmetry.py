"""Lemma 5.3 symmetry breaking: stars + color-monotone chains."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import symmetry_break
from repro.planar import Graph
from repro.planar.generators import cycle_graph, path_graph, random_outerplanar, star_graph
from tests.integration.generated import is_outerplanar


def proper_greedy_coloring(g, offset=0):
    colors = {}
    for v in sorted(g.nodes(), key=repr):
        used = {colors[u] for u in g.neighbors(v) if u in colors}
        c = offset
        while c in used:
            c += 1
        colors[v] = c
    return colors


class TestInterface:
    def test_rejects_improper_coloring(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            symmetry_break(g, {0: 1, 1: 1, 2: 0})

    def test_single_node(self):
        g = Graph(nodes=[0])
        out = symmetry_break(g, {0: 0})
        assert out.stars == []
        assert out.chains == [[0]]

    def test_star_graph_forms_star(self):
        g = star_graph(5)
        colors = {0: 0, **{i: i for i in range(1, 6)}}
        out = symmetry_break(g, colors)
        assert len(out.stars) == 1
        center, leaves = out.stars[0]
        assert center == 0
        assert len(leaves) >= 1

    def test_path_output_structure(self):
        g = path_graph(10)
        out = symmetry_break(g, {v: v % 3 if v % 3 != (v - 1) % 3 else v for v in g.nodes()}
                             if False else proper_greedy_coloring(g))
        # every node is covered by stars or chains over the contracted graph
        star_nodes = out.star_nodes()
        chain_nodes = {v for chain in out.chains for v in chain}
        leaves = {l for _, ls in out.stars for l in ls}
        assert (set(g.nodes()) - leaves) == chain_nodes


class TestLemmaProperties:
    """The structural guarantees the validation inside symmetry_break
    enforces — exercised across many random outerplanar instances."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_outerplanar(self, seed):
        rng = random.Random(seed)
        g = random_outerplanar(rng.randrange(3, 40), seed)
        assert is_outerplanar(g)
        colors = proper_greedy_coloring(g, offset=rng.randrange(3))
        out = symmetry_break(g, colors)
        # guarantees are asserted internally; check the coverage claim:
        leaves = {l for _, ls in out.stars for l in ls}
        chain_nodes = {v for chain in out.chains for v in chain}
        assert chain_nodes == set(g.nodes()) - leaves
        # stars have >= 2 members and chains carry distinct colors
        for center, ls in out.stars:
            assert len(ls) >= 1
        for chain in out.chains:
            cs = [colors[v] for v in chain]
            assert len(set(cs)) == len(cs)

    def test_steps_constant(self):
        for n in (5, 20, 45):
            g = random_outerplanar(n, n)
            out = symmetry_break(g, proper_greedy_coloring(g))
            assert out.steps <= 6

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=60),
        seed=st.integers(min_value=0, max_value=99999),
    )
    def test_hypothesis_sweep(self, n, seed):
        g = random_outerplanar(n, seed)
        colors = proper_greedy_coloring(g)
        out = symmetry_break(g, colors)
        # progress: on any graph with >= 2 nodes and >= 1 edge, something
        # pairs up — either a star exists or some chain has length >= 2.
        if g.num_edges >= 1:
            assert out.stars or any(len(c) >= 2 for c in out.chains)


class TestMergeProgress:
    def test_cycle_parts_make_progress(self):
        # colored cycle: at least half the nodes end up grouped
        g = cycle_graph(9)
        colors = proper_greedy_coloring(g)
        out = symmetry_break(g, colors)
        grouped = len(out.star_nodes()) + sum(
            len(c) for c in out.chains if len(c) >= 2
        )
        assert grouped >= 3
