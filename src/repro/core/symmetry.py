"""Symmetry breaking on the inter-part graph (paper Lemma 5.3).

Input: the inter-part graph ``G_P`` hanging off the coordinator path
``P0`` — an outerplanar graph — with a proper coloring (the
low-connection numbers: after the per-color vertex-coordinated merges,
adjacent parts have different low-connections).

Output, per the lemma's interface:

* disjoint node sets ``V_1, V_2, ...`` of size >= 2, each inducing a
  star in ``G_P``;
* a partition of the contracted graph ``G'`` into sets that each induce
  a star or form a color-distinct (monotone) path.

The paper proves an O(1)-round algorithm via coding-theoretic tools that
appear only in the unavailable full version.  We substitute a simpler
scheme that also runs in a constant number of super-rounds, five on
every input (DESIGN.md §3, substitution 2).  It uses the proper coloring
it is given as is; no color reduction runs:

* **V stars** (three super-rounds): every node points to its
  minimum-color neighbor; local color minima become centers and keep an
  independent subset of their proposers (a min-ID rule, one round).
* **G' paths** (two super-rounds): in the contracted graph every node
  again points to its minimum-color neighbor; pointers strictly decrease
  color, so the pointer graph is a forest, and each parent's ``min-ID
  child`` chains decompose it into color-monotone paths (singletons
  allowed: the lemma's "paths" include trivial ones, and the paper
  handles non-mergeable parts by separate simpler schemes anyway).

The returned ``steps`` counts synchronous super-rounds on ``G_P``; each
super-round costs O(max part diameter) real rounds by Remark 1, which
the caller charges.  Experiment E7 measures that a constant fraction of
the parts is grouped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..planar.graph import Graph, NodeId

__all__ = ["StarPathDecomposition", "symmetry_break"]


@dataclass
class StarPathDecomposition:
    """Output of the Lemma 5.3 algorithm."""

    stars: list[tuple[NodeId, list[NodeId]]] = field(default_factory=list)  # (center, leaves)
    chains: list[list[NodeId]] = field(default_factory=list)  # color-monotone paths in G'
    steps: int = 0  # synchronous super-rounds on the inter-part graph

    def star_nodes(self) -> set[NodeId]:
        covered: set[NodeId] = set()
        for center, leaves in self.stars:
            covered.add(center)
            covered.update(leaves)
        return covered


def _min_color_neighbor(
    graph: Graph, colors: dict[NodeId, int], v: NodeId
) -> NodeId | None:
    """The neighbor with the smallest (color, id) strictly below ``v``'s color."""
    best = None
    for u in graph.neighbors(v):
        if colors[u] < colors[v] and (
            best is None or (colors[u], repr(u)) < (colors[best], repr(best))
        ):
            best = u
    return best


def _independent_subset(graph: Graph, candidates: list[NodeId]) -> list[NodeId]:
    """One-round independent refinement: keep nodes with no smaller-ID
    candidate neighbor (two kept nodes cannot be adjacent)."""
    cset = set(candidates)
    kept = []
    for v in candidates:
        if not any(u in cset and repr(u) < repr(v) for u in graph.neighbors(v)):
            kept.append(v)
    return kept


def symmetry_break(
    graph: Graph, colors: dict[NodeId, int]
) -> StarPathDecomposition:
    """Run the Lemma 5.3 decomposition; see the module docstring."""
    for u, v in graph.edges():
        if colors[u] == colors[v]:
            raise ValueError(f"coloring is not proper on edge {u!r}-{v!r}")

    out = StarPathDecomposition()

    # --- Phase 1: V stars around local color minima. --------------------
    proposal: dict[NodeId, NodeId] = {}
    for v in graph.nodes():
        target = _min_color_neighbor(graph, colors, v)
        if target is not None:
            proposal[v] = target
    out.steps += 1  # everyone announces color; proposals are local

    proposers: dict[NodeId, list[NodeId]] = {}
    for v, c in proposal.items():
        if c not in proposal:  # center must be a local color minimum
            proposers.setdefault(c, []).append(v)
    out.steps += 1  # centers learn their proposers

    contracted_into: dict[NodeId, NodeId] = {}
    for center in sorted(proposers, key=repr):
        leaves = _independent_subset(graph, sorted(proposers[center], key=repr))
        if leaves:
            out.stars.append((center, leaves))
            for leaf in leaves:
                contracted_into[leaf] = center
    out.steps += 1  # the independence refinement round

    # --- Phase 2: contract stars, decompose G' into monotone chains. ----
    contracted = Graph()
    rep = {v: contracted_into.get(v, v) for v in graph.nodes()}
    for v in graph.nodes():
        contracted.add_node(rep[v])
    for u, v in graph.edges():
        if rep[u] != rep[v]:
            contracted.add_edge(rep[u], rep[v])

    pointer: dict[NodeId, NodeId] = {}
    for v in contracted.nodes():
        target = _min_color_neighbor(contracted, colors, v)
        if target is not None:
            pointer[v] = target
    out.steps += 1

    # min-ID child chains: each parent keeps its smallest-ID pointer child.
    children: dict[NodeId, list[NodeId]] = {}
    for v, p in pointer.items():
        children.setdefault(p, []).append(v)
    chain_child: dict[NodeId, NodeId] = {
        p: min(cs, key=repr) for p, cs in children.items()
    }
    chain_parent = {c: p for p, c in chain_child.items()}
    out.steps += 1

    visited: set[NodeId] = set()
    for v in contracted.nodes():
        if v in visited:
            continue
        if v in chain_parent:  # not a chain head
            continue
        chain = [v]
        visited.add(v)
        cur = v
        while cur in chain_child:
            cur = chain_child[cur]
            chain.append(cur)
            visited.add(cur)
        out.chains.append(chain)
    leftovers = [v for v in contracted.nodes() if v not in visited]
    for v in leftovers:  # pragma: no cover - every node is head or in a chain
        out.chains.append([v])

    # --- Validate the lemma's guarantees (cheap, structural). -----------
    star_nodes: set[NodeId] = set()
    for center, leaves in out.stars:
        if len(leaves) < 1:
            raise AssertionError("star smaller than two nodes")
        members = [center, *leaves]
        if any(m in star_nodes for m in members):
            raise AssertionError("V stars are not disjoint")
        star_nodes.update(members)
        for i, a in enumerate(leaves):
            if not graph.has_edge(center, a):
                raise AssertionError("star leaf not adjacent to center")
            for b in leaves[i + 1 :]:
                if graph.has_edge(a, b):
                    raise AssertionError("star is not induced")
    seen_chain: set[NodeId] = set()
    for chain in out.chains:
        chain_colors = [colors[v] for v in chain]
        if len(set(chain_colors)) != len(chain_colors):
            raise AssertionError("chain repeats a color")
        for a, b in zip(chain, chain[1:]):
            if not contracted.has_edge(a, b):
                raise AssertionError("chain is not a path in G'")
        for v in chain:
            if v in seen_chain:
                raise AssertionError("chains are not disjoint")
            seen_chain.add(v)
    if seen_chain != set(contracted.nodes()):
        raise AssertionError("chains do not partition G'")
    return out
