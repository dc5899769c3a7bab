"""Unit coverage for the hot-path caching layers.

Two independent caches keep the pipeline fast while provably changing
nothing observable:

* ``RotationSystem.trusted`` — skips permutation validation for orders
  that are permutations by construction;
* the LR kernel's structural memo — int-level rotations keyed by the
  insertion-order adjacency structure, shared across isomorphic
  relabelings.  Decisions bypass it.
"""

import importlib

import pytest

from repro.planar.graph import Graph

# The package __init__ rebinds the ``lr_planarity`` attribute to the
# function of the same name; go through importlib for the module itself.
lr_mod = importlib.import_module("repro.planar.lr_planarity")
from repro.planar.generators import complete_bipartite, grid_graph
from repro.planar.kuratowski import kuratowski_subgraph
from repro.planar.lr_planarity import is_planar, lr_planarity
from repro.planar.rotation import RotationSystem
from repro.planar.verify import verify_planar_embedding


# -- RotationSystem.trusted -------------------------------------------------


def test_trusted_skips_validation_but_behaves_identically():
    g = Graph(edges=[(0, 1), (1, 2), (2, 0)])
    order = {0: (1, 2), 1: (2, 0), 2: (0, 1)}
    checked = RotationSystem(g, order)
    trusted = RotationSystem.trusted(g, order)
    for v in (0, 1, 2):
        assert trusted.order(v) == checked.order(v)
        for u in trusted.order(v):
            assert trusted.next_after(v, u) == checked.next_after(v, u)
    assert trusted.genus() == checked.genus() == 0


def test_trusted_does_not_validate_and_plain_constructor_does():
    g = Graph(edges=[(0, 1), (1, 2), (2, 0)])
    bad = {0: (1,), 1: (2, 0), 2: (0, 1)}  # 0's ring is not a permutation
    with pytest.raises(ValueError):
        RotationSystem(g, bad)
    RotationSystem.trusted(g, bad)  # by-construction caller: no check


# -- LR structural memo -----------------------------------------------------


def _fresh_lr_caches(monkeypatch):
    monkeypatch.setattr(lr_mod, "_EMBED_MEMO", {})


def _star(center, leaves):
    g = Graph()
    g.add_node(center)
    for leaf in leaves:
        g.add_edge(center, leaf)
    return g


def test_isomorphic_relabelings_share_one_memo_entry(monkeypatch):
    _fresh_lr_caches(monkeypatch)
    r1 = lr_planarity(_star("a", ["x", "y", "z"]))
    assert len(lr_mod._EMBED_MEMO) == 1
    r2 = lr_planarity(_star(("v", 9), [("v", 1), ("v", 5), ("v", 7)]))
    assert len(lr_mod._EMBED_MEMO) == 1  # second call was a structural hit
    # The memoized int rotations map back through each graph's own
    # labels: r2 is exactly r1 under the insertion-order correspondence.
    relabel = {"a": ("v", 9), "x": ("v", 1), "y": ("v", 5), "z": ("v", 7)}
    for v in ("a", "x", "y", "z"):
        assert r2.order(relabel[v]) == tuple(relabel[u] for u in r1.order(v))
    # Both are genuine embeddings of their own graphs.
    verify_planar_embedding(r1.graph, {v: r1.order(v) for v in r1.graph.nodes()})
    verify_planar_embedding(r2.graph, {v: r2.order(v) for v in r2.graph.nodes()})


def test_memo_hit_equals_cold_result(monkeypatch):
    # The same graph embedded cold and through the memo must agree exactly.
    def build():
        g = Graph()
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]:
            g.add_edge(u, v)
        return g  # K4

    _fresh_lr_caches(monkeypatch)
    cold = lr_planarity(build())
    warm = lr_planarity(build())
    assert all(cold.order(v) == warm.order(v) for v in build().nodes())


def test_nonplanar_verdict_is_memoized_and_shared(monkeypatch):
    _fresh_lr_caches(monkeypatch)

    def k5(labels):
        g = Graph()
        for i, u in enumerate(labels):
            for v in labels[i + 1:]:
                g.add_edge(u, v)
        return g

    assert lr_planarity(k5([0, 1, 2, 3, 4])) is None
    assert len(lr_mod._EMBED_MEMO) == 1
    assert lr_planarity(k5(["a", "b", "c", "d", "e"])) is None
    assert len(lr_mod._EMBED_MEMO) == 1
    assert is_planar(k5([10, 11, 12, 13, 14])) is False


def test_witness_search_leaves_the_memo_tables_alone():
    # Every query of the Kuratowski search is a new structure (one edge
    # removed, or re-added at the back of the adjacency), so a memo
    # would only grow there: decisions are not memoized at all.
    g = grid_graph(4, 4)
    for u, v in complete_bipartite(3, 3).edges():
        g.add_edge(100 + u, 100 + v)
    g.add_edge(0, 100)
    tables = {
        name: value for name, value in vars(lr_mod).items()
        if name.endswith("_MEMO") and isinstance(value, dict)
    }
    assert "_EMBED_MEMO" in tables
    before = {name: dict(table) for name, table in tables.items()}
    assert kuratowski_subgraph(g).num_edges == 9
    assert {name: dict(table) for name, table in tables.items()} == before


def test_different_insertion_orders_get_distinct_entries(monkeypatch):
    # Same abstract graph, different adjacency insertion order: distinct
    # structures, distinct (but each self-consistent) memo entries.
    _fresh_lr_caches(monkeypatch)
    g1 = Graph(edges=[(0, 1), (0, 2), (1, 2)])
    g2 = Graph(edges=[(1, 2), (0, 2), (0, 1)])
    r1, r2 = lr_planarity(g1), lr_planarity(g2)
    assert len(lr_mod._EMBED_MEMO) == 2
    for g, r in ((g1, r1), (g2, r2)):
        verify_planar_embedding(g, {v: r.order(v) for v in g.nodes()})


def test_memo_caps_and_clears(monkeypatch):
    _fresh_lr_caches(monkeypatch)
    monkeypatch.setattr(lr_mod, "_MEMO_MAX_ENTRIES", 3)
    for size in range(3, 12):
        assert lr_planarity(_star(0, list(range(1, size)))) is not None
    assert len(lr_mod._EMBED_MEMO) <= 3
