"""Seeded input generators and per-input checks (property tests, E34).

Every generator is a plain function of a ``random.Random`` and a target
size ``n``, so a seed reproduces its input exactly; :func:`seeded` wraps
one as a Hypothesis strategy over seeds and sizes.  networkx is the
planarity oracle inside the generators, never the library's LR kernel,
so a generator cannot inherit a kernel defect.

Node IDs are one kind per graph, drawn from the CONGEST model's poly(n)
range (:func:`relabel`): a permutation of ``range(n)`` plus an offset
below ``n``, as ints, as ``f"v{k}"`` strings or as ``("v", k)`` tuples.

:func:`check_planar_input` and :func:`check_nonplanar_input` are the
per-input checks: the paper's Lemma 4.2 part sizes and Lemma 4.3 depth
on every recursive call of a planar run, a networkx-valid output, and
for a non-planar input a typed rejection with a checked Kuratowski
witness.  :func:`check_theorem_bound` adds Theorem 1.1's rounds on the
fixed seeded corpora.
"""

from __future__ import annotations

import math
import random

import networkx as nx
from hypothesis import strategies as st

from repro import distributed_planar_embedding
from repro.core import NonPlanarNetworkError
from repro.planar.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_planar,
)
from repro.planar.graph import Graph
from repro.planar.kuratowski import classify_kuratowski, kuratowski_subgraph

ID_KINDS = ("int", "str", "tuple")
_MAKE_ID = {"int": int, "str": "v{}".format, "tuple": lambda k: ("v", k)}


def _is_planar(nxg: nx.Graph) -> bool:
    return nx.check_planarity(nxg)[0]


def is_outerplanar(graph: Graph) -> bool:
    """True iff ``graph`` is outerplanar: the graph plus one apex joined
    to every vertex is planar (networkx's test, not the library's)."""
    index = {v: i for i, v in enumerate(graph.nodes())}
    nxg = nx.Graph((index[u], index[v]) for u, v in graph.edges())
    nxg.add_edges_from((-1, i) for i in index.values())
    return _is_planar(nxg)


def _from_networkx(nxg: nx.Graph) -> Graph:
    return Graph(nodes=nxg.nodes(), edges=nxg.edges())


def _add_while_planar(nxg: nx.Graph, candidates) -> None:
    """Add each candidate edge that is new and keeps ``nxg`` planar."""
    for u, v in candidates:
        if u == v or nxg.has_edge(u, v):
            continue
        nxg.add_edge(u, v)
        if not _is_planar(nxg):
            nxg.remove_edge(u, v)


# -- planar families -----------------------------------------------------


def tree_plus_edges(rng: random.Random, n: int) -> Graph:
    """A random spanning tree plus random edges, each kept only while
    networkx finds the graph planar.  Each vertex hangs off one of the
    ``window`` vertices before it, so the tree runs from bushy to deep."""
    window = rng.choice((2, 8, n))
    nxg = nx.Graph()
    nxg.add_node(0)
    for v in range(1, n):
        nxg.add_edge(v, rng.randrange(max(0, v - window), v))
    if n >= 3:
        _add_while_planar(
            nxg, (rng.sample(range(n), 2) for _ in range(rng.randrange(3 * n)))
        )
    return _from_networkx(nxg)


def block_chain(rng: random.Random, n: int) -> Graph:
    """A cut-vertex chain of random planar blocks (bridges, cycles,
    outerplanar and maximal planar blocks): each block shares one vertex
    with the block before it."""
    g = Graph(nodes=[0])
    joint = 0
    while g.num_nodes < n:
        k = rng.randint(2, max(2, min(12, n - g.num_nodes + 1)))
        seed = rng.getrandbits(32)
        if k == 2:
            block = path_graph(2)
        else:
            block = rng.choice(
                (cycle_graph, lambda k: random_outerplanar(k, seed),
                 lambda k: random_maximal_planar(k, seed))
            )(k)
        base = g.num_nodes - 1
        ids = {b: (joint if b == 0 else base + b) for b in range(k)}
        for u, v in block.edges():
            g.add_edge(ids[u], ids[v])
        joint = ids[rng.randrange(1, k)]
    return g


def hub_with_chords(rng: random.Random, n: int) -> Graph:
    """A high-degree hub joined to most of an outerplanar rim: the rim's
    chords are non-crossing and every rim vertex is on the rim's outer
    face, where the hub sits."""
    rim = max(3, n - 1)
    g = random_outerplanar(
        rim, seed=rng.getrandbits(32), extra_chords=rng.randrange(rim - 2)
    )
    for v in range(rim):
        if v == 0 or rng.random() < 0.8:
            g.add_edge(rim, v)
    return g


def path_with_chords(rng: random.Random, n: int) -> Graph:
    """A long path with short chords (span 2 or 3), each kept only while
    networkx finds the graph planar: D stays near n/3 or more."""
    nxg = nx.path_graph(max(2, n))
    if n >= 3:
        spans = ((i, min(n - 1, i + rng.randint(2, 3))) for i in
                 (rng.randrange(n - 2) for _ in range(rng.randrange(n))))
        _add_while_planar(nxg, spans)
    return _from_networkx(nxg)


def caterpillar(rng: random.Random, n: int) -> Graph:
    """A spine path with a random number of legs at each spine vertex."""
    spine = rng.randint(1, max(1, n // 2))
    g = path_graph(spine)
    for leg in range(spine, n):
        g.add_edge(rng.randrange(spine), leg)
    return g


def subdivided_maximal(rng: random.Random, n: int) -> Graph:
    """A random maximal planar graph on k vertices whose 3k - 6 edges are
    each subdivided 0-3 times: about n = 5.5k - 9 vertices in all."""
    k = max(3, round((n + 9) / 5.5))
    base = random_maximal_planar(k, seed=rng.getrandbits(32))
    g = Graph(nodes=base.nodes())
    nxt = k
    for u, v in base.edges():
        prev = u
        for _ in range(rng.randrange(4)):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, v)
    return g


PLANAR_FAMILIES = {
    "tree-plus-edges": tree_plus_edges,
    "block-chain": block_chain,
    "hub-with-chords": hub_with_chords,
    "path-with-chords": path_with_chords,
    "caterpillar": caterpillar,
    "subdivided-maximal": subdivided_maximal,
}


# -- non-planar families ---------------------------------------------------


def kuratowski_in_planar(rng: random.Random, n: int) -> Graph:
    """A K5 or K3,3 whose edges become paths of 1-3 edges, joined to a
    ``random_planar`` base by 1-3 edges (the ROADMAP recipe after
    Levi-Medina-Ron, arXiv:1805.10657)."""
    core = complete_graph(5) if rng.random() < 0.5 else complete_bipartite(3, 3)
    base_n = max(4, n - 3 * core.num_edges)
    g = random_planar(base_n, seed=rng.getrandbits(32))
    ids = {v: base_n + v for v in core.nodes()}
    nxt = base_n + core.num_nodes
    for u, v in core.edges():
        prev = ids[u]
        for _ in range(rng.randrange(3)):
            g.add_edge(prev, nxt)
            prev = nxt
            nxt += 1
        g.add_edge(prev, ids[v])
    for _ in range(rng.randint(1, 3)):
        g.add_edge(rng.randrange(base_n), rng.choice(list(ids.values())))
    return g


def chorded_grid(rng: random.Random, n: int) -> Graph:
    """A grid with random chords added until networkx finds it
    non-planar."""
    rows = max(3, math.isqrt(n))
    cols = max(3, n // rows)
    nxg = nx.Graph(grid_graph(rows, cols).edges())
    nodes = list(nxg.nodes())
    while _is_planar(nxg):
        nxg.add_edge(*rng.sample(nodes, 2))
    return _from_networkx(nxg)


NONPLANAR_FAMILIES = {
    "kuratowski-in-planar": kuratowski_in_planar,
    "chorded-grid": chorded_grid,
}


# -- node IDs and strategies ------------------------------------------------


def relabel(graph: Graph, rng: random.Random, kind: str | None = None) -> Graph:
    """``graph`` with IDs of one ``kind`` (drawn when ``None``): vertex
    ``i`` becomes ``perm[i] + offset``, with ``perm`` a permutation of
    ``range(n)`` and ``offset < n``, as an int, ``f"v{k}"`` or ``("v", k)``."""
    kind = kind or rng.choice(ID_KINDS)
    n = graph.num_nodes
    perm = list(range(n))
    rng.shuffle(perm)
    offset = rng.randrange(n)
    make = _MAKE_ID[kind]
    new = {v: make(perm[i] + offset) for i, v in enumerate(graph.nodes())}
    return relabeled(graph, new.__getitem__)


def relabeled(graph: Graph, f) -> Graph:
    """``graph`` with each ID ``v`` replaced by ``f(v)``, insertion order kept."""
    return Graph(nodes=map(f, graph.nodes()), edges=[(f(u), f(v)) for u, v in graph.edges()])


def as_ranks(graph: Graph) -> Graph:
    """``graph`` with each ID replaced by its rank in sorted ID order."""
    rank = {v: r for r, v in enumerate(sorted(graph.nodes()))}
    return relabeled(graph, rank.__getitem__)


def build(generator, seed: int, n: int) -> Graph:
    """The input ``generator`` makes from ``seed`` at size ``n``, relabeled."""
    rng = random.Random(seed)
    return relabel(generator(rng, n), rng)


def seeded(generator, min_n: int, max_n: int):
    """``generator`` as a Hypothesis strategy over seeds and sizes
    (shrinking goes toward smaller sizes and seeds)."""
    return st.builds(
        lambda seed, n: build(generator, seed, n),
        st.integers(0, 2**32 - 1),
        st.integers(min_n, max_n),
    )


# -- per-input checks --------------------------------------------------------


def networkx_accepts(graph: Graph, rotation: dict) -> bool:
    """Whether networkx accepts ``rotation`` as a planar embedding of
    exactly ``graph``'s edges."""
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(ring) for v, ring in rotation.items()})
    try:
        embedding.check_structure()
    except nx.NetworkXException:
        return False
    edges = {frozenset(e) for e in embedding.edges()}
    return edges == {frozenset(e) for e in graph.edges()}


def theorem_ratio(result) -> float:
    """The run's embedding rounds over ``D~ min(max(1, log2 n), D~)``:
    Theorem 1.1's bound without its constant.  Certification's own rounds
    (the ``certify:*`` phases, appended after the embedding) are left out."""
    rounds = result.rounds - sum(
        r for phase, r in result.metrics.phase_rounds.items() if phase.startswith("certify:")
    )
    d = result.diameter_upper
    return rounds / (d * min(max(1.0, math.log2(result.graph.num_nodes)), d)) if d else rounds


def check_theorem_bound(result) -> None:
    """Theorem 1.1 with the constant 16: the embedding's rounds are at
    most ``16 D~ min(max(1, log2 n), D~)``, with ``D~`` the run's
    ``diameter_upper`` (the 2-approximation of the diameter the nodes
    learn).  E34's corpus and tier-1's seeded corpus assert it on every
    input.  The Hypothesis properties do not: about one
    ``hub-with-chords`` input in a thousand breaks it, so a draw would
    fail at random; the strict-xfail cases in ``test_generated.py`` hold
    such inputs until the runs fit the bound."""
    assert theorem_ratio(result) <= 16, (
        result.rounds, result.diameter_upper, result.graph.num_nodes
    )


def check_planar_input(graph: Graph, certify: bool = False):
    """Embed ``graph`` and assert the paper's bounds on the run; returns
    the :class:`~repro.core.EmbeddingResult`.

    - networkx accepts the output as an embedding of exactly the input;
    - Lemma 4.2: in every call with hanging parts the largest part has at
      most 2/3 of the call's subtree, and ``|P0| <= depth(T_s) + 1``;
    - Lemma 4.3: recursion depth at most ``log_1.5(n) + 2`` and at most
      the BFS depth + 2;
    - rounds at most ``120 n`` (Theorem 1.1's own bound is
      :func:`check_theorem_bound`);
    - with ``certify``, every node accepts the certificate.
    """
    n = graph.num_nodes
    result = distributed_planar_embedding(graph, certify=certify)
    assert networkx_accepts(graph, result.rotation), "networkx rejects the output"
    for record in result.trace:
        if record.part_sizes:
            assert 3 * max(record.part_sizes) <= 2 * record.subtree_size, record
            assert record.p0_length <= record.subtree_depth + 1, record
    assert result.recursion_depth <= math.log(max(n, 2), 1.5) + 2
    assert result.recursion_depth <= result.bfs_depth + 2
    assert result.rounds <= 120 * n
    if certify:
        assert result.certification.accepted, result.certification.rejections[:3]
    return result


def check_nonplanar_input(graph: Graph) -> str:
    """Assert that the run rejects ``graph`` with
    :class:`NonPlanarNetworkError` and that its Kuratowski witness is a
    subgraph of the input, names K5 or K3,3, and is edge-minimal
    non-planar by networkx; returns the witness kind."""
    try:
        distributed_planar_embedding(graph)
    except NonPlanarNetworkError:
        pass
    else:
        raise AssertionError("a non-planar input was embedded")
    witness = kuratowski_subgraph(graph)
    assert set(witness.nodes()) <= set(graph.nodes())
    assert all(graph.has_edge(u, v) for u, v in witness.edges())
    kind = classify_kuratowski(witness)
    assert kind in ("K5", "K3,3")
    nxw = nx.Graph(witness.edges())
    assert not _is_planar(nxw)
    for e in witness.edges():
        nxw.remove_edge(*e)
        assert _is_planar(nxw), f"dropping {e} leaves the witness non-planar"
        nxw.add_edge(*e)
    return kind
