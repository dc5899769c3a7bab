"""The benchmark's workloads: seeded inputs, the timed op, output checks.

Every workload is a closed loop with one caller: the next op starts
when the previous one returns.  Inputs are a pure function of the
workload name, ``--seed`` and the op index (string-seeded
``random.Random``), so two commits run identical op sequences.

* ``outerplanar`` embeds a fresh ``random_outerplanar(512)`` per op: a
  biconnected input on which the split oracle and the LR kernel carry
  the run (the bypass workload for simulator and primitive changes).
* ``subdivided`` embeds ``subdivide(random_maximal_planar(16), s)``, the
  paper's footnote-1 lower-bound graph generalised to random bases.
  ``s`` runs through a seeded shuffle of 16..32 in blocks of 17 ops, so
  every run sees the same mix of diameters: cost is set by D, not by
  split validation.
* ``certify-churn`` keeps one ``DynamicCertifiedEmbedding`` of a fixed
  ``random_planar(768)`` certified under a seeded stream of face-chord
  inserts and non-bridge deletes (writes); every 8th op is a full
  distributed ``certification()`` (a read).  Consecutive ops share
  nearly all state, and ``planar``/``core`` only run on a rebuild.

Checks run outside the timed region: every embedding (and every churn
state a read certified) is loaded into ``networkx.PlanarEmbedding``,
must pass ``check_structure()`` and must cover exactly the input's edge
set; every patch and every certification must be accepted.
"""

from __future__ import annotations

import random

SIZES = {
    "outerplanar": {
        "full": {"n": 512, "min_ops": 18, "warmup_n": 64},
        "smoke": {"n": 40, "min_ops": 3, "warmup_n": 12},
    },
    "subdivided": {
        "full": {"base_n": 16, "s_lo": 16, "s_hi": 32, "min_ops": 34, "warmup_s": 3},
        "smoke": {"base_n": 6, "s_lo": 2, "s_hi": 4, "min_ops": 3, "warmup_s": 2},
    },
    "certify-churn": {
        "full": {"n": 768, "min_ops": 256, "read_every": 8},
        "smoke": {"n": 48, "min_ops": 16, "read_every": 8},
    },
}

COUNTERS = (
    "rounds", "messages", "words", "activations", "activations_saved",
    "split_tests", "split_rejections", "oracle_full", "oracle_scoped", "oracle_memo_hits",
    "core_calls", "merge_fallbacks", "patch_ops", "patched", "rebuilds",
)


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def check_embedding(edges, rotation) -> str | None:
    """Independent check with networkx; returns a failure message or None."""
    import networkx as nx

    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: list(order) for v, order in rotation.items()})
    try:
        embedding.check_structure()
    except nx.NetworkXException as exc:
        return f"not a planar embedding: {exc}"
    got = {frozenset(e) for e in embedding.to_undirected().edges()}
    want = {frozenset(e) for e in edges}
    if got != want:
        return f"edge set differs from the input ({len(got ^ want)} edges)"
    return None


class EmbedWorkload:
    """One ``distributed_planar_embedding`` of a fresh input per op;
    subclasses make the inputs."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.cfg = SIZES[name]["smoke" if smoke else "full"]
        self.min_ops = self.cfg["min_ops"]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._outputs: list[tuple[list, dict]] = []

    def setup(self) -> None:
        from repro import distributed_planar_embedding
        from repro.planar import generators

        self._gen = generators
        self._embed = distributed_planar_embedding
        self._inputs = [self._make(i) for i in range(self.min_ops)]
        self._embed(self._make("warmup"))

    def _make(self, i):
        """The input of op ``i`` (or of the warm-up op)."""
        raise NotImplementedError

    def op_input(self, i: int):
        return self._inputs[i] if i < len(self._inputs) else self._make(i)

    def run_op(self, graph):
        return self._embed(graph)

    def record(self, graph, result) -> tuple[int, int, str | None]:
        """Counters for one op; returns (rounds, words, inline failure)."""
        c = self.counters
        m = result.metrics
        c["rounds"] += m.rounds
        c["messages"] += m.messages
        c["words"] += m.total_words
        c["activations"] += m.node_activations
        c["activations_saved"] += m.activations_saved
        c["split_tests"] += result.split_tests
        c["split_rejections"] += result.split_rejections
        oracle = result.split_oracle or {}
        c["oracle_full"] += oracle.get("full_tests", 0)
        c["oracle_scoped"] += oracle.get("scoped_tests", 0)
        c["oracle_memo_hits"] += oracle.get("memo_hits", 0)
        c["core_calls"] += len(result.trace)
        c["merge_fallbacks"] += result.merge_fallbacks
        self._outputs.append((graph.edges(), result.rotation))
        return m.rounds, m.total_words, None

    def check(self) -> list[tuple[int, str]]:
        """(op index, failure) for every output networkx rejects."""
        failures = []
        for i, (edges, rotation) in enumerate(self._outputs):
            problem = check_embedding(edges, rotation)
            if problem:
                failures.append((i, problem))
        return failures


class OuterplanarWorkload(EmbedWorkload):
    def _make(self, i):
        n = self.cfg["warmup_n" if i == "warmup" else "n"]
        return self._gen.random_outerplanar(n, seed=_rng(self.name, self.seed, i).getrandbits(32))


class SubdividedWorkload(EmbedWorkload):
    def _make(self, i):
        lo, hi = self.cfg["s_lo"], self.cfg["s_hi"]
        if i == "warmup":
            segments = self.cfg["warmup_s"]
        else:
            block, pos = divmod(i, hi - lo + 1)
            order = _rng(self.name, self.seed, "block", block).sample(range(lo, hi + 1),
                                                                      hi - lo + 1)
            segments = order[pos]
        base = self._gen.random_maximal_planar(
            self.cfg["base_n"], seed=_rng(self.name, self.seed, i).getrandbits(32))
        return self._gen.subdivide(base, segments)


def _face_walk(rotation, u, x) -> list[tuple]:
    """The face walk of the embedding that contains dart ``(u, x)``."""
    walk = [(u, x)]
    a, b = u, x
    while True:
        ring = rotation[b]
        a, b = b, ring[(ring.index(a) + 1) % len(ring)]
        if (a, b) == (u, x):
            return walk
        walk.append((a, b))


class ChurnWorkload:
    """Seeded insert/delete patches on one certified embedding, plus reads."""

    name = "certify-churn"

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.cfg = SIZES[name]["smoke" if smoke else "full"]
        self.min_ops = self.cfg["min_ops"]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._snapshots: list[tuple[int, list, dict]] = []
        self._last_op = -1

    def setup(self) -> None:
        from repro.certify.delta import DynamicCertifiedEmbedding
        from repro.planar.generators import random_planar

        # One base graph for every seed: patch and verification rounds grow
        # with the certificate tree's height, which differs by up to half
        # between random graphs of this size, so a per-seed graph would
        # swamp every per-op count.  The seed drives the op stream.
        graph_seed = _rng(self.name, "graph").getrandbits(32)
        self.engine = DynamicCertifiedEmbedding(random_planar(self.cfg["n"], seed=graph_seed))
        if not self.engine.certification().accepted:
            raise RuntimeError("initial certification rejected")
        self._rng = _rng(self.name, self.seed, "ops")

    def op_input(self, i: int) -> tuple:
        eng = self.engine
        self._before = (eng.metrics.rounds, eng.metrics.messages, eng.metrics.total_words,
                        eng.metrics.node_activations, eng.metrics.activations_saved,
                        dict(eng.stats))
        if (i + 1) % self.cfg["read_every"] == 0:
            return ("certify", i)
        first, second = self._propose_insert, self._propose_delete
        if self._rng.random() >= 0.5:
            first, second = second, first
        op = first() or second()
        if op is None:
            raise RuntimeError("no insert or delete possible")
        return op

    def _propose_insert(self):
        rotation, graph = self.engine.rotation, self.engine.graph
        nodes = graph.nodes()
        for _ in range(8):
            u = self._rng.choice(nodes)
            x = self._rng.choice(rotation[u])
            candidates = sorted(
                {s for s, _ in _face_walk(rotation, u, x) if s != u and not graph.has_edge(u, s)},
                key=repr,
            )
            if candidates:
                return ("insert", u, self._rng.choice(candidates))
        return None

    def _propose_delete(self):
        rotation, graph = self.engine.rotation, self.engine.graph
        edges = graph.edges()
        if len(edges) < graph.num_nodes:
            return None  # a tree: every edge is a bridge
        for _ in range(8):
            a, b = self._rng.choice(edges)
            if (b, a) not in _face_walk(rotation, a, b):
                return ("delete", a, b)
        return None

    def run_op(self, op):
        if op[0] == "certify":
            return self.engine.certification()
        if op[0] == "insert":
            return self.engine.insert_edge(op[1], op[2])
        return self.engine.delete_edge(op[1], op[2])

    def record(self, op, out) -> tuple[int, int, str | None]:
        eng, c = self.engine, self.counters
        rounds0, messages0, words0, act0, saved0, stats0 = self._before
        rounds = eng.metrics.rounds - rounds0
        words = eng.metrics.total_words - words0
        c["rounds"] += rounds
        c["messages"] += eng.metrics.messages - messages0
        c["words"] += words
        c["activations"] += eng.metrics.node_activations - act0
        c["activations_saved"] += eng.metrics.activations_saved - saved0
        c["patch_ops"] += eng.stats["ops"] - stats0["ops"]
        c["patched"] += eng.stats["patched"] - stats0["patched"]
        c["rebuilds"] += (eng.stats["cert_rebuilds"] + eng.stats["embed_rebuilds"]
                          - stats0["cert_rebuilds"] - stats0["embed_rebuilds"])
        self._last_op += 1
        if op[0] == "certify":
            self._snapshots.append((op[1], eng.graph.edges(), dict(eng.rotation)))
        if not out.accepted:
            return rounds, words, f"{op[0]} {op[1:]!r} rejected"
        return rounds, words, None

    def check(self) -> list[tuple[int, str]]:
        """(op index, failure) for every certified state networkx rejects;
        the final state is charged to the last op."""
        failures = []
        final = (self._last_op, self.engine.graph.edges(), dict(self.engine.rotation))
        for i, edges, rotation in [*self._snapshots, final]:
            problem = check_embedding(edges, rotation)
            if problem:
                failures.append((i, f"state after op {i}: {problem}"))
        return failures


WORKLOADS = {
    "outerplanar": OuterplanarWorkload,
    "subdivided": SubdividedWorkload,
    "certify-churn": ChurnWorkload,
}


def make(name: str, seed: int, smoke: bool):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](name, seed, smoke)
