"""Differential suite: the round loop is metrics-identical under the
event and dense poll policies.

Every program family, the certification round-trip, and the full
``embed_planar`` pipeline run under both policies on the same inputs;
results, round counts, message counts, word totals, and the per-phase
breakdown must match exactly.  Activation counters are the *only*
permitted divergence — they are what the event policy optimizes — and
even those obey a conservation law: ``node_activations +
activations_saved`` is the same under both policies, and the dense
policy saves only the calls it skips on crashed nodes
(``FaultStats.crash_node_rounds``; zero on a fault-free run).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.congest import (
    CongestError,
    CongestNetwork,
    CrashWindow,
    FaultPlan,
    NodeProgram,
    RoundLimitExceededError,
    RoundMetrics,
    default_scheduler,
    fault_override,
    run_program,
    scheduler_override,
)
from repro.congest.message import payload_words
from repro.core import distributed_planar_embedding
from repro.obs import Tracer
from repro.planar import generators
from repro.primitives.aggregation import tree_aggregate, tree_broadcast
from repro.primitives.bfs import build_bfs_tree
from repro.primitives.leader import elect_leader
from repro.primitives.splitter import find_splitter


def fingerprint(m: RoundMetrics) -> dict:
    """Everything two schedulers must agree on (activations excluded)."""
    phases = {
        phase: {k: v for k, v in row.items() if not k.startswith("activations")}
        for phase, row in m.phase_breakdown().items()
    }
    return {
        "rounds": m.rounds,
        "messages": m.messages,
        "total_words": m.total_words,
        "max_words_edge_round": m.max_words_edge_round,
        "phases": phases,
    }


def both_schedulers(run):
    """Run ``run(metrics)`` under each scheduler; return both outcomes."""
    out = {}
    for scheduler in ("dense", "event"):
        with scheduler_override(scheduler):
            m = RoundMetrics()
            out[scheduler] = (run(m), m)
    return out["dense"], out["event"]


GRAPHS = {
    "grid": lambda: generators.grid_graph(5, 7),
    "trigrid": lambda: generators.triangulated_grid(4, 6),
    "cycle": lambda: generators.cycle_graph(17),
    "outerplanar": lambda: generators.random_outerplanar(30, seed=3),
    "maximal": lambda: generators.random_maximal_planar(24, seed=7),
    "tree": lambda: generators.random_tree(33, seed=1),
}


def _leader(graph, m):
    return elect_leader(graph, metrics=m)


def _bfs(graph, m):
    t = build_bfs_tree(graph, max(graph.nodes()), metrics=m)
    return (t.parent, t.children, t.depth_of)


PRIMITIVES = {"leader": _leader, "bfs": _bfs}

LOOP_BRANCH_PLANS = {
    "A-round-1-crash": lambda victim: FaultPlan(
        seed=8, crashes=(CrashWindow(1, 5, node=victim),)
    ),
    "B-crash-and-delays": lambda victim: FaultPlan(
        seed=8, delay_rate=0.2, max_delay=3, crashes=(CrashWindow(1, 5, node=victim),)
    ),
    "C-drops": lambda victim: FaultPlan(seed=3, drop_rate=0.3),
}

# (node_activations, activations_saved) per policy.  In A and B the event
# count includes the victim's one restart activation.
LOOP_BRANCH_ACTIVATIONS = {
    ("A-round-1-crash", "leader"): {"dense": (941, 4), "event": (498, 447)},
    ("A-round-1-crash", "bfs"): {"dense": (451, 4), "event": (139, 316)},
    ("B-crash-and-delays", "leader"): {"dense": (1361, 4), "event": (819, 546)},
    ("B-crash-and-delays", "bfs"): {"dense": (801, 4), "event": (305, 500)},
    ("C-drops", "leader"): {"dense": (8960, 0), "event": (2373, 6587)},
    ("C-drops", "bfs"): {"dense": (2835, 0), "event": (654, 2181)},
}


def outcome(policy, plan, primitive, graph):
    """One primitive on ``graph`` under ``plan`` and one poll policy.

    Returns what the policies must agree on — the result, the ledger, the
    fault history and ``activations + activations_saved`` — or, when the
    run raises, the exception type and the fault history; plus the
    ledger itself.
    """
    with scheduler_override(policy), fault_override(plan) as injector:
        m = RoundMetrics()
        try:
            result = PRIMITIVES[primitive](graph, m)
        except (CongestError, ValueError) as exc:
            return {"raised": type(exc), "faults": injector.stats.to_dict()}, m
    return {
        "result": result,
        "ledger": fingerprint(m),
        "faults": injector.stats.to_dict(),
        "activations+saved": m.node_activations + m.activations_saved,
    }, m


@pytest.mark.parametrize("family", sorted(GRAPHS))
class TestPrimitiveEquivalence:
    def test_leader_election(self, family):
        graph = GRAPHS[family]()
        (rd, md), (re_, me) = both_schedulers(lambda m: elect_leader(graph, metrics=m))
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)

    def test_bfs_tree(self, family):
        graph = GRAPHS[family]()
        root = max(graph.nodes())

        def run(m):
            t = build_bfs_tree(graph, root, metrics=m)
            return (t.parent, t.children, t.depth_of)

        (rd, md), (re_, me) = both_schedulers(run)
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)

    def test_aggregate_and_broadcast(self, family):
        graph = GRAPHS[family]()
        root = max(graph.nodes())
        tree = build_bfs_tree(graph, root)

        def run(m):
            agg = tree_aggregate(
                graph, tree.parent, tree.children, {v: 1 for v in graph.nodes()},
                sum, metrics=m,
            )
            bc = tree_broadcast(
                graph, tree.parent, tree.children, ("total", agg[root][0]), metrics=m
            )
            return (agg, bc)

        (rd, md), (re_, me) = both_schedulers(run)
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)

    def test_splitter_walk(self, family):
        graph = GRAPHS[family]()
        root = max(graph.nodes())
        tree = build_bfs_tree(graph, root)
        # The walk runs on the BFS tree itself (its edges are graph edges).
        from repro.planar import Graph

        tg = Graph()
        for v in graph.nodes():
            tg.add_node(v)
        for v, p in tree.parent.items():
            if p is not None:
                tg.add_edge(v, p)

        (rd, md), (re_, me) = both_schedulers(
            lambda m: find_splitter(tg, root, tree.parent, tree.children, metrics=m)
        )
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)


class TestPipelineEquivalence:
    """The whole Theorem 1.1 pipeline — including prover + distributed
    verifier — is scheduler-invariant on the CLI demo families."""

    PIPELINE_GRAPHS = {
        "grid": lambda: generators.grid_graph(6, 6),
        "outerplanar": lambda: generators.random_outerplanar(40, seed=11),
        "tree": lambda: generators.random_tree(40, seed=5),
    }

    @pytest.mark.parametrize("family", sorted(PIPELINE_GRAPHS))
    def test_embed_with_certification(self, family):
        graph = self.PIPELINE_GRAPHS[family]()
        results = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                results[scheduler] = distributed_planar_embedding(graph, certify=True)
        dense, event = results["dense"], results["event"]
        assert dense.rotation == event.rotation
        assert dense.leader == event.leader
        assert dense.bfs_depth == event.bfs_depth
        assert dense.certification.accepted and event.certification.accepted
        assert fingerprint(dense.metrics) == fingerprint(event.metrics)

    def test_activation_conservation(self):
        """activations + savings agree across policies; on a fault-free
        run the dense policy saves nothing, so its activations equal the
        event policy's activations + savings."""
        graph = generators.grid_graph(6, 6)
        results = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                results[scheduler] = distributed_planar_embedding(graph)
        dense_m, event_m = results["dense"].metrics, results["event"].metrics
        assert dense_m.activations_saved == 0
        assert event_m.activations_saved > 0
        assert (
            event_m.node_activations + event_m.activations_saved
            == dense_m.node_activations
        )

    @pytest.mark.parametrize("scheduler", ["dense", "event"])
    def test_tracer_rollup_matches_ledger(self, scheduler):
        """root.total_rounds() == metrics.rounds under either scheduler."""
        graph = generators.grid_graph(5, 5)
        tracer = Tracer()
        with scheduler_override(scheduler):
            result = distributed_planar_embedding(graph, tracer=tracer)
        assert tracer.root.total_rounds() == result.metrics.rounds
        assert tracer.root.total_words() == result.metrics.total_words
        assert tracer.root.total_activations() == result.metrics.node_activations
        assert (
            tracer.root.total_activations_saved() == result.metrics.activations_saved
        )


class SilentCountdown(NodeProgram):
    """Event-driven program that must observe message-free rounds: each
    node counts ``ticks`` silent rounds via ``needs_wakeup`` before
    finishing.  Exercises the wake-request half of the contract."""

    event_driven = True

    def __init__(self, node_id, neighbors, ticks=4):
        super().__init__(node_id, neighbors)
        self.ticks = ticks
        self.seen = []
        self.needs_wakeup = True

    def on_round(self, round_no, inbox):
        self.seen.append(round_no)
        self.ticks -= 1
        if self.ticks <= 0:
            self.done = True
            self.needs_wakeup = False
        return {}

    def result(self):
        return tuple(self.seen)


class LateFlood(NodeProgram):
    """Unported (``event_driven = False``): sits silent until its local
    round counter fires, then floods.  Legal only because unported
    programs are polled every round by both schedulers."""

    def __init__(self, node_id, neighbors, fire_at=4):
        super().__init__(node_id, neighbors)
        self.fire_at = fire_at
        self.value = None

    def on_start(self):
        return {}

    def on_round(self, round_no, inbox):
        for sender, payload in inbox.items():
            if self.value is None:
                self.value = payload
                self.done = True
                return {u: payload for u in self.neighbors if u != sender}
        if round_no == self.fire_at and self.node_id == min(self.neighbors + [self.node_id]):
            self.value = ("spark", self.node_id)
            self.done = True
            return {u: self.value for u in self.neighbors}
        return {}

    def result(self):
        return self.value


class Stuck(NodeProgram):
    """A buggy event-driven program: never done, never asks for wakeup."""

    event_driven = True

    def on_round(self, round_no, inbox):
        return {}


class TestSchedulingContract:
    def test_needs_wakeup_gets_silent_rounds(self):
        graph = generators.path_graph(4)
        outcomes = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                m = RoundMetrics()
                outcomes[scheduler] = (
                    run_program(graph, SilentCountdown, metrics=m, phase="tick"), m
                )
        (rd, md), (re_, me) = outcomes["dense"], outcomes["event"]
        assert rd == re_
        # every node saw rounds 2..5 even though no message was ever sent
        assert all(v == (2, 3, 4, 5) for v in rd.values())
        assert fingerprint(md) == fingerprint(me)
        # wakeup-requesters are woken every round: nothing saved here
        assert me.activations_saved == 0

    def test_unported_program_is_polled(self):
        graph = generators.cycle_graph(9)
        outcomes = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                m = RoundMetrics()
                outcomes[scheduler] = (
                    run_program(graph, LateFlood, metrics=m, phase="flood"), m
                )
        (rd, md), (re_, me) = outcomes["dense"], outcomes["event"]
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)
        # a polled node is an activation under both policies: no savings
        assert me.activations_saved == 0

    def test_stalled_event_program_fails_fast(self):
        """Empty active set with undone programs raises immediately (the
        dense policy would poll to max_rounds) and names the contract."""
        graph = generators.path_graph(3)
        with scheduler_override("event"):
            network = CongestNetwork(graph)
            programs = {v: Stuck(v, graph.neighbors(v)) for v in graph.nodes()}
            with pytest.raises(RoundLimitExceededError, match="needs_wakeup"):
                network.run(programs, phase="stuck")

    def test_override_sets_policy_and_restores_default(self):
        graph = generators.path_graph(3)
        with scheduler_override("dense"):
            assert default_scheduler() == "dense"
            assert CongestNetwork(graph).scheduler == "dense"
        assert default_scheduler() == "event"
        assert CongestNetwork(graph).scheduler == "event"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            with scheduler_override("lazy"):
                pass  # pragma: no cover


class TestFaultEquivalence:
    """The chaos layer rides the single shared delivery hook, so an
    identical :class:`FaultPlan` replayed under both poll policies must
    produce identical ledgers, identical results, and an identical fault
    history — the differential property the satellite demands.

    Every run constructs a *fresh* plan (and hence a fresh injector with
    its clock at zero), so both policies see the very same global-round
    fault draws.
    """

    CHAOS_KW = dict(
        seed=31, drop_rate=0.1, duplicate_rate=0.05,
        delay_rate=0.1, max_delay=3, corruption_rate=0.05,
    )

    def _both(self, run):
        out = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                with fault_override(FaultPlan(**self.CHAOS_KW)) as injector:
                    m = RoundMetrics()
                    out[scheduler] = (run(m), m, injector.stats.to_dict())
        return out["dense"], out["event"]

    @pytest.mark.parametrize("family", ["grid", "cycle", "tree"])
    def test_leader_election_under_chaos(self, family):
        graph = GRAPHS[family]()
        (rd, md, sd), (re_, me, se) = self._both(
            lambda m: elect_leader(graph, metrics=m)
        )
        assert rd == re_ == max(graph.nodes())
        assert fingerprint(md) == fingerprint(me)
        assert sd == se  # same drops, same delays, same corruptions

    def test_bfs_under_chaos(self):
        graph = GRAPHS["grid"]()
        root = max(graph.nodes())

        def run(m):
            t = build_bfs_tree(graph, root, metrics=m)
            return (t.parent, t.depth_of)

        (rd, md, sd), (re_, me, se) = self._both(run)
        assert rd == re_
        assert fingerprint(md) == fingerprint(me)
        assert sd == se

    def test_crash_window_replayed_identically(self):
        graph = GRAPHS["grid"]()
        victim = sorted(graph.nodes())[7]
        crash = CrashWindow(start=2, stop=6, node=victim)
        out = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                plan = FaultPlan(seed=8, drop_rate=0.05, crashes=(crash,))
                with fault_override(plan) as injector:
                    m = RoundMetrics()
                    out[scheduler] = (
                        elect_leader(graph, metrics=m), m, injector.stats.to_dict()
                    )
        (rd, md, sd), (re_, me, se) = out["dense"], out["event"]
        assert rd == re_ == max(graph.nodes())
        assert fingerprint(md) == fingerprint(me)
        assert sd == se
        assert sd["crash_node_rounds"] > 0
        # The activation law under a crash window: the dense policy skips
        # the crashed node and reports those calls as saved.
        assert (
            md.node_activations + md.activations_saved
            == me.node_activations + me.activations_saved
        )
        assert md.activations_saved == sd["crash_node_rounds"]

    @pytest.mark.parametrize("primitive", sorted(PRIMITIVES))
    @pytest.mark.parametrize("case", sorted(LOOP_BRANCH_PLANS))
    def test_loop_branches_agree(self, case, primitive):
        """Crash before round 1 (A), delays maturing across silent rounds
        (B), frames dropped in flight (C): one loop, both policies."""
        graph = GRAPHS["grid"]()
        victim = sorted(graph.nodes())[7]
        (dense, dense_m), (event, event_m) = (
            outcome(policy, LOOP_BRANCH_PLANS[case](victim), primitive, graph)
            for policy in ("dense", "event")
        )
        assert "raised" not in dense
        assert dense == event
        assert dense_m.activations_saved == dense["faults"]["crash_node_rounds"]
        assert {
            "dense": (dense_m.node_activations, dense_m.activations_saved),
            "event": (event_m.node_activations, event_m.activations_saved),
        } == LOOP_BRANCH_ACTIVATIONS[case, primitive]

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        family=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(0, 10**6),
        rates=st.tuples(*[st.floats(min_value=0.0, max_value=0.2)] * 4),
        crash=st.none() | st.tuples(
            st.integers(1, 20), st.integers(1, 8), st.integers(0, 10**6)
        ),
    )
    def test_random_fault_plans_agree(self, family, seed, rates, crash):
        """Random chaos: equal outcomes, or the same exception type (heavy
        plans exhaust the retransmit budget; a round-1 crash of the max-ID
        node leaves ``elect_leader`` without a unique leader)."""
        graph = GRAPHS[family]()
        nodes = sorted(graph.nodes())
        drop, duplicate, delay, corrupt = rates
        crashes = ()
        if crash is not None:
            start, length, pick = crash
            crashes = (CrashWindow(start, start + length, node=nodes[pick % len(nodes)]),)
        for primitive in sorted(PRIMITIVES):
            (dense, _), (event, _) = (
                outcome(
                    policy,
                    FaultPlan(
                        seed=seed, drop_rate=drop, duplicate_rate=duplicate,
                        delay_rate=delay, corruption_rate=corrupt, crashes=crashes,
                    ),
                    primitive,
                    graph,
                )
                for policy in ("dense", "event")
            )
            assert dense == event, primitive

    def test_self_healing_pipeline_under_chaos(self):
        """The full chaos pipeline — embed, certify, verify, heal — is
        scheduler-invariant: same rotations, same ledger, same faults."""
        from repro.core import self_healing_embedding

        graph = generators.grid_graph(4, 4)
        results = {}
        for scheduler in ("dense", "event"):
            with scheduler_override(scheduler):
                results[scheduler] = self_healing_embedding(
                    graph, faults=FaultPlan(seed=5, drop_rate=0.04, corruption_rate=0.02)
                )
        dense, event = results["dense"], results["event"]
        assert not getattr(dense, "degraded", False)
        assert not getattr(event, "degraded", False)
        assert dense.rotation == event.rotation
        assert dense.heal_attempts == event.heal_attempts
        assert dense.fault_stats == event.fault_stats
        assert fingerprint(dense.metrics) == fingerprint(event.metrics)


class TestPayloadMeter:
    """The network measures each posted payload as it is when posted: no
    memo stands between a payload and its word count, under either
    scheduler."""

    def test_unhashable_payloads_measured_uncached(self):
        class GrowingList(NodeProgram):
            """Node 0 sends one list, appending to it after each ack."""

            def __init__(self, node_id, neighbors):
                super().__init__(node_id, neighbors)
                self.items = [0]
                self.done = True

            def on_start(self):
                return {1: ("list", self.items)} if self.node_id == 0 else {}

            def on_round(self, round_no, inbox):
                if not inbox:
                    return {}
                if self.node_id == 1:
                    return {0: "ack"}
                if len(self.items) == 4:
                    return {}
                self.items.append(len(self.items))
                return {1: ("list", self.items)}

        g = generators.path_graph(2)
        bits = CongestNetwork(g).word_bits
        lists = [("list", list(range(k))) for k in range(1, 5)]
        words = sum(payload_words(p, bits) for p in lists) + 4 * payload_words("ack", bits)
        assert len({payload_words(p, bits) for p in lists}) == 4

        (_, md), (_, me) = both_schedulers(lambda m: run_program(g, GrowingList, metrics=m))
        assert (md.messages, md.total_words) == (8, words)
        assert fingerprint(md) == fingerprint(me)
