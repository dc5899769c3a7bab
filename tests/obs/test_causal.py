"""Causal tracing: Lamport chain clocks, the critical path, and the
``critical_path <= real message rounds`` sandwich (exact fault-free)."""

import pytest

from repro import distributed_planar_embedding
from repro.congest import CongestNetwork, FaultPlan, RoundMetrics
from repro.core import self_healing_embedding
from repro.obs import CausalRecorder, installed, observe
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    triangulated_grid,
)

FAMILIES = [
    ("grid", lambda: grid_graph(5, 7)),
    ("trigrid", lambda: triangulated_grid(4, 6)),
    ("cycle", lambda: cycle_graph(17)),
    ("outerplanar", lambda: random_outerplanar(30, seed=3)),
    ("maximal", lambda: random_maximal_planar(24, seed=7)),
    ("tree", lambda: random_tree(33, seed=1)),
]


class TestCriticalPath:
    @pytest.mark.parametrize("make", [f[1] for f in FAMILIES],
                             ids=[f[0] for f in FAMILIES])
    def test_exact_on_fault_free_run(self, make):
        """Acceptance: every pipeline primitive is receive-driven, so on a
        fault-free run the longest happens-before chain accounts for every
        message round — equality, not just the structural <=."""
        recorder = CausalRecorder()
        with observe(recorder):
            result = distributed_planar_embedding(make())
        report = recorder.report()
        assert report["critical_path"] == report["real_rounds"]
        assert report["real_rounds"] <= result.metrics.rounds

    def test_inequality_survives_chaos(self):
        """Under drops and retransmissions some rounds extend no chain, so
        the equality degrades to critical_path <= real rounds — never >."""
        plan = FaultPlan.parse("drop=0.05,corrupt=0.02,crash=2:4", seed=17)
        recorder = CausalRecorder()
        with observe(recorder):
            result = self_healing_embedding(grid_graph(5, 5), faults=plan)
        report = recorder.report()
        assert not getattr(result, "degraded", False)
        assert report["critical_path"] <= report["real_rounds"]

    def test_report_lands_on_result_and_run_attrs(self):
        recorder = CausalRecorder()
        with observe(recorder):
            result = distributed_planar_embedding(grid_graph(4, 4))
        assert result.causal is not None
        assert result.causal["type"] == "causal-report"
        assert result.causal["critical_path"] == recorder.total_critical_path()
        assert result.to_report()["causal"] == result.causal

    def test_phase_summary_partitions_totals(self):
        recorder = CausalRecorder()
        with observe(recorder):
            distributed_planar_embedding(grid_graph(4, 4))
        phases = recorder.phase_summary()
        assert phases  # bfs / partition / verify phases all recorded
        assert sum(p["critical_path"] for p in phases.values()) == (
            recorder.total_critical_path()
        )
        assert sum(p["rounds"] for p in phases.values()) == recorder.total_rounds()


class TestWitnessChain:
    def test_chain_stamps_are_consecutive_hops(self):
        """The witness walks predecessor pointers: stamps strictly increase
        along the chain and the last link carries the critical path."""
        recorder = CausalRecorder()
        with observe(recorder):
            distributed_planar_embedding(grid_graph(5, 7))
        longest = recorder.longest
        assert longest is not None
        chain = longest["chain"]
        assert chain, "deepest execution must produce a witness"
        stamps = [link["stamp"] for link in chain]
        assert stamps == list(range(stamps[0], stamps[0] + len(stamps)))
        assert stamps[0] == 1  # unbounded chain reaches the first hop
        assert stamps[-1] == longest["critical_path"]

    def test_chain_length_is_bounded(self):
        recorder = CausalRecorder(max_chain=3)
        with observe(recorder):
            distributed_planar_embedding(grid_graph(5, 7))
        assert len(recorder.longest["chain"]) <= 3


class TestEdgeSample:
    def test_sample_is_bounded_but_counting_is_not(self):
        recorder = CausalRecorder(max_edges=10)
        with observe(recorder):
            distributed_planar_embedding(grid_graph(5, 5))
        assert len(recorder.edges) == 10
        assert recorder.edges_total > 10
        report = recorder.report()
        assert report["edges_sampled"] == 10
        assert report["edges_total"] == recorder.edges_total
        assert "edges" not in report  # only with include_edges=True
        assert recorder.report(include_edges=True)["edges"] == recorder.edges

    def test_edges_carry_round_and_stamp(self):
        recorder = CausalRecorder()
        with observe(recorder):
            distributed_planar_embedding(grid_graph(3, 3))
        for edge in recorder.edges:
            assert edge["stamp"] >= 1
            assert edge["round"] >= 1
            assert isinstance(edge["sender"], str)  # repr'd for JSON


class TestOverrideIdiom:
    def test_override_reaches_internal_networks(self):
        recorder = CausalRecorder()
        with observe(recorder):
            assert installed() == (recorder,)
            distributed_planar_embedding(grid_graph(3, 3))
        assert installed() == ()
        assert recorder.executions

    def test_untraced_network_keeps_raw_delivery_hook(self):
        """Invariant: with no sink installed and no ledger observer the
        network has no observer — zero event code on the untraced hot path."""
        net = CongestNetwork(grid_graph(2, 2), metrics=RoundMetrics())
        assert net.observer is None

    def test_recorder_wraps_delivery_hook(self):
        recorder = CausalRecorder()
        with observe(recorder):
            net = CongestNetwork(grid_graph(2, 2), metrics=RoundMetrics())
        assert net.observer is recorder

    def test_nested_override_restores_outer(self):
        outer, inner = CausalRecorder(), CausalRecorder()
        with observe(outer):
            with observe(inner):
                assert installed() == (inner,)
            assert installed() == (outer,)
        assert installed() == ()
