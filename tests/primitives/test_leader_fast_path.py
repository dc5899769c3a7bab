"""Differential proof that the leader fast path is ledger-exact.

``elect_leader`` replays the event scheduler's execution of
``MaxIdFloodProgram`` in closed form when the ambient configuration
matches what the replay models.  These tests hold the fast path's
``RoundMetrics`` ledger — rounds, messages, words, max edge load,
activations, saved activations, and phase tags — bit-identical to the
real simulator's, and pin down every eligibility gate that must route
back to the simulator.
"""

import pytest

from repro.congest import BandwidthExceededError, RoundMetrics
from repro.congest.network import run_program, scheduler_override
from repro.planar import Graph
from repro.planar.generators import (
    cycle_graph,
    grid_graph,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    star_graph,
    triangulated_grid,
)
from repro.primitives import elect_leader
from repro.primitives import leader as leader_mod

FAMILIES = [
    pytest.param(lambda: path_graph(17), id="path17"),
    pytest.param(lambda: cycle_graph(20), id="cycle20"),
    pytest.param(lambda: grid_graph(6, 7), id="grid6x7"),
    pytest.param(lambda: star_graph(12), id="star12"),
    pytest.param(lambda: triangulated_grid(5, 5), id="trigrid5x5"),
    pytest.param(lambda: random_tree(40, seed=2), id="tree40"),
    pytest.param(lambda: random_outerplanar(30, seed=1), id="outer30"),
    pytest.param(lambda: random_maximal_planar(30, seed=6), id="maximal30"),
    pytest.param(lambda: Graph(nodes=[7]), id="singleton"),
]


@pytest.mark.parametrize("make", FAMILIES)
def test_ledger_bit_identical_to_simulator(make):
    fast_m = RoundMetrics()
    fast_leader = leader_mod._fast_flood(make(), fast_m, "leader-election")
    assert fast_leader is not leader_mod._FALLBACK

    sim_m = RoundMetrics()
    results = run_program(
        make(), leader_mod.MaxIdFloodProgram, metrics=sim_m, phase="leader-election"
    )
    (sim_leader,) = set(results.values())

    assert fast_leader == sim_leader
    assert fast_m.to_dict() == sim_m.to_dict()


@pytest.mark.parametrize("make", FAMILIES)
def test_elect_leader_uses_fast_path_when_eligible(make, monkeypatch):
    def no_simulator(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("eligible run must not touch the simulator")

    monkeypatch.setattr(leader_mod, "run_program", no_simulator)
    g = make()
    assert elect_leader(g) == max(g._adj)


def test_dense_scheduler_routes_to_simulator(monkeypatch):
    def no_fast(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("dense-scheduler run must not use the fast path")

    monkeypatch.setattr(leader_mod, "_fast_flood", no_fast)
    with scheduler_override("dense"):
        assert elect_leader(grid_graph(4, 4)) == 15


def test_wide_ids_fall_back_and_raise_from_simulator():
    # IDs wider than the per-edge budget must surface the genuine
    # simulator error; the fast path pre-flights and never half-records.
    g = Graph()
    g.add_edge(1 << 600, 0)
    m = RoundMetrics()
    assert leader_mod._fast_flood(g, m, "leader-election") is leader_mod._FALLBACK
    assert m.to_dict() == RoundMetrics().to_dict()
    with pytest.raises(BandwidthExceededError):
        elect_leader(g)


def test_disconnected_rejected_by_both_paths():
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    with pytest.raises(ValueError):
        leader_mod._fast_flood(g, None, None)
    with scheduler_override("dense"):
        with pytest.raises(ValueError):
            elect_leader(g)


def test_metrics_optional_and_phase_untagged():
    # metrics=None and phase=None exercise the fast path's optional arms.
    assert leader_mod._fast_flood(grid_graph(3, 3), None, None) == 8
    m = RoundMetrics()
    leader_mod._fast_flood(grid_graph(3, 3), m, None)
    assert m.rounds > 0
    assert "leader-election" not in m.phase_rounds
