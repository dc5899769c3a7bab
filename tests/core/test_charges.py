"""Unit tests for the merge round-charging math (the cost model itself)."""

from repro.congest import RoundMetrics
from repro.core.merges import (
    MergeResult,
    charge_merge_stage,
    charge_path_coordinated_merge,
    vertex_coordinated_rounds,
)
from repro.core.parts import fresh_part
from repro.planar.generators import path_graph


def synthetic_result(depths, ups, downs, lanes):
    part = fresh_part(path_graph(2), [])
    r = MergeResult(part=part)
    r.part_depths = dict(depths)
    r.up_words = dict(ups)
    r.down_words = dict(downs)
    r.attachment_edges = dict(lanes)
    return r


class TestVertexCoordinated:
    def test_single_part_single_lane(self):
        r = synthetic_result({1: 4}, {1: 10}, {1: 6}, {1: 1})
        # up: (4+1) hops + 10 words - 1 ; down: 5 hops + 6 words - 1
        assert vertex_coordinated_rounds(r) == (5 + 9) + (5 + 5)

    def test_lanes_divide_words(self):
        r1 = synthetic_result({1: 4}, {1: 12}, {1: 12}, {1: 1})
        r4 = synthetic_result({1: 4}, {1: 12}, {1: 12}, {1: 4})
        assert vertex_coordinated_rounds(r4) < vertex_coordinated_rounds(r1)

    def test_parallel_parts_take_max(self):
        slow = synthetic_result({1: 10}, {1: 5}, {1: 5}, {1: 1})
        both = synthetic_result(
            {1: 10, 2: 1}, {1: 5, 2: 2}, {1: 5, 2: 2}, {1: 1, 2: 1}
        )
        assert vertex_coordinated_rounds(both) == vertex_coordinated_rounds(slow)

    def test_bandwidth_scales(self):
        r = synthetic_result({1: 2}, {1: 16}, {1: 16}, {1: 1})
        assert vertex_coordinated_rounds(r, bandwidth=8) < vertex_coordinated_rounds(r)

    def test_charge_records_phase_and_words(self):
        m = RoundMetrics()
        r = synthetic_result({1: 2}, {1: 3}, {1: 3}, {1: 1})
        rounds = charge_merge_stage(m, [r], "merge:vertex", detail="unit")
        assert m.phase_rounds["merge:vertex"] == rounds
        assert m.total_words == 6
        assert m.charges[0].detail == "unit"


class TestMergeStage:
    def test_stage_costs_its_slowest_merge_and_all_words(self):
        # Parallel merges touch disjoint parts: the stage takes the
        # slowest merge's rounds and ships every merge's words.
        slow = synthetic_result({1: 10}, {1: 5}, {1: 5}, {1: 1})
        fast = synthetic_result({2: 1}, {2: 2}, {2: 3}, {2: 1})
        m = RoundMetrics()
        rounds = charge_merge_stage(m, [fast, slow], "merge:star", detail="two")
        assert rounds == vertex_coordinated_rounds(slow) > vertex_coordinated_rounds(fast)
        assert [(c.phase, c.rounds, c.words, c.detail) for c in m.charges] == [
            ("merge:star", rounds, 5 + 5 + 2 + 3, "two")
        ]

    def test_empty_stage_charges_nothing(self):
        m = RoundMetrics()
        assert charge_merge_stage(m, [], "merge:vertex", detail="none") == 0
        assert m.charges == [] and m.rounds == 0


class TestPathCoordinated:
    def test_backbone_scales_with_path_and_parts(self):
        m = RoundMetrics()
        few = synthetic_result({1: 1, 2: 1}, {1: 2, 2: 2}, {1: 2, 2: 2}, {1: 1, 2: 1})
        many = synthetic_result(
            {i: 1 for i in range(12)},
            {i: 2 for i in range(12)},
            {i: 2 for i in range(12)},
            {i: 1 for i in range(12)},
        )
        short_few = charge_path_coordinated_merge(RoundMetrics(), few, path_length=3)
        long_few = charge_path_coordinated_merge(RoundMetrics(), few, path_length=30)
        long_many = charge_path_coordinated_merge(RoundMetrics(), many, path_length=30)
        assert long_few > short_few  # path length enters
        assert long_many > long_few  # part count enters (O(1) words each)

    def test_local_terms_use_lanes(self):
        wide = synthetic_result({1: 3}, {1: 20}, {1: 20}, {1: 10})
        narrow = synthetic_result({1: 3}, {1: 20}, {1: 20}, {1: 1})
        r_wide = charge_path_coordinated_merge(RoundMetrics(), wide, path_length=5)
        r_narrow = charge_path_coordinated_merge(RoundMetrics(), narrow, path_length=5)
        assert r_wide < r_narrow
