"""Round ledgers: real rounds, charges, and composition rules."""

import json

import pytest

from repro.congest import RoundMetrics
from repro.congest.metrics import Charge
from repro.obs import Sink


def test_record_round():
    m = RoundMetrics()
    m.record_round(messages=5, words=9, max_edge_words=3)
    m.record_round(messages=1, words=1, max_edge_words=1)
    assert m.rounds == 2
    assert m.messages == 6
    assert m.total_words == 10
    assert m.max_words_edge_round == 3


def test_charge_with_provenance():
    m = RoundMetrics()
    m.charge("merge:star", 12, words=40, detail="3 leaves")
    assert m.rounds == 12
    assert m.phase_rounds["merge:star"] == 12
    assert m.charges[0].detail == "3 leaves"


def test_charge_negative_rejected():
    with pytest.raises(ValueError):
        RoundMetrics().charge("x", -1)


def test_absorb_parallel_takes_max():
    m = RoundMetrics()
    b1, b2 = RoundMetrics(), RoundMetrics()
    b1.charge("a", 10, words=5)
    b2.charge("a", 3, words=7)
    m.absorb_parallel([b1, b2], phase="recursion")
    assert m.rounds == 10  # parallel branches: max
    assert m.total_words == 12  # traffic always adds
    assert m.phase_rounds["recursion"] == 10


def test_absorb_parallel_empty_is_noop():
    m = RoundMetrics()
    m.absorb_parallel([], phase="recursion")
    assert m.rounds == 0


def test_absorb_serial_adds():
    m = RoundMetrics()
    m.charge("x", 5)
    other = RoundMetrics()
    other.charge("x", 7)
    other.record_round(2, 2, 1)
    m.absorb_serial(other)
    assert m.rounds == 13
    assert m.phase_rounds["x"] == 12


def test_summary_mentions_phases():
    m = RoundMetrics()
    m.charge("bfs", 4)
    assert "bfs" in m.summary()


def test_summary_shows_per_phase_traffic():
    m = RoundMetrics()
    m.charge("merge", 3, words=17, messages=5)
    line = next(ln for ln in m.summary().splitlines() if "merge" in ln)
    assert "3 rounds" in line and "5 msgs" in line and "17 words" in line


class TestSerialization:
    def make_ledger(self):
        m = RoundMetrics()
        m.record_round(messages=4, words=9, max_edge_words=3)
        m.record_round(messages=2, words=2, max_edge_words=1)
        m.tag_phase("bfs", 2, messages=6, words=11)
        m.charge("merge:star", 5, words=20, detail="3 leaves", messages=7)
        return m

    def test_round_trip_is_lossless(self):
        m = self.make_ledger()
        back = RoundMetrics.from_dict(m.to_dict())
        assert back == m  # observer is excluded from comparison

    def test_round_trip_through_json(self):
        m = self.make_ledger()
        back = RoundMetrics.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m
        assert back.charges[-1] == Charge(
            "merge:star", 5, words=20, detail="3 leaves", messages=7
        )
        assert back.charges[0].kind == "real"

    def test_phase_breakdown_from_charge_provenance(self):
        m = self.make_ledger()
        phases = m.to_dict()["phases"]
        assert phases["bfs"] == {
            "rounds": 2, "messages": 6, "words": 11, "charges": 1,
            "activations": 0, "activations_saved": 0,
        }
        assert phases["merge:star"] == {
            "rounds": 5, "messages": 7, "words": 20, "charges": 1,
            "activations": 0, "activations_saved": 0,
        }


class TestCompositionInvariants:
    """Satellite: absorb_parallel / absorb_serial invariants across nesting."""

    def branch(self, phase, rounds, words, messages=0):
        b = RoundMetrics()
        b.charge(phase, rounds, words=words, messages=messages)
        b.record_round(messages=1, words=1, max_edge_words=1)
        b.tag_phase(phase, 1, messages=1, words=1)
        return b

    def test_parallel_rounds_max_traffic_sum(self):
        m = RoundMetrics()
        b1 = self.branch("work", 10, words=50, messages=5)
        b2 = self.branch("work", 3, words=70, messages=9)
        m.absorb_parallel([b1, b2], phase="recursion")
        assert m.rounds == max(b1.rounds, b2.rounds)
        assert m.total_words == b1.total_words + b2.total_words
        assert m.messages == b1.messages + b2.messages

    def test_serial_rounds_and_traffic_sum(self):
        m = self.branch("a", 4, words=8)
        other = self.branch("b", 6, words=5)
        total_before = m.rounds + other.rounds
        m.absorb_serial(other)
        assert m.rounds == total_before
        assert m.phase_rounds["a"] == 5 and m.phase_rounds["b"] == 7

    def test_charges_preserved_across_nesting(self):
        inner1 = self.branch("leaf", 2, words=3)
        inner2 = self.branch("leaf", 9, words=4)
        mid = RoundMetrics()
        mid.absorb_parallel([inner1, inner2], phase="level1")
        outer = RoundMetrics()
        outer.absorb_serial(mid)
        # every charge survives two levels of composition, provenance intact
        assert len(outer.charges) == len(inner1.charges) + len(inner2.charges)
        assert all(c.phase == "leaf" for c in outer.charges)
        kinds = sorted(c.kind for c in outer.charges)
        assert kinds == ["charge", "charge", "real", "real"]

    def test_phase_rounds_preserved_across_nesting(self):
        inner = self.branch("leaf", 5, words=0)
        mid = RoundMetrics()
        mid.absorb_parallel([inner], phase="level1")
        outer = RoundMetrics()
        outer.absorb_serial(mid)
        # the parallel composition's max lands under its own phase label
        assert outer.phase_rounds["level1"] == inner.rounds
        assert outer.rounds == inner.rounds

    def test_max_edge_words_is_max_under_both_compositions(self):
        b1, b2 = RoundMetrics(), RoundMetrics()
        b1.record_round(1, 1, max_edge_words=3)
        b2.record_round(1, 1, max_edge_words=8)
        par = RoundMetrics()
        par.absorb_parallel([b1, b2], phase="p")
        assert par.max_words_edge_round == 8
        ser = RoundMetrics()
        ser.record_round(1, 1, max_edge_words=2)
        ser.absorb_serial(par)
        assert ser.max_words_edge_round == 8

    def test_observer_not_notified_by_composition(self):
        """Composition only moves already-accounted charges; re-notifying
        would double-count them on an attached tracer's spans."""
        seen = []

        class Spy(Sink):
            def on_charge(self, c):
                seen.append(c)

            def on_round(self, *a):
                seen.append(a)

        m = RoundMetrics(observer=Spy())
        b = RoundMetrics()
        b.charge("x", 2)
        m.absorb_parallel([b], phase="p")
        m.absorb_serial(b)
        assert seen == []
