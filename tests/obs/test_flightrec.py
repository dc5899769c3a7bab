"""The crash flight recorder: bounded rings, JSONL round-trip, and the
last-event-matches-raised-error contract on budget exhaustion."""

import json

import pytest

from repro.congest import (
    FaultPlan,
    RetransmitBudgetExceededError,
    RoundMetrics,
    run_reliable,
)
from repro.core import self_healing_embedding
from repro.obs import (
    FlightRecorder,
    TraceFormatError,
    Tracer,
    installed,
    load_flight,
    observe,
)
from repro.obs.flightrec import DRIVER_LANE, FLIGHT_FORMAT_VERSION
from repro.planar.generators import grid_graph, path_graph

from tests.congest.test_reliable import Streamer


class TestRingBuffer:
    def test_eviction_keeps_last_k_per_node(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("a", "send", round_no=i, seqno=i)
        rec.record("b", "deliver", round_no=99)
        assert len(rec) == 5  # 4 retained for a, 1 for b
        assert rec.events_recorded == 11
        kept = [ev["detail"]["seqno"] for ev in rec.events() if ev["node"] == "'a'"]
        assert kept == [6, 7, 8, 9]

    def test_events_are_globally_ordered(self):
        rec = FlightRecorder()
        rec.record("b", "x")
        rec.record("a", "y")
        rec.record("b", "z")
        seqs = [ev["seq"] for ev in rec.events()]
        assert seqs == sorted(seqs)
        assert rec.last()["kind"] == "z"

    def test_note_error_lands_on_driver_lane(self):
        rec = FlightRecorder()
        rec.note_error(ValueError("boom"), round_no=7, stage="embed")
        last = rec.last()
        assert last["node"] == repr(DRIVER_LANE)
        assert last["detail"]["error"] == "ValueError"
        assert last["detail"]["message"] == "boom"
        assert last["detail"]["stage"] == "embed"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestJsonlRoundTrip:
    def test_dump_and_load(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record(("v", 1), "send", round_no=3, to="('v', 2)", words=2)
        rec.note_error(RuntimeError("dead"))
        path = rec.dump(tmp_path / "flight.jsonl")
        events = load_flight(path)
        assert events == rec.events()
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "flight"
        assert header["version"] == FLIGHT_FORMAT_VERSION
        assert header["events_recorded"] == 2

    def test_load_rejects_bad_json(self):
        with pytest.raises(TraceFormatError):
            load_flight("not json at all\n")

    def test_load_rejects_non_object_line(self):
        with pytest.raises(TraceFormatError):
            load_flight("[1, 2]\n")

    def test_load_rejects_version_drift(self):
        header = json.dumps({"type": "flight", "version": FLIGHT_FORMAT_VERSION + 1})
        with pytest.raises(TraceFormatError, match="version"):
            load_flight(header + "\n")

    def test_load_rejects_missing_keys(self):
        with pytest.raises(TraceFormatError, match="'kind'"):
            load_flight(json.dumps({"seq": 1, "node": "'a'"}) + "\n")


class TestBudgetExhaustion:
    def test_last_event_matches_raised_error(self):
        """Acceptance: when the ARQ gives up, the give-up is recorded
        *before* the raise, so the recorder's globally-last event names
        the exact error the caller sees."""
        rec = FlightRecorder()
        plan = FaultPlan(seed=1, drop_rate=1.0)
        with observe(rec):
            with pytest.raises(RetransmitBudgetExceededError) as info:
                run_reliable(
                    path_graph(2), Streamer, metrics=RoundMetrics(),
                    phase="doomed", faults=plan, max_attempts=3,
                )
        last = rec.last()
        assert last["kind"] == "arq-give-up"
        assert last["detail"]["error"] == "RetransmitBudgetExceededError"
        assert last["detail"]["message"] == str(info.value)
        assert any(ev["kind"] == "arq-retransmit" for ev in rec.events())

    def test_degraded_run_dumps_loadable_flight(self, tmp_path):
        """Acceptance: a chaos run that exhausts the healing budget leaves
        a loadable JSONL dump whose last event is the error that killed
        the final attempt."""
        plan = FaultPlan(seed=9, drop_rate=0.9)
        result = self_healing_embedding(grid_graph(3, 3), faults=plan, max_retries=1)
        assert getattr(result, "degraded", False)
        assert result.flight is not None
        events = load_flight(result.flight.dump(tmp_path / "flight.jsonl"))
        assert events
        last = events[-1]
        assert last["kind"] == "error"
        assert last["node"] == repr(DRIVER_LANE)
        # The diagnosis names the same last error the recorder captured.
        assert last["detail"]["error"] in result.diagnosis
        assert last["detail"]["message"] in result.diagnosis
        kinds = {ev["kind"] for ev in events}
        assert "send" in kinds  # fault-layer traffic made it into the box


class TestAttachment:
    def test_clean_run_records_nothing(self):
        rec = FlightRecorder()
        with observe(rec):
            self_healing_embedding(grid_graph(3, 3))
        # No fault plan => no fault state => no per-frame flight code.
        assert not any(ev["kind"] == "send" for ev in rec.events())

    def test_chaos_run_records_faults(self):
        rec = FlightRecorder(capacity=16)
        plan = FaultPlan.parse("drop=0.05,corrupt=0.02,crash=2:4", seed=17)
        with observe(rec):
            result = self_healing_embedding(grid_graph(4, 4), faults=plan)
        assert not getattr(result, "degraded", False)
        kinds = {ev["kind"] for ev in rec.events()}
        assert "send" in kinds and "deliver" in kinds
        assert rec.events_recorded > len(rec)  # rings actually bounded it

    def test_override_restores_previous(self):
        rec = FlightRecorder()
        with observe(rec):
            assert installed() == (rec,)
        assert installed() == ()

    def test_one_event_path_feeds_tracer_and_recorder(self):
        """Each fault site makes one observer call that both the tracer
        and the flight recorder hear: the trace's ``fault`` events match
        the recorder's fault-kind events one for one, and its ``send``
        events match the fault layer's own count."""
        plan = FaultPlan.parse(
            "drop=0.05,corrupt=0.02,crash=2:4,dup=0.02,delay=0.05:2,link=1:4", seed=17
        )
        tracer, rec = Tracer(), FlightRecorder(capacity=10**6)
        with observe(rec):
            result = self_healing_embedding(grid_graph(5, 5), tracer=tracer, faults=plan)
        assert not getattr(result, "degraded", False)
        assert rec.events_recorded == len(rec)  # nothing evicted
        fault_kinds = {"link-drop", "drop", "corruption-detected", "delay",
                       "duplicate", "crash-inbox-drop"}
        # The span event's detail is "<sender>, <receiver>" (or
        # "<node>, <frames>" for a crashed inbox), all reprs.
        recorded = [
            (ev["kind"], ev["round"], f"{ev['node']}, {ev['detail']['frames']}"
             if ev["kind"] == "crash-inbox-drop" else f"{ev['detail']['frm']}, {ev['node']}")
            for ev in rec.events() if ev["kind"] in fault_kinds
        ]
        traced = [(ev.attrs["fault"], ev.attrs["round"], ev.attrs["detail"])
                  for sp in tracer.spans() for ev in sp.events if ev.name == "fault"]
        assert sorted(traced) == sorted(recorded)
        assert {kind for kind, _, _ in recorded} == fault_kinds  # every site fired
        sends = sum(ev["kind"] == "send" for ev in rec.events())
        assert sends == result.fault_stats["sent"] > 0
