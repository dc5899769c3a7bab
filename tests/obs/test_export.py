"""Chrome trace-event (Perfetto) export: span slices, causal lanes,
flow arrows, and JSON validity."""

import io
import json

from repro import distributed_planar_embedding
from repro.obs import (
    CausalRecorder,
    Tracer,
    chrome_trace,
    export_chrome_trace,
    observe,
)
from repro.planar.generators import grid_graph


def traced_run():
    tracer = Tracer()
    recorder = CausalRecorder()
    with observe(recorder):
        distributed_planar_embedding(grid_graph(3, 3), tracer=tracer)
    return tracer, recorder


class TestChromeTrace:
    def test_empty_inputs_make_empty_document(self):
        doc = chrome_trace()
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_span_slices_mirror_the_span_tree(self):
        tracer, _ = traced_run()
        doc = chrome_trace(spans=tracer)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == sum(1 for _ in tracer.root.walk())
        root_slice = slices[0]
        assert root_slice["name"] == tracer.root.name
        assert root_slice["args"]["rounds"] == tracer.root.total_rounds()
        assert all(e["pid"] == 1 for e in slices)

    def test_causal_lanes_have_slices_flows_and_names(self):
        _, recorder = traced_run()
        doc = chrome_trace(causal=recorder)
        events = doc["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        # One flow arrow (s/f pair) per sampled happens-before edge.
        assert len(starts) == len(finishes) == len(recorder.edges)
        assert all(e["pid"] == 2 for e in starts + finishes)
        lanes = {e["tid"] for e in events if e["ph"] == "X"}
        names = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        assert {e["tid"] for e in names} == lanes

    def test_flow_arrows_bind_inside_round_slices(self):
        """Perfetto drops flow endpoints that fall outside a slice; every
        s/f timestamp must land within some slice on its lane."""
        _, recorder = traced_run()
        events = chrome_trace(causal=recorder)["traceEvents"]
        slices = {}
        for e in events:
            if e["ph"] == "X" and e["pid"] == 2:
                slices.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
        for e in events:
            if e["ph"] in ("s", "f"):
                assert any(
                    lo <= e["ts"] <= hi for lo, hi in slices[e["tid"]]
                ), f"flow endpoint at {e['ts']} outside every slice"

    def test_report_dict_with_edges_is_accepted(self):
        _, recorder = traced_run()
        doc = chrome_trace(causal=recorder.report(include_edges=True))
        assert any(e["ph"] == "s" for e in doc["traceEvents"])

    def test_document_is_plain_json(self):
        tracer, recorder = traced_run()
        doc = chrome_trace(spans=tracer, causal=recorder)
        assert json.loads(json.dumps(doc)) == doc


class TestExportSinks:
    def test_export_to_path(self, tmp_path):
        tracer, recorder = traced_run()
        target = tmp_path / "trace.json"
        export_chrome_trace(target, spans=tracer, causal=recorder)
        doc = json.loads(target.read_text())
        assert doc["traceEvents"]

    def test_export_to_stream(self):
        tracer, _ = traced_run()
        buf = io.StringIO()
        export_chrome_trace(buf, spans=tracer)
        assert json.loads(buf.getvalue())["traceEvents"]
