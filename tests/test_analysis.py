"""The analysis helpers used by the benchmark harness."""

import pytest

from repro.analysis import (
    bound_ratios,
    fit_power_law,
    format_table,
    geometric_sizes,
    headline_bound,
    load_trace,
    render_phase_timeline,
    render_trace_tree,
    verdict,
)
from repro.congest import RoundMetrics
from repro.obs import TraceFormatError, Tracer


class TestPowerFit:
    def test_exact_square(self):
        xs = [1, 2, 4, 8, 16]
        ys = [x**2 for x in xs]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 2.0) < 1e-9
        assert abs(fit.coefficient - 1.0) < 1e-9
        assert fit.r_squared > 0.999

    def test_linear_with_constant(self):
        xs = [10, 20, 40, 80]
        ys = [7 * x for x in xs]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 1.0) < 1e-9
        assert abs(fit.coefficient - 7.0) < 1e-6

    def test_predict(self):
        fit = fit_power_law([1, 2, 4], [3, 6, 12])
        assert abs(fit.predict(8) - 24) < 1e-6

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, -2], [1, 2])
        with pytest.raises(ValueError):
            fit_power_law([3, 3], [1, 2])


class TestBounds:
    def test_headline_bound(self):
        assert headline_bound(1024, 10) == 10 * 10  # min(log2 1024, 10) = 10
        assert headline_bound(16, 100) == 100 * 4  # log side binds
        assert headline_bound(1, 0) == 1.0

    def test_bound_ratios(self):
        ratios = bound_ratios([100], [256], [10])
        assert abs(ratios[0] - 100 / (10 * 8)) < 1e-9


class TestSizes:
    def test_geometric(self):
        sizes = geometric_sizes(10, 1000, 5)
        assert sizes[0] == 10
        assert sizes[-1] == 1000
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_invalid(self):
        with pytest.raises(ValueError):
            geometric_sizes(10, 5, 3)


class TestTables:
    def test_format_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "30" in lines[-1]

    def test_verdict_returns_flag(self, capsys):
        assert verdict("x", True, "det") is True
        assert verdict("y", False) is False
        out = capsys.readouterr().out
        assert "REPRODUCED" in out and "NOT REPRODUCED" in out


def small_trace():
    tr = Tracer()
    m = RoundMetrics(observer=tr)
    with tr.span("run", kind="run", n=4):
        with tr.span("bfs", kind="phase"):
            tr.on_round(1, messages=2, words=4, max_edge_words=2)
            m.tag_phase("bfs", 1, messages=2, words=4)
        with tr.span("call", kind="call", parallel=True, root=0, size=3):
            m.charge("merge", 5, words=9)
    return tr


class TestTraceView:
    def test_load_trace_from_lines_and_path(self, tmp_path):
        tr = small_trace()
        lines = list(tr.to_jsonl_lines())
        root = load_trace(lines)
        assert root.name == "run" and len(root.children) == 2
        f = tmp_path / "t.jsonl"
        f.write_text("\n".join(lines) + "\n")
        assert load_trace(str(f)).total_rounds() == root.total_rounds() == 6

    def test_load_trace_rejects_garbage(self):
        with pytest.raises(TraceFormatError, match="trace line 1 is not JSON"):
            load_trace(["not json"])
        with pytest.raises(ValueError):
            load_trace(['{"type": "trace", "version": 1}'])  # header only
        with pytest.raises(TraceFormatError, match="unsupported trace format version 2"):
            load_trace(['{"type": "trace", "version": 2}'])

    def test_load_trace_stitches_multiple_roots(self):
        tr = small_trace()
        with tr.span("run", kind="run"):  # a second top-level run
            pass
        root = load_trace(list(tr.to_jsonl_lines()))
        assert root.name == "traces" and len(root.children) == 2

    def test_render_tree_shows_rounds_and_structure(self):
        root = load_trace(list(small_trace().to_jsonl_lines()))
        out = render_trace_tree(root)
        lines = out.splitlines()
        assert lines[0].startswith("run")
        assert "· 6 rounds" in lines[0]
        assert any("bfs" in ln and "1 rounds" in ln for ln in lines)
        assert any("call" in ln and "size=3" in ln for ln in lines)

    def test_render_tree_prunes_with_summary(self):
        root = load_trace(list(small_trace().to_jsonl_lines()))
        out = render_trace_tree(root, min_rounds=100)
        assert "(+2 spans under 100 rounds)" in out

    def test_phase_timeline_from_span_metrics_and_mapping(self):
        root = load_trace(list(small_trace().to_jsonl_lines()))
        from_span = render_phase_timeline(root)
        assert "merge" in from_span and "#" in from_span
        m = RoundMetrics()
        m.charge("merge", 5)
        m.tag_phase("bfs", 1)
        from_metrics = render_phase_timeline(m)
        assert from_metrics.splitlines()[0].startswith("merge")  # sorted desc
        assert render_phase_timeline({"a": 3}).startswith("a")
        with pytest.raises(TypeError):
            render_phase_timeline(42)

    def test_phase_timeline_empty(self):
        assert render_phase_timeline({}) == "(no phase data)"
