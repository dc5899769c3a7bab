"""The `python -m repro` command-line interface."""

import json

import pytest

from repro import distributed_planar_embedding
from repro.__main__ import load_edgelist, main
from repro.analysis import load_trace
from repro.core.assembly import AssemblyError
from repro.obs import load_flight
from repro.obs.flightrec import DRIVER_LANE
from repro.planar.generators import grid_graph
from repro.planar.verify import EmbeddingViolation

# Both exit 3: the referee rejecting the output, and an internal error
# of the run (a tree's pendants go through assembly).
INJECTED_FAILURES = [
    ("repro.core.algorithm.verify_planar_embedding", EmbeddingViolation,
     "result: EMBEDDING REJECTED — injected failure"),
    ("repro.core.unrestricted.assemble", AssemblyError,
     "result: INTERNAL ERROR — AssemblyError: injected failure"),
]


def run_failing(monkeypatch, target, error, flags):
    """``--demo tree 40 <flags>`` with ``target`` raising ``error``."""

    def fail(*args, **kwargs):
        raise error("injected failure")

    with monkeypatch.context() as patch:
        patch.setattr(target, fail)
        return main(["--demo", "tree", "40", *flags])


def test_demo_grid(capsys):
    code = main(["--demo", "grid", "4", "4", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=16" in out
    assert "planar embedding in" in out
    assert "round ledger" in out


def test_demo_rotations_printed(capsys):
    main(["--demo", "cycle", "5"])
    out = capsys.readouterr().out
    assert "clockwise edge orders" in out
    assert "  0: " in out


def test_baseline_mode(capsys):
    code = main(["--demo", "grid", "3", "3", "--baseline", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "baseline" in out


def test_nonplanar_exit_code_and_witness(tmp_path, capsys):
    f = tmp_path / "k5.txt"
    f.write_text(
        "# complete graph on 5 nodes\n"
        + "\n".join(f"{i} {j}" for i in range(5) for j in range(i + 1, 5))
    )
    code = main([str(f), "--quiet"])
    out = capsys.readouterr().out
    assert code == 1
    assert "NOT PLANAR" in out
    assert "K5 subdivision" in out


def test_edgelist_parsing(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2  # comment\n\n2 0\n")
    g = load_edgelist(str(f))
    assert g.num_nodes == 3
    assert g.num_edges == 3


def test_edgelist_bad_line(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="expected two node IDs"):
        load_edgelist(str(f))
    with pytest.raises(SystemExit) as exc:
        main([str(f)])
    assert exc.value.code == 2


def test_requires_exactly_one_input(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_unknown_demo_family():
    with pytest.raises(SystemExit) as exc:
        main(["--demo", "hypercube", "3"])
    assert exc.value.code == 2


# Tokens that str.isdigit accepts but that are not ASCII integers: each
# file mixes one with integer IDs on the given line.
NON_ASCII_INT_FILES = {
    "arabic-indic-digit": ("\u0663 4\n3 5\n4 5\n", 1),
    "double-minus": ("0 1\n1 --2\n", 2),
    "superscript-digit": ("0 1\n1 \u00b2\n", 2),
}


@pytest.mark.parametrize(
    "case",
    ["missing-file", "mixed-ids", "non-integer-demo", "bad-trace", "empty", "disconnected",
     *NON_ASCII_INT_FILES],
)
def test_malformed_input_is_usage_error(case, tmp_path, capsys):
    """Exit 1 means "not planar"; input the CLI cannot read exits 2."""
    f = tmp_path / "input.txt"
    if case == "mixed-ids":
        f.write_text("a 1\n1 2\n2 a\n")
    elif case in NON_ASCII_INT_FILES:
        f.write_text(NON_ASCII_INT_FILES[case][0], encoding="utf-8")
    elif case == "bad-trace":
        f.write_text("this is not a trace\n")
    elif case == "empty":
        f.write_text("# no edges\n")
    elif case == "disconnected":
        f.write_text("0 1\n2 3\n")
    argv = {
        "missing-file": [str(tmp_path / "nosuch.txt")],
        "mixed-ids": [str(f)],
        "empty": [str(f)],
        "disconnected": [str(f)],
        "non-integer-demo": ["--demo", "grid", "x", "3"],
        "bad-trace": ["--view-trace", str(f)],
        **{name: [str(f)] for name in NON_ASCII_INT_FILES},
    }[case]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    if case in NON_ASCII_INT_FILES:
        line = NON_ASCII_INT_FILES[case][1]
        assert f"{f}:{line}: node IDs mix integers and strings" in err


def test_bandwidth_flag(capsys):
    code = main(["--demo", "grid", "4", "4", "--bandwidth", "8", "--quiet"])
    assert code == 0


@pytest.mark.parametrize("extra", [[], ["--baseline"]], ids=["pipeline", "baseline"])
@pytest.mark.parametrize("bandwidth", ["0", "-3"])
def test_bandwidth_below_one_is_usage_error(bandwidth, extra):
    with pytest.raises(SystemExit) as exc:
        main(["--demo", "grid", "4", "4", "--bandwidth", bandwidth, *extra])
    assert exc.value.code == 2


class TestCertification:
    def test_certify_accepts_and_exits_zero(self, capsys):
        code = main(["--demo", "grid", "4", "4", "--certify", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certification ACCEPTED by all 16 nodes" in out
        assert "certify:" in out  # the ledger shows the new phases

    def test_certify_adversary_all_detected(self, capsys):
        code = main(["--demo", "trigrid", "4", "4", "--certify-adversary", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tamper suite: 15/15 detected" in out
        assert "rejected by node" in out
        assert "MISSED" not in out

    def test_certify_with_baseline(self, capsys):
        code = main(["--demo", "grid", "3", "3", "--baseline", "--certify", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "certification ACCEPTED" in out

    def test_certify_json_report(self, capsys):
        code = main(["--demo", "maximal", "20", "--certify-adversary", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["certification"]["accepted"] is True
        assert report["certification"]["rounds"] > 0
        assert report["certificates"]["nodes"] == 20
        assert report["tamper_suite"]["all_detected"] is True

    def test_rejected_embedding_exits_three(self, monkeypatch, capsys):
        for target, error, line in INJECTED_FAILURES:
            code = run_failing(monkeypatch, target, error, ["--quiet"])
            out = capsys.readouterr().out
            assert code == 3, error
            assert line in out

    def test_rejected_embedding_json_exits_three(self, monkeypatch, capsys):
        for target, error, _ in INJECTED_FAILURES:
            code = run_failing(monkeypatch, target, error, ["--json"])
            report = json.loads(capsys.readouterr().out)
            assert code == 3, error
            assert report["planar"] is None and report["accepted"] is False
            assert "injected failure" in report["error"]


class TestFaults:
    def test_chaos_run_heals_and_exits_zero(self, tmp_path, capsys):
        flight, trace, perfetto = (
            tmp_path / "flight.jsonl", tmp_path / "trace.jsonl", tmp_path / "perfetto.json"
        )
        code = main([
            "--demo", "grid", "4", "4",
            "--faults", "drop=0.05,corrupt=0.02", "--fault-seed", "7", "--quiet",
            "--causal", "--flight", str(flight), "--trace", str(trace),
            "--perfetto", str(perfetto),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-healing" in out
        assert "chaos schedule: seed=7" in out
        assert "recovery" in out  # the ledger shows the overhead phase
        assert "certification ACCEPTED" in out
        # Every recorder rode the one event path of the same chaos run.
        (causal,) = [line for line in out.splitlines() if line.startswith("causal:")]
        critical = int(causal.split("critical path ")[1].split()[0])
        real = int(causal.split("; ")[1].split()[0])
        assert 0 < critical <= real
        kinds = {ev["kind"] for ev in load_flight(flight)}
        assert {"send", "deliver"} <= kinds
        assert kinds & {"drop", "corruption-detected"}
        faults = [ev for sp in load_trace(trace).walk() for ev in sp.events
                  if ev.name == "fault"]
        assert faults
        events = json.loads(perfetto.read_text())["traceEvents"]
        assert any(e.get("pid") == 2 and e.get("ph") == "X" for e in events)

    def test_degraded_exits_four(self, tmp_path, capsys):
        flight = tmp_path / "flight.jsonl"
        code = main([
            "--demo", "path", "4",
            "--faults", "drop=0.9", "--max-retries", "0", "--quiet",
            "--flight", str(flight),
        ])
        out = capsys.readouterr().out
        assert code == 4
        assert "DEGRADED" in out
        assert "healing attempts: 1" in out
        # finish() is the one place the dump is written and announced.
        assert out.count("flight recorder dumped") == 1
        assert f"flight recorder dumped to {flight}" in out.splitlines()
        last = load_flight(flight)[-1]
        assert last["kind"] == "error"
        assert last["node"] == repr(DRIVER_LANE)

    def test_degraded_json_report(self, capsys):
        code = main([
            "--demo", "path", "4",
            "--faults", "drop=0.9", "--max-retries", "0", "--json",
        ])
        captured = capsys.readouterr()
        assert code == 4
        report = json.loads(captured.out)
        assert report["type"] == "degraded-report"
        assert report["planar"] is None
        assert report["healing"]["attempts"] == 1
        assert report["fault_stats"]["faults_injected"] > 0
        assert "DEGRADED" in captured.err

    def test_healed_json_report_carries_fault_stats(self, capsys):
        code = main([
            "--demo", "grid", "4", "4",
            "--faults", "drop=0.05", "--fault-seed", "3", "--json",
        ])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["algorithm"] == "theorem-1.1-self-healing"
        assert report["fault_stats"]["dropped"] > 0
        assert report["certification"]["accepted"] is True
        assert "recovery" in report["metrics"]["phases"]

    def test_fault_seed_reproducible(self, capsys):
        args = ["--demo", "grid", "4", "4", "--faults", "drop=0.1,dup=0.05",
                "--fault-seed", "11", "--json"]
        first = (main(args), capsys.readouterr().out)
        second = (main(args), capsys.readouterr().out)
        # wall_s differs between runs; everything else must not
        a, b = json.loads(first[1]), json.loads(second[1])
        a.pop("wall_s"), b.pop("wall_s")
        assert first[0] == second[0] == 0
        assert a == b

    def test_bad_fault_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["--demo", "grid", "3", "3", "--faults", "warp=0.5"])
        assert info.value.code == 2

    def test_faults_with_baseline_conflict(self):
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "3", "3", "--baseline", "--faults", "drop=0.1"])

    def test_nonplanar_under_faults_still_exits_one(self, tmp_path, capsys):
        f = tmp_path / "k5.txt"
        f.write_text(
            "\n".join(f"{i} {j}" for i in range(5) for j in range(i + 1, 5))
        )
        code = main([str(f), "--faults", "drop=0.02", "--quiet"])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT PLANAR" in out


class TestSeededDemos:
    def test_seed_reproducible(self, capsys):
        main(["--demo", "maximal", "18", "--seed", "7"])
        first = capsys.readouterr().out
        main(["--demo", "maximal", "18", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_instance(self, capsys):
        main(["--demo", "outerplanar", "18", "--seed", "1"])
        first = capsys.readouterr().out
        main(["--demo", "outerplanar", "18", "--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_new_demo_families(self, capsys):
        assert main(["--demo", "tree", "12", "--quiet"]) == 0
        assert main(["--demo", "outerplanar", "12", "--quiet"]) == 0


class TestTracing:
    def test_trace_stdout_is_valid_jsonl_matching_result(self, capsys):
        """Satellite: `--demo grid 6 6 --trace -` emits valid JSONL whose
        root span's round total equals the run's EmbeddingResult.rounds."""
        code = main(["--demo", "grid", "6", "6", "--trace", "-"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "trace"
        assert all(json.loads(ln) for ln in lines[1:])  # every line parses
        root = load_trace(lines)
        expected = distributed_planar_embedding(grid_graph(6, 6))
        assert root.total_rounds() == expected.rounds
        # human-facing report moved to stderr, stdout is machine-clean
        assert "planar embedding in" in captured.err

    def test_trace_to_file(self, tmp_path, capsys):
        f = tmp_path / "run.jsonl"
        code = main(["--demo", "cycle", "8", "--trace", str(f), "--quiet"])
        assert code == 0
        root = load_trace(str(f))
        assert root.kind == "run"
        assert root.total_rounds() > 0

    def test_json_report(self, capsys):
        code = main(["--demo", "grid", "4", "4", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["planar"] is True
        assert report["n"] == 16
        assert report["rounds"] == report["metrics"]["rounds"] > 0
        assert "wall_s" in report

    def test_json_report_nonplanar(self, tmp_path, capsys):
        f = tmp_path / "k5.txt"
        f.write_text(
            "\n".join(f"{i} {j}" for i in range(5) for j in range(i + 1, 5))
        )
        code = main([str(f), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["planar"] is False
        assert report["witness"]["kind"] == "K5"
        assert report["witness"]["nodes"] == 5

    def test_view_trace(self, tmp_path, capsys):
        f = tmp_path / "run.jsonl"
        main(["--demo", "grid", "4", "4", "--trace", str(f), "--quiet"])
        capsys.readouterr()
        code = main(["--view-trace", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run" in out and "rounds" in out

    @pytest.mark.parametrize("exit_code", [1, 3])
    def test_perfetto_written_on_failed_runs(self, exit_code, tmp_path, monkeypatch, capsys):
        """A non-planar input (exit 1) or a rejected embedding (exit 3)
        still writes both the trace and the Perfetto file."""
        if exit_code == 1:
            f = tmp_path / "k5.txt"
            f.write_text("\n".join(f"{i} {j}" for i in range(5) for j in range(i + 1, 5)))
            source = [str(f)]
        else:
            def always_reject(graph, order):
                raise EmbeddingViolation("injected failure")

            monkeypatch.setattr(
                "repro.core.algorithm.verify_planar_embedding", always_reject
            )
            source = ["--demo", "grid", "3", "3"]
        trace, perfetto = tmp_path / "t.jsonl", tmp_path / "p.json"
        code = main(source + [
            "--trace", str(trace), "--perfetto", str(perfetto), "--quiet",
        ])
        assert code == exit_code
        assert load_trace(str(trace)).kind == "run"
        assert json.loads(perfetto.read_text())["traceEvents"]

    def test_json_with_trace_stdout_conflict(self):
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--json", "--trace", "-"])

    def test_trace_with_baseline_conflict(self):
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--baseline", "--trace", "-"])


class TestChurn:
    def test_incremental_churn_exits_zero(self, capsys):
        code = main(["--demo", "grid", "5", "5", "--churn", "4",
                     "--incremental-certify", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dynamic re-certification" in out
        assert "churn mode: incremental" in out
        assert "churn: 4 ops" in out
        assert "certification ACCEPTED" in out

    def test_full_rebuild_churn_json(self, capsys):
        code = main(["--demo", "grid", "4", "4", "--churn", "3", "--json", "--quiet"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        churn = report["churn"]
        assert churn["incremental"] is False
        assert churn["accepted"] is True
        assert churn["ops"] == 3
        assert len(churn["records"]) == 3
        assert all(r["mode"] == "rebuild-embed" for r in churn["records"])
        assert report["certification"]["accepted"] is True
        assert report["certification"]["label_bits_total"] > 0
        assert report["certificates"]["compact"]["bits_total"] > 0

    def test_incremental_cheaper_than_rebuild(self, capsys):
        main(["--demo", "grid", "5", "5", "--churn", "4",
              "--incremental-certify", "--json", "--quiet"])
        inc = json.loads(capsys.readouterr().out)["churn"]
        main(["--demo", "grid", "5", "5", "--churn", "4", "--json", "--quiet"])
        full = json.loads(capsys.readouterr().out)["churn"]
        assert inc["op_rounds"] < full["op_rounds"]

    def test_churn_seed_reproducible(self, capsys):
        main(["--demo", "grid", "4", "4", "--churn", "3", "--seed", "5",
              "--incremental-certify", "--json", "--quiet"])
        first = json.loads(capsys.readouterr().out)["churn"]
        main(["--demo", "grid", "4", "4", "--churn", "3", "--seed", "5",
              "--incremental-certify", "--json", "--quiet"])
        second = json.loads(capsys.readouterr().out)["churn"]
        assert first == second

    def test_churn_flag_conflicts(self):
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--incremental-certify"])
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--churn", "0"])
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--churn", "2", "--baseline"])
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--churn", "2", "--faults", "drop=0.01"])
        with pytest.raises(SystemExit):
            main(["--demo", "grid", "4", "4", "--churn", "2", "--certify-adversary"])
