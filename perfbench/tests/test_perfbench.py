"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT, seed: int = 1):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "diagnostic" in json.loads(lines[-2])
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_by_name_and_unit(workload, trace):
    result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and v >= 0 for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())


def test_exact_counts_repeat_for_a_seed():
    first, second = (result_of(run_bench("certify-churn", 0, seed=3)) for _ in range(2))
    for name in ("rounds_per_op", "words_per_op"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("outerplanar", 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture
def layers():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    try:
        import layers

        yield layers
    finally:
        sys.path.remove(str(BENCH))
        sys.path.remove(str(ROOT / "src"))


def test_wrappers_roll_up_and_restore(layers):
    import repro.core.algorithm as algorithm
    import repro.primitives.leader as leader
    from repro import distributed_planar_embedding
    from repro.planar.generators import random_outerplanar

    original = leader.elect_leader
    clock = layers.LayerClock()
    instrumentation = layers.Instrumentation(clock)
    instrumentation.install()
    try:
        # ``from ..primitives.leader import elect_leader`` copies are patched too.
        assert algorithm.elect_leader is not original
        with pytest.raises(RuntimeError, match="still installed"):
            layers.assert_untraced()
        clock.call_root(distributed_planar_embedding, random_outerplanar(40, seed=2))
    finally:
        instrumentation.restore()
    assert algorithm.elect_leader is original and leader.elect_leader is original
    layers.assert_untraced()
    assert sum(clock.self_s.values()) == pytest.approx(clock.root_wall_s, rel=1e-9)
    for layer in ("planar", "core", "primitives", "congest", "other"):
        assert clock.self_s[layer] > 0, layer
    assert clock.layer_calls("planar.scoped") > 0
