"""Fallback behavior of the shard dispatch layer.

Whatever goes wrong on the worker side — the pool dying, a worker
raising, a stale snapshot failing journal replay — the parent must fall
back to inline recomputation and produce output bit-identical to the
sequential path.  These tests sabotage each layer in turn and hold the
results to the sequential fingerprint.
"""

import json

import pytest

import repro.shard.dispatch as dispatch
from repro import distributed_planar_embedding
from repro.planar.generators import grid_graph, random_outerplanar


@pytest.fixture
def shard_env(monkeypatch):
    monkeypatch.delenv("REPRO_REFERENCE_PATHS", raising=False)
    monkeypatch.setenv("REPRO_SHARD_MIN_SHIP", "4")


def _report(result):
    return json.dumps(result.to_report(), sort_keys=True, default=str)


# The sabotage callables must live at module level: the pool pickles the
# submitted function by reference, and fork-started workers resolve that
# reference against their (inherited) copy of this module.
_ORIGINAL_RUN_UNIT = dispatch.run_unit


def _boom(sub):
    raise RuntimeError("sabotaged worker")


def _corrupt_first_verdict(sub):
    """Run the real worker, then flip the first journaled split verdict."""
    entries = _ORIGINAL_RUN_UNIT(sub)
    for entry in entries:
        if entry.get("splits"):
            copy, coordinator, rerouted, verdict = entry["splits"][0]
            entry["splits"][0] = (copy, coordinator, rerouted, not verdict)
    return entries


def test_worker_exception_falls_back_inline(shard_env, monkeypatch):
    sequential = _report(distributed_planar_embedding(grid_graph(8, 8)))

    # The raising callable propagates through the future, so every
    # shipped subtree must fall back via the pool-error path.
    monkeypatch.setattr(dispatch, "run_unit", _boom)
    result = distributed_planar_embedding(grid_graph(8, 8), shard_workers=2)
    assert _report(result) == sequential
    stats = result.shard_stats
    assert stats["subtrees_shipped"] > 0
    assert stats["fallback_pool_error"] == stats["subtrees_shipped"]
    assert stats["subtrees_adopted"] == 0


def test_replay_mismatch_falls_back_inline(shard_env, monkeypatch):
    # Outerplanar instances journal splits inside shipped subtrees
    # (grids at this size do not), so verdict corruption is observable:
    # replay must diverge, roll back, and recompute inline.
    sequential = _report(distributed_planar_embedding(random_outerplanar(60, seed=3)))

    # The rollback must also put the oracle's planar rotation back: the
    # mismatching replayed split was applied to it before the verdict
    # was compared, and a stale rotation would make a later witness
    # "yes" unsound.
    rollbacks = []
    original_replay = dispatch.ShardRuntime._replay

    def checked_replay(self, ctx, splits):
        rotation = ctx.oracle.rotation
        before = None if rotation is None else dict(rotation)
        adopted = original_replay(self, ctx, splits)
        if not adopted:
            assert ctx.oracle.rotation == before
            rollbacks.append(before is not None)
        return adopted

    monkeypatch.setattr(dispatch.ShardRuntime, "_replay", checked_replay)
    monkeypatch.setattr(dispatch, "run_unit", _corrupt_first_verdict)
    result = distributed_planar_embedding(
        random_outerplanar(60, seed=3), shard_workers=2
    )
    assert _report(result) == sequential
    stats = result.shard_stats
    assert stats["subtrees_shipped"] > 0
    assert stats["fallback_replay_mismatch"] > 0
    assert len(rollbacks) == stats["fallback_replay_mismatch"]
    assert any(rollbacks), "no rollback happened while a rotation was held"


def test_sequential_settings_bypass_runtime(shard_env):
    for w in (0, 1):
        result = distributed_planar_embedding(grid_graph(5, 5), shard_workers=w)
        assert result.shard_stats is None


def test_negative_shard_workers_rejected():
    with pytest.raises(ValueError):
        distributed_planar_embedding(grid_graph(3, 3), shard_workers=-1)
