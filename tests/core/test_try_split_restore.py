"""Rejection-path regression: ``try_split`` must restore ``ctx.current``
*exactly* — including adjacency insertion order.

A rejected split-off rolls the evolving graph back from dict snapshots.
Naively re-adding the removed ``(u, coordinator)`` edges would append
them at the *back* of the neighbor dicts, silently permuting iteration
order — and downstream determinism (boundary enumeration, canonical
sorts, the whole bit-identical-ledger contract) rides on that order.
These tests spy on every ``try_split`` call during full pipeline runs on
seeded workloads known to produce rejections, snapshotting the adjacency
structure (and the split oracle's witness rotation) beforehand and
asserting exact equality after every rejection.
"""

import pytest

from repro import distributed_planar_embedding
from repro.core import recursion as recursion_mod
from repro.planar.generators import random_maximal_planar

# Seeded instances whose recursions reject at least one multi-edge
# bundle split (asserted below, so a generator change can't silently
# turn these into no-op tests).
REJECTION_CASES = [
    ("maximal-48-s2", lambda: random_maximal_planar(48, seed=2)),
    ("maximal-64-s3", lambda: random_maximal_planar(64, seed=3)),
    ("maximal-48-s8", lambda: random_maximal_planar(48, seed=8)),
    ("maximal-64-s8", lambda: random_maximal_planar(64, seed=8)),
]


def _spy_try_split(monkeypatch, seen):
    """Wrap RecursionContext.try_split with a pre/post structure check."""
    original = recursion_mod.RecursionContext.try_split

    def spy(self, copy, coordinator, rerouted):
        adj = self.current._adj
        pre_nodes = list(adj)
        pre_rings = {v: list(neighbors) for v, neighbors in adj.items()}
        pre_num_edges = self.current.num_edges
        rotation = self.oracle.rotation
        pre_rotation = None if rotation is None else dict(rotation)
        accepted = original(self, copy, coordinator, rerouted)
        if not accepted:
            seen["rejections"] += 1
            # Node set, node insertion order, and every per-vertex
            # neighbor iteration order must match the pre-split snapshot.
            assert list(adj) == pre_nodes
            for v in pre_nodes:
                assert list(adj[v]) == pre_rings[v], (
                    f"adjacency order of {v!r} changed across a rejected split"
                )
            assert self.current.num_edges == pre_num_edges
            # The oracle's witness rotation survives a rejection as is.
            assert self.oracle.rotation == pre_rotation
        else:
            seen["accepts"] += 1
        return accepted

    monkeypatch.setattr(recursion_mod.RecursionContext, "try_split", spy)


# "optimized" names the pipeline's own oracle and index, as in the
# differential suite's test_optimized_matches_reference.
@pytest.mark.parametrize(
    "name,make", REJECTION_CASES, ids=[f"optimized-{n}" for n, _ in REJECTION_CASES]
)
def test_rejection_restores_graph_exactly(name, make, monkeypatch):
    seen = {"rejections": 0, "accepts": 0}
    _spy_try_split(monkeypatch, seen)
    result = distributed_planar_embedding(make())
    assert result.rotation  # the run completed and embedded
    assert seen["rejections"] > 0, (
        f"{name} no longer produces a split rejection; pick a new seed"
    )
    assert result.split_rejections == seen["rejections"]
