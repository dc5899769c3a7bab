"""Node IDs cost one word whatever their form (paper Section 2).

The pipeline runs on the ranks of the IDs in sorted order, so a run
depends only on the order of the IDs: long names, floats and tuples
embed within the bandwidth budget, and any strictly increasing
relabeling gives the same ledger and, mapped back, the same leader and
rotation.  IDs that cannot be compared cannot be ranked, and the entry
points reject them with a ``ValueError``.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import distributed_planar_embedding
from repro.__main__ import main
from repro.congest.errors import BandwidthExceededError
from repro.core import DistributedPlanarEmbedding, trivial_baseline_embedding
from repro.planar.generators import random_planar
from repro.planar.graph import Graph
from tests.integration.generated import (
    PLANAR_FAMILIES,
    as_ranks,
    networkx_accepts,
    relabeled,
)

# Strictly increasing maps of the IDs 0..n-1.
RELABELINGS = {
    "big-int": lambda v: v * 10**6 + 7,
    "long-name": lambda v: f"node-{v:036d}",
    "tuple": lambda v: ("t", v),
    "float": lambda v: v + 0.5,
}


def test_forty_one_character_names_embed():
    graph = relabeled(random_planar(40, 80, 3), RELABELINGS["long-name"])
    result = distributed_planar_embedding(graph)
    assert networkx_accepts(graph, result.rotation)
    assert result.metrics.max_words_edge_round <= 8


def test_forty_one_character_names_embed_from_a_file(tmp_path, capsys):
    graph = relabeled(random_planar(40, 80, 3), RELABELINGS["long-name"])
    path = tmp_path / "named.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges()))
    assert main([str(path), "--quiet"]) == 0
    assert "planar embedding in" in capsys.readouterr().out


def test_float_ids_embed():
    graph = Graph(edges=[(0.5, 1.5), (1.5, 2.5), (2.5, 0.5)])
    result = distributed_planar_embedding(graph)
    assert result.leader == 2.5
    assert set(result.rotation) == {0.5, 1.5, 2.5}


@pytest.mark.parametrize(
    "embed", [DistributedPlanarEmbedding, trivial_baseline_embedding], ids=["algorithm", "baseline"]
)
def test_ids_that_cannot_be_ranked_are_a_value_error(embed):
    graph = Graph(edges=[(1, "a"), ("a", 2), (2, 1)])
    with pytest.raises(ValueError, match="mutually comparable.*'(str|int)' and '(str|int)'"):
        embed(graph)


@pytest.mark.parametrize("family", sorted(PLANAR_FAMILIES))
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_increasing_relabelings_give_the_same_run(family, seed, n):
    graph = as_ranks(PLANAR_FAMILIES[family](random.Random(seed), n))
    base = distributed_planar_embedding(graph)
    for f in RELABELINGS.values():
        run = distributed_planar_embedding(relabeled(graph, f))
        assert run.metrics.to_dict() == base.metrics.to_dict()
        assert run.leader == f(base.leader)
        assert run.rotation == {
            f(v): tuple(map(f, ring)) for v, ring in base.rotation.items()
        }


def _over_budget(words):
    return pytest.mark.xfail(
        strict=True,
        raises=BandwidthExceededError,
        reason=f"open defect: certification sends {words} words against its 24-word budget",
    )


# Certification still runs on the caller's IDs, not on ranks, so a label
# naming a long ID overruns the verifier's budget.  Each case names the
# words its run sends now, and passes once certification runs on ranks.
@pytest.mark.parametrize(
    "relabel",
    [
        pytest.param(lambda v: f"sensor-node-{v:08d}", id="sensor-node", marks=_over_budget(31)),
        pytest.param(lambda v: ("t", 900 - v, v), id="tuple", marks=_over_budget(25)),
        pytest.param(lambda v: v * 10**6 + 7, id="big-int", marks=_over_budget(26)),
    ],
)
def test_long_ids_certify_within_the_label_budget(relabel):
    graph = relabeled(random_planar(20, 40, 3), relabel)
    assert distributed_planar_embedding(graph, certify=True).certification.accepted
