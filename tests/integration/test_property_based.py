"""Property-based end-to-end testing on randomly generated planar graphs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import distributed_planar_embedding
from repro.planar import verify_planar_embedding
from repro.planar.generators import (
    random_maximal_planar,
    random_outerplanar,
    random_planar,
    random_tree,
    subdivide,
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def embed_and_verify(g):
    result = distributed_planar_embedding(g)
    verify_planar_embedding(g, result.rotation)
    return result


@SLOW
@given(n=st.integers(min_value=3, max_value=45), seed=st.integers(0, 10**6))
def test_random_planar_graphs(n, seed):
    g = random_planar(n, 2 * n, seed)
    embed_and_verify(g)


@SLOW
@given(n=st.integers(min_value=3, max_value=40), seed=st.integers(0, 10**6))
def test_maximal_planar_graphs(n, seed):
    embed_and_verify(random_maximal_planar(n, seed))


@SLOW
@given(n=st.integers(min_value=3, max_value=40), seed=st.integers(0, 10**6))
def test_outerplanar_graphs(n, seed):
    embed_and_verify(random_outerplanar(n, seed))


@SLOW
@given(n=st.integers(min_value=2, max_value=60), seed=st.integers(0, 10**6))
def test_trees(n, seed):
    embed_and_verify(random_tree(n, seed))


@SLOW
@given(
    n=st.integers(min_value=3, max_value=14),
    seed=st.integers(0, 10**6),
    segments=st.integers(min_value=2, max_value=4),
)
def test_subdivided_planar_graphs(n, seed, segments):
    g = subdivide(random_planar(n, 2 * n, seed), segments)
    embed_and_verify(g)


@SLOW
@given(n=st.integers(min_value=5, max_value=30), seed=st.integers(0, 10**6))
def test_rounds_never_exceed_gather_everything(n, seed):
    """Sanity cap: the algorithm must stay within a small factor of the
    trivial O(n) bound even on adversarial small instances."""
    g = random_planar(n, 2 * n, seed)
    result = embed_and_verify(g)
    assert result.rounds <= 120 * n
