"""The ``("v", id)`` node wrapping, kept as a reference for the ranks.

:func:`repro.core.algorithm._wrap` runs the pipeline on int ranks: the
node with the ``r``-th smallest ID becomes ``r``.  Before that, every
node travelled as the tuple ``("v", id)``, which the bandwidth meter
charges as a tag word plus the ID.  :func:`wrap_reference` is that
wrapping with the same signature, so a test can swap it in for
``_wrap`` and compare the two runs (``test_rank_differential.py``).
"""

from __future__ import annotations

from repro.planar.graph import Graph


def wrap_reference(graph: Graph) -> tuple[Graph, dict]:
    """``graph`` with each node ``v`` as ``("v", v)``, and the map back."""
    wrapped = Graph()
    for v in graph.nodes():
        wrapped.add_node(("v", v))
    for u, v in graph.edges():
        wrapped.add_edge(("v", u), ("v", v))
    return wrapped, {("v", v): v for v in graph.nodes()}
