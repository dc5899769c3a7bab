"""repro — reproduction of *Distributed Algorithms for Planar Networks I:
Planar Embedding* (Ghaffari & Haeupler, PODC 2016).

Quickstart::

    from repro import distributed_planar_embedding
    from repro.planar.generators import grid_graph

    result = distributed_planar_embedding(grid_graph(8, 8))
    print(result.rounds, result.rotation[0])

Packages:

* ``repro.congest``    — the CONGEST model simulator (rounds, bandwidth,
  metrics, pipelined cost formulas);
* ``repro.primitives`` — distributed building blocks as real node
  programs (leader election, BFS, convergecast, splitter);
* ``repro.planar``     — the centralized planar toolkit (rotation
  systems, LR planarity kernel, biconnectivity, generators, verifier);
* ``repro.core``       — the paper's algorithm (parts, interfaces,
  merges, symmetry breaking, recursion, baseline);
* ``repro.certify``    — distributed certification: O(log n)-bit proof
  labels, a CONGEST verifier, and an adversarial tamper harness;
* ``repro.analysis``   — scaling fits and table helpers for benchmarks.
"""

from .certify import build_certificates, run_tamper_suite, verify_distributed
from .core import (
    DistributedPlanarEmbedding,
    EmbeddingResult,
    NonPlanarNetworkError,
    distributed_planar_embedding,
    distributed_planarity_test,
    trivial_baseline_embedding,
)
from .planar import Graph, RotationSystem, verify_planar_embedding

__version__ = "1.0.0"

__all__ = [
    "distributed_planar_embedding",
    "distributed_planarity_test",
    "DistributedPlanarEmbedding",
    "trivial_baseline_embedding",
    "EmbeddingResult",
    "NonPlanarNetworkError",
    "Graph",
    "RotationSystem",
    "verify_planar_embedding",
    "build_certificates",
    "verify_distributed",
    "run_tamper_suite",
    "__version__",
]
