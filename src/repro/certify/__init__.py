"""Distributed certification: self-verifying planar embeddings.

The embedding pipeline's output — per-vertex clockwise orders scattered
across the network — was previously checkable only by gathering it all
centrally.  This package makes the output *self-verifying* in the
proof-labeling sense (Korman-Kutten-Peleg; planarity: Feuilloley et
al., PODC 2020):

* :mod:`~repro.certify.labels` — the O(log n)-bit per-node certificates;
* :mod:`~repro.certify.prover` — certificate construction after the
  embedding terminates (election + BFS + convergecast, O(D) rounds);
* :mod:`~repro.certify.verifier` — the distributed verifier, a real
  CONGEST node program: one label exchange per edge, local predicate
  checks, network-wide verdict in O(D) rounds, all ledgered and traced;
* :mod:`~repro.certify.adversary` — the tamper harness asserting
  soundness: every corruption class is rejected by at least one node;
* :mod:`~repro.certify.compact` — the O(log n)-*bit* packed label codec
  and the shim that verifies packed labels with the unchanged verifier;
* :mod:`~repro.certify.delta` — incremental re-certification: patch
  only the dirty region under edge churn or after a chaos heal, with a
  full-rebuild fallback past a dirty-region threshold.
"""

from .adversary import (
    TAMPER_CLASSES,
    TamperOutcome,
    TamperSuiteReport,
    apply_tamper,
    run_tamper_suite,
)
from .compact import (
    CompactCertificateSet,
    CompactDecodeError,
    encode_certificates,
    packed_bit_lengths,
    verify_compact,
)
from .delta import (
    DEFAULT_FALLBACK_RATIO,
    ChurnReport,
    DynamicCertifiedEmbedding,
    PatchRecord,
    RepairOutcome,
    repair_certificates,
)
from .labels import CertificateSet, DartLabel, NodeCertificate
from .prover import build_certificates, face_labels
from .verifier import (
    CertificationReport,
    CertVerifierProgram,
    Rejection,
    centralized_check_rounds,
    verify_distributed,
)

__all__ = [
    "CertificateSet",
    "DartLabel",
    "NodeCertificate",
    "build_certificates",
    "face_labels",
    "CertVerifierProgram",
    "CertificationReport",
    "Rejection",
    "verify_distributed",
    "centralized_check_rounds",
    "TamperOutcome",
    "TamperSuiteReport",
    "TAMPER_CLASSES",
    "apply_tamper",
    "run_tamper_suite",
    "CompactCertificateSet",
    "CompactDecodeError",
    "encode_certificates",
    "packed_bit_lengths",
    "verify_compact",
    "ChurnReport",
    "DynamicCertifiedEmbedding",
    "DEFAULT_FALLBACK_RATIO",
    "PatchRecord",
    "RepairOutcome",
    "repair_certificates",
]
