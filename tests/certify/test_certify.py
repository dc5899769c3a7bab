"""The certification subsystem: completeness, soundness, accounting."""

import json
import math

import pytest

from repro.certify import (
    TAMPER_CLASSES,
    NodeCertificate,
    build_certificates,
    run_tamper_suite,
    verify_distributed,
)
from repro.certify.verifier import centralized_check_rounds
from repro.congest.metrics import RoundMetrics
from repro.core import DistributedPlanarEmbedding
from repro.obs import Tracer
from repro.planar import planar_embedding
from repro.planar.generators import (
    caterpillar,
    cycle_graph,
    grid_graph,
    k4_subdivision,
    path_graph,
    random_maximal_planar,
    random_outerplanar,
    random_tree,
    theta_graph,
    triangulated_grid,
)

WORKLOADS = [
    ("grid", lambda: grid_graph(4, 5)),
    ("trigrid", lambda: triangulated_grid(4, 4)),
    ("cycle", lambda: cycle_graph(11)),
    ("path", lambda: path_graph(8)),
    ("maximal", lambda: random_maximal_planar(26, seed=3)),
    ("outerplanar", lambda: random_outerplanar(20, seed=4)),
    ("tree", lambda: random_tree(18, seed=5)),
    ("caterpillar", lambda: caterpillar(6, 2)),
    ("theta", lambda: theta_graph(3, 4)),
    ("k4sub", lambda: k4_subdivision(2)),
]


def certified(graph):
    """Honest (rotation, certificates) for ``graph`` via the LR kernel."""
    rotation = planar_embedding(graph)
    certs = build_certificates(graph, rotation)
    rotmap = {v: tuple(rotation.order(v)) for v in graph.nodes()}
    return rotmap, certs


# -- completeness ----------------------------------------------------------


@pytest.mark.parametrize("name,make", WORKLOADS, ids=[n for n, _ in WORKLOADS])
def test_honest_certificates_accepted_everywhere(name, make):
    g = make()
    rotmap, certs = certified(g)
    report = verify_distributed(g, rotmap, certs)
    assert report.accepted, report.rejections[:3]
    assert report.announced_ok and report.announced_rejections == 0
    assert report.nodes == g.num_nodes


def test_driver_certify_end_to_end():
    g = grid_graph(5, 5)
    result = DistributedPlanarEmbedding(g, certify=True).run()
    assert result.certificates is not None
    assert result.certification is not None and result.certification.accepted
    # Certification rounds live in the same ledger under certify:* phases.
    phases = result.metrics.phase_breakdown()
    assert any(p.startswith("certify:") for p in phases)
    report = result.to_report()
    assert report["certification"]["accepted"] is True
    json.dumps(report, default=repr)  # the report stays JSON-serializable


def test_single_node_certifies_trivially():
    g = path_graph(1)
    result = DistributedPlanarEmbedding(g, certify=True).run()
    assert result.certification.accepted
    assert result.certification.rounds == 0
    (label,) = (result.certificates[v] for v in result.certificates)
    assert (label.n, label.m, label.f) == (1, 0, 1)  # the bare sphere


def test_certify_trace_rollup_matches_ledger():
    tracer = Tracer()
    result = DistributedPlanarEmbedding(
        grid_graph(4, 4), tracer=tracer, certify=True
    ).run()
    root = tracer.root
    assert root.total_rounds() == result.metrics.rounds
    names = {c.name for c in root.children}
    assert {"certify-prove", "certify-verify"} <= names


def test_verification_rounds_linear_in_diameter():
    g = grid_graph(6, 6)
    result = DistributedPlanarEmbedding(g).run()
    ledger = RoundMetrics()
    certs = build_certificates(g, result.rotation_system, metrics=ledger)
    report = verify_distributed(g, result.rotation, certs, metrics=ledger)
    assert report.accepted
    d = max(1, 2 * result.bfs_depth)
    assert ledger.rounds <= 8 * (d + 2)  # prove + verify = O(D)
    # ... which beats the Theta(n) gather-and-check baseline.
    assert ledger.rounds < centralized_check_rounds(g).rounds


def test_label_sizes_logarithmic():
    for k in (4, 6, 8):
        g = grid_graph(k, k)
        _, certs = certified(g)
        bound = 8 * math.log2(g.num_nodes)
        assert certs.mean_words() <= bound
        assert certs.max_words() <= bound  # grids are bounded-degree
    # Apollonian hubs push the max, but the mean stays O(log n) words.
    g = random_maximal_planar(40, seed=9)
    _, certs = certified(g)
    assert certs.mean_words() <= 8 * math.log2(g.num_nodes)


@pytest.mark.parametrize("missing", [False, True], ids=["honest", "one-label-missing"])
def test_verification_measures_each_label_once(missing, monkeypatch):
    """One ``verify_distributed`` call sizes every label once, and its
    five size fields equal the per-method measurements.  A missing label
    is what ``decode_lenient`` leaves for an undecodable blob."""
    g = grid_graph(5, 5)
    rotmap, certs = certified(g)
    if missing:
        del certs.labels[next(iter(certs.labels))]
    bits = certs.size_bits()
    expected = {
        "label_words_max": certs.max_words(),
        "label_words_mean": certs.mean_words(),
        "label_bits_total": sum(bits.values()),
        "label_bits_max": max(bits.values()),
        "label_bits_mean": sum(bits.values()) / len(bits),
    }
    summary = {
        "nodes": len(certs),
        "words_max": expected["label_words_max"],
        "words_mean": round(expected["label_words_mean"], 2),
        "bits_max": expected["label_bits_max"],
        "bits_mean": round(expected["label_bits_mean"], 2),
    }
    calls = [0]
    words = NodeCertificate.words

    def counting(self, bits_per_word):
        calls[0] += 1
        return words(self, bits_per_word)

    monkeypatch.setattr(NodeCertificate, "words", counting)
    report = verify_distributed(g, rotmap, certs)
    assert calls[0] == len(certs)
    assert {k: getattr(report, k) for k in expected} == expected
    assert report.accepted is not missing
    assert certs.to_dict() == summary


# -- soundness -------------------------------------------------------------


@pytest.mark.parametrize("name,make", WORKLOADS, ids=[n for n, _ in WORKLOADS])
def test_tamper_suite_fully_detected(name, make):
    g = make()
    rotmap, certs = certified(g)
    suite = run_tamper_suite(g, rotmap, certs, seed=11, trials=2)
    assert suite.all_detected, suite.summary()
    assert len(suite.outcomes) == 2 * len(TAMPER_CLASSES)
    for outcome in suite.outcomes:
        # Every rejection names the detecting node and the predicate.
        assert outcome.detecting_node is not None
        assert outcome.violated_predicate
    # The suite tampered private copies: the originals still verify.
    assert verify_distributed(g, rotmap, certs).accepted


def test_tampered_verdict_is_announced_network_wide():
    g = grid_graph(4, 4)
    rotmap, certs = certified(g)
    victim = next(iter(certs))
    certs[victim].n += 1
    report = verify_distributed(g, rotmap, certs)
    assert not report.accepted
    assert not report.announced_ok  # broadcast verdict agrees
    assert report.announced_rejections == len(report.rejections)
    assert any(r.predicate == "global-consistency" for r in report.rejections)


def test_rotation_corruption_without_certificate_change_detected():
    # Tampering the *rotation* alone (certificates stay honest) must trip
    # the face-succession predicate at some node.
    g = triangulated_grid(4, 4)
    rotmap, certs = certified(g)
    victim = next(v for v in g.nodes() if g.degree(v) >= 3)
    ring = list(rotmap[victim])
    ring[0], ring[1] = ring[1], ring[0]
    rotmap[victim] = tuple(ring)
    report = verify_distributed(g, rotmap, certs)
    assert not report.accepted
    assert any(r.predicate == "face-succession" for r in report.rejections)


def test_suite_reports_are_json_ready():
    g = cycle_graph(8)
    rotmap, certs = certified(g)
    suite = run_tamper_suite(g, rotmap, certs, seed=1, trials=1)
    payload = json.loads(json.dumps(suite.to_dict()))
    assert payload["all_detected"] is True
    assert payload["tampers"] == len(TAMPER_CLASSES)


def test_suite_rejects_unknown_class_and_tiny_graphs():
    g = cycle_graph(6)
    rotmap, certs = certified(g)
    with pytest.raises(ValueError, match="unknown tamper class"):
        run_tamper_suite(g, rotmap, certs, classes=["nonsense"])
    g1 = path_graph(1)
    rot1, certs1 = {v: () for v in g1.nodes()}, build_certificates(
        g1, planar_embedding(g1)
    )
    with pytest.raises(ValueError, match="at least one edge"):
        run_tamper_suite(g1, rot1, certs1)
