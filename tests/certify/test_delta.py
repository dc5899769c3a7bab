"""Incremental re-certification (E21): the differential suite.

The central claim of :mod:`repro.certify.delta`: a certificate set
*patched* after an edge mutation is indistinguishable from one *rebuilt*
from scratch — same labels, same verdict, same tamper detection — while
charging only the dirty region's rounds.  Every family below churns both
an incremental and a full-rebuild engine over the same op plan and
compares them.
"""

import pytest

from repro.certify import (
    DynamicCertifiedEmbedding,
    apply_tamper,
    build_certificates,
    compact,
    delta,
    encode_certificates,
    packed_bit_lengths,
    repair_certificates,
    verify_compact,
    verify_distributed,
)
from repro.congest.message import word_bits
from repro.congest.metrics import RoundMetrics
from repro.core import self_healing_embedding
from repro.planar import planar_embedding
from repro.planar.generators import demo_graph
from repro.planar.rotation import RotationSystem
from repro.planar.verify import verify_planar_embedding

FAMILIES = [
    ("grid", ["grid", 5, 5]),
    ("trigrid", ["trigrid", 5, 5]),
    ("cycle", ["cycle", 24]),
    ("maximal", ["maximal", 30]),
    ("outerplanar", ["outerplanar", 28]),
    ("tree", ["tree", 24]),
]


def reference_labels(engine):
    """What the deterministic E14 prover would emit for the engine's
    current graph + rotation — the ground truth patches must reproduce."""
    system = RotationSystem.trusted(engine.graph, dict(engine.rotation))
    return build_certificates(engine.graph, system)


# -- the differential suite ------------------------------------------------


@pytest.mark.parametrize("name,spec", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_incremental_equals_rebuild(name, spec):
    g = demo_graph(spec, seed=7)
    inc = DynamicCertifiedEmbedding(g, incremental=True)
    churn = inc.run_churn(8, seed=11)
    assert churn.accepted, churn.records
    assert all(r.accepted for r in churn.records)

    # Replay the exact op plan on a full-rebuild engine.
    full = DynamicCertifiedEmbedding(g, incremental=False)
    replay = full.run_churn(len(churn.plan), plan=churn.plan)
    assert replay.accepted

    # Verdict equivalence: same final graph, same verdict, and the
    # patched labels are byte-for-byte the prover's labels.
    assert sorted(map(sorted, map(list, inc.graph.edges()))) == sorted(
        map(sorted, map(list, full.graph.edges()))
    )
    assert inc.certs == reference_labels(inc)
    verify_planar_embedding(inc.graph, inc.rotation)

    # Economy: patching beats running the full pipeline per op.
    if churn.records:
        assert churn.op_rounds < replay.op_rounds


@pytest.mark.parametrize("name,spec", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_every_op_scoped_verdict_matches_full_verdict(name, spec):
    """After every single op the scoped verdict must agree with a full
    offline verification — no drift accumulates mid-churn."""
    g = demo_graph(spec, seed=3)
    engine = DynamicCertifiedEmbedding(g, incremental=True)
    plan = engine.run_churn(6, seed=5).plan
    fresh = DynamicCertifiedEmbedding(g, incremental=True)
    for kind, a, b in plan:
        record = fresh.insert_edge(a, b) if kind == "insert" else fresh.delete_edge(a, b)
        assert record.accepted
        full = verify_distributed(fresh.graph, fresh.rotation, fresh.certs)
        assert full.accepted, (kind, a, b, full.rejections[:3])


def test_tamper_detection_survives_patching():
    """Certificates that lived through churn still catch every adversary."""
    g = demo_graph(["grid", 5, 5], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=True)
    engine.run_churn(6, seed=9)
    for cls in ("bit-flip", "face-forgery", "global-forgery"):
        rot = {v: tuple(order) for v, order in engine.rotation.items()}
        tampered = engine.certs.copy()
        apply_tamper(cls, engine.graph, rot, tampered, seed=17)
        report = verify_compact(engine.graph, rot, encode_certificates(engine.graph, tampered))
        assert not report.accepted, cls


# -- mutation mechanics ----------------------------------------------------


def test_insert_splits_a_face_and_delete_restores():
    g = demo_graph(["cycle", 8], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=True, fallback_ratio=1.0)
    nodes = sorted(engine.graph.nodes(), key=repr)
    u, v = nodes[0], nodes[3]  # a chord of the single inner face
    rec = engine.insert_edge(u, v)
    assert rec.accepted and rec.op == "insert"
    assert engine.graph.has_edge(u, v)
    assert engine.certs[u].f == 3  # the chord split one face into two
    rec = engine.delete_edge(u, v)
    assert rec.accepted and rec.op == "delete"
    assert not engine.graph.has_edge(u, v)
    assert engine.certs[u].f == 2
    assert engine.certs == reference_labels(engine)


def test_bridge_deletion_refused():
    g = demo_graph(["tree", 12], seed=2)
    engine = DynamicCertifiedEmbedding(g, incremental=True)
    u, v = next(iter(engine.graph.edges()))
    with pytest.raises(ValueError, match="bridge"):
        engine.delete_edge(u, v)


def test_tree_edge_deletion_rehangs_subtree():
    """Deleting a certificate-tree edge re-hangs the orphaned subtree and
    leaves a consistent parent/depth structure."""
    g = demo_graph(["grid", 4, 4], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=True, fallback_ratio=1.0)
    tree_edge = next(
        (u, v)
        for u, v in engine.graph.edges()
        if engine.parent.get(u) == v or engine.parent.get(v) == u
    )
    rec = engine.delete_edge(*tree_edge)
    assert rec.accepted
    for node, par in engine.parent.items():
        if par is None:
            assert node == engine.root
        else:
            assert engine.graph.has_edge(node, par)
            assert engine.depth[node] == engine.depth[par] + 1
    assert engine.certs == reference_labels(engine)


def test_face_walk_on_a_non_permutation_ring_raises_instead_of_looping():
    """A ring that lists one neighbor twice leaves one out-dart with no
    predecessor; the walk from it never closes and must hit the
    ``2m + 2`` bound."""
    g = demo_graph(["grid", 4, 4], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=True)
    v = next(x for x in engine.graph.nodes() if engine.graph.degree(x) >= 3)
    ring = engine.rotation[v]
    engine.rotation[v] = (ring[0], ring[1], ring[0]) + ring[2:]
    with pytest.raises(AssertionError, match="did not close"):
        engine._face_walk((v, ring[2]))


def test_zero_fallback_ratio_forces_rebuild():
    g = demo_graph(["grid", 4, 4], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=True, fallback_ratio=0.0)
    report = engine.run_churn(3, seed=1)
    assert report.accepted
    assert all(r.mode != "patched" for r in report.records)
    assert engine.stats["patched"] == 0


def test_non_incremental_engine_rebuilds_every_op():
    g = demo_graph(["grid", 4, 4], seed=0)
    engine = DynamicCertifiedEmbedding(g, incremental=False)
    report = engine.run_churn(3, seed=1)
    assert report.accepted
    assert all(r.mode == "rebuild-embed" for r in report.records)


def test_insert_validations():
    g = demo_graph(["grid", 4, 4], seed=0)
    engine = DynamicCertifiedEmbedding(g)
    u, v = next(iter(engine.graph.edges()))
    with pytest.raises(ValueError):
        engine.insert_edge(u, v)  # already present
    with pytest.raises(ValueError):
        engine.insert_edge(u, u)  # self-loop
    with pytest.raises(ValueError):
        engine.insert_edge(u, "no-such-node")


def test_churn_report_is_json_ready():
    import json

    g = demo_graph(["grid", 4, 4], seed=0)
    report = DynamicCertifiedEmbedding(g).run_churn(4, seed=2)
    blob = json.dumps(report.to_dict())
    assert "final_certification" in blob
    result = DynamicCertifiedEmbedding(g).to_result()
    assert result.certification.accepted
    json.dumps(result.to_report(), default=repr)


def test_to_result_after_a_patch_certifies_the_live_labels():
    """A patched op after a read leaves the read's certification stale;
    ``to_result`` re-verifies, so the compact set it returns decodes to
    the live labels and verifies on the live rotation."""
    g = demo_graph(["grid", 12, 12], seed=0)
    plan = DynamicCertifiedEmbedding(g).run_churn(16, seed=3).plan
    engine = DynamicCertifiedEmbedding(g)
    # The subject is a patched insert: replay the plan up to the first
    # insert the engine patches (an insert may rebuild the certificate
    # instead, depending on the rotation), reading before each insert.
    for kind, a, b in plan:
        if kind == "delete":
            engine.delete_edge(a, b)
            continue
        assert engine.certification().accepted
        record = engine.insert_edge(a, b)
        if record.mode == "patched":
            break
    assert record.mode == "patched"
    result = engine.to_result()
    assert result.compact_certificates.decode() == result.certificates
    assert result.certificates.labels[a].m == engine.graph.num_edges
    assert result.certification.accepted
    assert verify_compact(result.graph, result.rotation, result.compact_certificates).accepted


def test_to_result_after_run_churn_adds_no_rounds():
    """``run_churn`` ends on a full verification, so the CLI and serve
    paths (``run_churn`` then ``to_result``) verify once, as before."""
    engine = DynamicCertifiedEmbedding(demo_graph(["grid", 6, 6], seed=0))
    report = engine.run_churn(6, seed=1)
    rounds = engine.metrics.rounds
    result = engine.to_result()
    assert engine.metrics.rounds == rounds
    assert result.certification is report.final_certification


# -- patch sizing: subset packing, exact and proportional to the change ----


def _full_set_patch_words(graph, certificates, nodes):
    """Reference charge: pack every label, then charge the ``nodes`` among
    them, each rounded up to whole words."""
    wbits = word_bits(max(1, graph.num_nodes))
    bits = encode_certificates(graph, certificates).size_bits()
    return sum(-(-bits[v] // wbits) for v in nodes if v in bits)


def _churn_and_repair(spec):
    """One seeded churn and one tampered repair; everything they report."""
    engine = DynamicCertifiedEmbedding(demo_graph(spec, seed=7), fallback_ratio=1.0)
    churn = engine.run_churn(8, seed=11)
    assert engine.num_edges == engine.graph.num_edges
    g, system, rotmap, certs = _certified_embedding(spec)
    apply_tamper("bit-flip", g, rotmap, certs, seed=31)
    rejecting = {r.node for r in verify_distributed(g, rotmap, certs).rejections}
    ledger = RoundMetrics()
    outcome = repair_certificates(
        g, system, certs, rejecting, metrics=ledger, fallback_ratio=1.0
    )
    assert outcome.mode == "patched"
    return (
        engine.metrics.to_dict(),
        [r.to_dict() for r in churn.records],
        churn.final_certification.to_dict(),
        outcome,
        ledger.to_dict(),
    )


@pytest.mark.parametrize("name,spec", FAMILIES, ids=[n for n, _ in FAMILIES])
def test_subset_sizing_equals_full_set_reference(name, spec, monkeypatch):
    """Sizing a patch from its dirty labels alone charges exactly what
    packing every label and selecting the dirty ones charged: same
    ledgers (per-phase words included), records, report and repair."""
    sized = []

    def checked(graph, certificates, nodes):
        got = packed_bit_lengths(graph, certificates, nodes)
        full = encode_certificates(graph, certificates).size_bits()
        assert got == {v: full[v] for v in nodes}
        sized.append(len(got))
        return got

    monkeypatch.setattr(delta, "packed_bit_lengths", checked)
    subset = _churn_and_repair(spec)
    monkeypatch.setattr(delta, "_patch_words", _full_set_patch_words)
    reference = _churn_and_repair(spec)
    assert len(sized) >= 2  # at least one patched op plus the repair
    assert subset == reference


def test_patch_packs_only_its_dirty_labels(monkeypatch):
    """On a graph much larger than the dirty sets, a patched op packs at
    most its dirty labels, not all ``n``."""
    g = demo_graph(["grid", 12, 12], seed=0)
    plan = DynamicCertifiedEmbedding(g).run_churn(16, seed=3).plan
    engine = DynamicCertifiedEmbedding(g)
    packed = [0]
    encode_label = compact._encode_label

    def counting(*args):
        packed[0] += 1
        return encode_label(*args)

    monkeypatch.setattr(compact, "_encode_label", counting)
    patched = 0
    for kind, a, b in plan:
        packed[0] = 0
        record = engine.insert_edge(a, b) if kind == "insert" else engine.delete_edge(a, b)
        assert record.accepted
        assert packed[0] <= record.dirty, (kind, a, b, packed[0], record.dirty)
        patched += record.mode == "patched"
    assert patched >= len(plan) // 2
    assert engine.num_edges == engine.graph.num_edges


# -- repair_certificates (the E17 healing rung) ----------------------------


def _certified_embedding(spec=("grid", 5, 5)):
    g = demo_graph(list(spec), seed=0)
    rotation = planar_embedding(g)
    system = RotationSystem.trusted(g, {v: tuple(rotation.order(v)) for v in g.nodes()})
    certs = build_certificates(g, system)
    rotmap = {v: tuple(rotation.order(v)) for v in g.nodes()}
    return g, system, rotmap, certs


@pytest.mark.parametrize("cls", ["bit-flip", "face-forgery", "global-forgery", "collusion"])
def test_repair_heals_certificate_tampering(cls):
    g, system, rotmap, certs = _certified_embedding()
    apply_tamper(cls, g, rotmap, certs, seed=31)
    report = verify_distributed(g, rotmap, certs)
    assert not report.accepted
    outcome = repair_certificates(
        g, system, certs, {r.node for r in report.rejections}
    )
    assert outcome.rounds > 0
    healed = verify_distributed(g, rotmap, outcome.certificates)
    assert healed.accepted, (cls, healed.rejections[:3])


def test_repair_patches_small_regions_and_rebuilds_large_ones():
    # Large enough that the one-hop closure of a point corruption stays
    # below the fallback threshold (0.25 * n).
    g, system, rotmap, certs = _certified_embedding(("grid", 7, 7))
    # One corrupted counter: a local patch suffices.
    node = sorted(certs.labels, key=repr)[4]
    certs[node].subtree_vertices += 7
    report = verify_distributed(g, rotmap, certs)
    outcome = repair_certificates(g, system, certs, {r.node for r in report.rejections})
    assert outcome.mode == "patched"
    assert outcome.patched < g.num_nodes
    assert verify_distributed(g, rotmap, outcome.certificates).accepted
    # fallback_ratio=0 on the same damage: always a full rebuild.
    certs[node].subtree_vertices += 7
    outcome = repair_certificates(g, system, certs, {node}, fallback_ratio=0.0)
    assert outcome.mode == "rebuilt"
    assert verify_distributed(g, rotmap, outcome.certificates).accepted


def test_repair_without_certificates_rebuilds():
    g, system, rotmap, _ = _certified_embedding(("grid", 4, 4))
    outcome = repair_certificates(g, system, None, set())
    assert outcome.mode == "rebuilt"
    assert verify_distributed(g, rotmap, outcome.certificates).accepted


# -- the chaos-heal path ---------------------------------------------------


def test_self_healing_uses_incremental_repair():
    """A one-shot certificate adversary is healed by the incremental
    rung (attempt 3), not a blind full rebuild."""
    g = demo_graph(["grid", 5, 5], seed=0)

    def corrupt_once(attempt, result):
        if attempt == 1:
            return apply_tamper(
                "bit-flip", result.graph, result.rotation, result.certificates, seed=13
            )
        return None

    result = self_healing_embedding(g, corrupt_hook=corrupt_once)
    assert result.certification.accepted
    assert any("incremental" in line for line in result.heal_log)
    assert any("adversary" in line for line in result.heal_log)
