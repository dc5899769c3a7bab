"""The distributed planar embedding algorithm (paper Theorem 1.1).

``DistributedPlanarEmbedding`` drives the whole pipeline on a CONGEST
simulation of the input network:

1. elect the max-ID vertex ``s*`` by real max-ID flooding (O(D) rounds);
2. build the global BFS tree ``T`` rooted at ``s*`` (O(D) rounds) — this
   also gives every node ``n`` and a 2-approximation of ``D`` (paper
   Section 2);
3. run the recursive embedding order of Section 4 over ``T``'s subtrees,
   with the Section 5 merges; round costs are real where primitives run
   as node programs and exact pipelined charges elsewhere (DESIGN.md §3);
4. expand the split-off copies back into their primaries and unwrap;
5. verify the result: the per-vertex clockwise orders must form a genus-0
   rotation system of the *original* graph.

The output matches the paper's distributed output format: a clockwise
cyclic order of incident edges for every vertex, consistent with one
fixed planar drawing of the network.  Non-planar inputs raise
:class:`NonPlanarNetworkError` — the algorithm doubles as a distributed
planarity test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..congest.faults import default_fault_injector
from ..congest.metrics import RoundMetrics
from ..obs import Tracer, maybe_span
from ..obs.causal import CausalRecorder, causal_override, default_causal_recorder
from ..planar.graph import Graph, NodeId, edge_id
from ..planar.rotation import RotationSystem
from ..planar.verify import verify_planar_embedding
from ..primitives.aggregation import tree_aggregate, tree_broadcast
from ..primitives.bfs import BfsTree, build_bfs_tree
from ..primitives.leader import elect_leader
from .assembly import expand_copies
from .parts import NonPlanarNetworkError
from .recursion import CallRecord, RecursionContext, check_splitter_strategy, embed_subtree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..certify import CertificateSet, CertificationReport

__all__ = [
    "EmbeddingResult",
    "DegradedResult",
    "DistributedPlanarEmbedding",
    "distributed_planar_embedding",
    "self_healing_embedding",
]


@dataclass
class EmbeddingResult:
    """Everything a run produces: the embedding, costs, and audit data."""

    graph: Graph
    rotation: dict[NodeId, tuple]  # per-vertex clockwise neighbor order
    rotation_system: RotationSystem
    metrics: RoundMetrics
    trace: list[CallRecord] = field(default_factory=list)
    leader: NodeId | None = None
    bfs_depth: int = 0
    known_n: int = 0  # what every node learned in the Section 2 preamble
    diameter_upper: int = 0  # the 2-approximation of D (2 * ecc(s*))
    certificates: "CertificateSet | None" = None  # proof labels, if certified
    certification: "CertificationReport | None" = None  # last verifier outcome
    # The bit-packed form of ``certificates`` (repro.certify.compact) —
    # what verification actually ships; measured bits land on
    # ``certification.label_bits_*``.
    compact_certificates: "object | None" = None
    split_tests: int = 0  # multi-edge bundle split validations run
    split_rejections: int = 0  # splits rolled back as planarity-breaking
    split_oracle: dict | None = None  # split-oracle counters (None = no recursion ran)
    heal_attempts: int = 0  # self-healing attempts consumed (0 = plain run)
    heal_log: list[str] = field(default_factory=list)  # what healing saw and did
    fault_stats: dict | None = None  # chaos-layer counters (None = no fault plan)
    causal: dict | None = None  # causal-report dict (None = no recorder attached)

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def recursion_depth(self) -> int:
        return max((r.level for r in self.trace), default=0) + 1

    @property
    def merge_fallbacks(self) -> int:
        return sum(
            r.merge_stats.merge_fallbacks for r in self.trace if r.merge_stats is not None
        )

    def verify_distributed(
        self,
        metrics: RoundMetrics | None = None,
        tracer: Tracer | None = None,
        bandwidth_words: int | None = None,
    ) -> "CertificationReport":
        """Certify this embedding and verify it distributedly (O(D) rounds).

        Builds the proof labels on first use (a real O(D) construction:
        election, BFS, convergecast), packs them through the compact
        codec (:mod:`repro.certify.compact`), and runs the CONGEST
        verifier on the decoded labels — the codec shim, so the verifier
        predicates are unchanged while ``certification.label_bits_*``
        report the measured packed sizes.  All rounds land in
        ``metrics`` — by default this result's own ledger, so
        ``result.rounds`` then covers embedding *and* certification.
        Stores and returns the :class:`~repro.certify.CertificationReport`.
        """
        from ..certify import build_certificates
        from ..certify.compact import encode_certificates, verify_compact
        from ..certify.verifier import VERIFIER_BANDWIDTH_WORDS

        ledger = metrics if metrics is not None else self.metrics
        if self.certificates is None:
            self.certificates = build_certificates(
                self.graph, self.rotation_system, metrics=ledger, tracer=tracer
            )
        self.compact_certificates = encode_certificates(self.graph, self.certificates)
        self.certification = verify_compact(
            self.graph,
            self.rotation,
            self.compact_certificates,
            metrics=ledger,
            tracer=tracer,
            bandwidth_words=(
                bandwidth_words if bandwidth_words is not None else VERIFIER_BANDWIDTH_WORDS
            ),
        )
        return self.certification

    def to_report(self) -> dict:
        """A machine-readable run report (JSON-ready): sizes, round
        totals, and the full per-phase ledger.  This is what
        ``python -m repro --json`` prints and what the benchmark
        reporter persists into ``BENCH_*.json``."""
        report = {
            "type": "run-report",
            "planar": True,
            "n": self.graph.num_nodes,
            "m": self.graph.num_edges,
            "rounds": self.rounds,
            "recursion_depth": self.recursion_depth if self.trace else 0,
            "merge_fallbacks": self.merge_fallbacks,
            "bfs_depth": self.bfs_depth,
            "known_n": self.known_n,
            "diameter_upper": self.diameter_upper,
            "leader": repr(self.leader),
            "node_activations": self.metrics.node_activations,
            "activations_saved": self.metrics.activations_saved,
            "split_tests": self.split_tests,
            "split_rejections": self.split_rejections,
            "split_oracle": self.split_oracle,
            "metrics": self.metrics.to_dict(),
        }
        if self.certification is not None:
            report["certification"] = self.certification.to_dict()
        if self.certificates is not None:
            cert_sizes = self.certificates.to_dict()
            if self.compact_certificates is not None:
                cert_sizes["compact"] = self.compact_certificates.to_dict()
            report["certificates"] = cert_sizes
        if self.heal_attempts:
            report["healing"] = {
                "attempts": self.heal_attempts,
                "log": list(self.heal_log),
            }
        if self.fault_stats is not None:
            report["fault_stats"] = dict(self.fault_stats)
        if self.causal is not None:
            report["causal"] = dict(self.causal)
        return report


@dataclass
class DegradedResult:
    """What self-healing surfaces when the retry budget runs out.

    Not an exception: chaos beyond the budget is an expected operational
    outcome, so the driver returns the best partial state it has — the
    last (uncertified or rejected) rotation, the full healing log, the
    certifier's last verdict, the combined round ledger, and the fault
    counters — and the CLI maps it to its own exit code.
    """

    graph: Graph
    rotation: dict[NodeId, tuple] | None  # last attempt's output, if any
    diagnosis: str
    attempts: int
    heal_log: list[str]
    metrics: RoundMetrics
    certification: "CertificationReport | None" = None
    fault_stats: dict | None = None
    flight: "object | None" = None  # the FlightRecorder, for post-mortems

    degraded = True  # cheap discriminator vs EmbeddingResult

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    def to_report(self) -> dict:
        report = {
            "type": "degraded-report",
            "planar": None,
            "n": self.graph.num_nodes,
            "m": self.graph.num_edges,
            "rounds": self.rounds,
            "diagnosis": self.diagnosis,
            "healing": {"attempts": self.attempts, "log": list(self.heal_log)},
            "partial_rotation": (
                {repr(v): [repr(u) for u in order] for v, order in self.rotation.items()}
                if self.rotation is not None
                else None
            ),
            "metrics": self.metrics.to_dict(),
        }
        if self.certification is not None:
            report["certification"] = self.certification.to_dict()
        if self.fault_stats is not None:
            report["fault_stats"] = dict(self.fault_stats)
        if self.flight is not None:
            report["flight_events"] = len(self.flight)
        return report


def _wrap(graph: Graph) -> Graph:
    wrapped = Graph()
    for v in graph.nodes():
        wrapped.add_node(("v", v))
    for u, v in graph.edges():
        wrapped.add_edge(("v", u), ("v", v))
    return wrapped


class DistributedPlanarEmbedding:
    """Configure and run the distributed planar embedding algorithm."""

    def __init__(
        self,
        graph: Graph,
        bandwidth_words: int = 1,
        verify: bool = True,
        splitter_strategy: str = "balanced",
        tracer: Tracer | None = None,
        certify: bool = False,
        causal: "CausalRecorder | None" = None,
    ) -> None:
        """``bandwidth_words`` is the per-edge word budget used in the
        pipelined round charges (CONGEST's ``O(log n)`` bits = O(1)
        words; 1 is the strictest reading).  ``splitter_strategy``
        selects the paper's 2/3-balanced splitter ("balanced") or the
        naive root split ("root") used by the E12 ablation.  ``tracer``
        (a :class:`repro.obs.Tracer`) records a span tree — per phase,
        per recursive call, per merge — for the run; ``None`` (the
        default) leaves the pipeline entirely uninstrumented.
        ``certify`` appends the certification phases (see
        :mod:`repro.certify`): every node gets an O(log n)-bit proof
        label and the distributed verifier re-checks the output in O(D)
        rounds, all charged to the same ledger and trace.  ``causal`` (a
        :class:`repro.obs.causal.CausalRecorder`) installs message-level
        causal tracing for every network the run creates; the
        critical-path report lands on ``EmbeddingResult.causal``."""
        if graph.num_nodes == 0:
            raise ValueError("cannot embed an empty network")
        if not graph.is_connected():
            raise ValueError("the network must be connected")
        check_splitter_strategy(splitter_strategy)
        self.graph = graph
        self.bandwidth_words = bandwidth_words
        self.verify = verify
        self.splitter_strategy = splitter_strategy
        self.tracer = tracer
        self.certify = certify
        self.causal = causal
        self.last_metrics: RoundMetrics | None = None  # set by run(), kept on failure

    def run(self) -> EmbeddingResult:
        from .parts import reset_part_ids

        # Pipeline part IDs are recursion-path tuples and copy serials
        # are per-merge-driver, both functions of the input rather than
        # of allocation history; the int allocator only backs standalone
        # ``fresh_part`` callers, and is reset so their runs stay
        # repeatable too.
        reset_part_ids()
        graph = self.graph
        tracer = self.tracer
        metrics = RoundMetrics()
        if tracer is not None:
            metrics.observer = tracer
        self.last_metrics = metrics
        # An explicit recorder is installed for every network this run
        # creates; otherwise an ambient causal_override (if any) already
        # covers them, so re-installing it is a no-op.
        recorder = self.causal if self.causal is not None else default_causal_recorder()
        injector = default_fault_injector()
        with causal_override(recorder), maybe_span(
            tracer, "run", kind="run", n=graph.num_nodes, m=graph.num_edges
        ) as run_span:
            result = self._run_traced(graph, metrics, tracer)
            if run_span is not None:
                # Perf-profile attrs: how much split validation the run
                # did and how much of it the oracle's witness answered.
                run_span.attrs["split_tests"] = result.split_tests
                run_span.attrs["split_rejections"] = result.split_rejections
                if result.split_oracle is not None:
                    for key, value in result.split_oracle.items():
                        run_span.attrs[f"oracle_{key}"] = value
            if self.certify:
                # Certification rides inside the run span so the trace
                # rollup keeps matching metrics.rounds exactly.
                result.verify_distributed(metrics=metrics, tracer=tracer)
            if recorder is not None:
                result.causal = recorder.report()
                if run_span is not None:
                    run_span.attrs["critical_path"] = result.causal["critical_path"]
                    run_span.attrs["causal_rounds"] = result.causal["real_rounds"]
            if injector is not None:
                # Chaos counters are collected in congest/faults.py but
                # were invisible to reports: snapshot them onto the
                # result and the run span so --json and chaos benches
                # can assert injected-vs-delivered counts.
                result.fault_stats = injector.stats.to_dict()
                if run_span is not None:
                    run_span.attrs["fault_stats"] = dict(result.fault_stats)
        return result

    def _run_traced(
        self, graph: Graph, metrics: RoundMetrics, tracer: Tracer | None
    ) -> EmbeddingResult:
        if graph.num_nodes == 1:
            (v,) = graph.nodes()
            rotation = {v: ()}
            return EmbeddingResult(
                graph=graph,
                rotation=rotation,
                rotation_system=RotationSystem(graph, rotation),
                metrics=metrics,
                leader=v,
            )

        wrapped = _wrap(graph)

        # Phase 1-2: leader election + BFS, as real node programs; then
        # the Section 2 preamble — every node learns n and a
        # 2-approximation of D by one convergecast + one broadcast.
        with maybe_span(tracer, "leader-election", kind="phase"):
            leader = elect_leader(wrapped, metrics=metrics)
        with maybe_span(tracer, "bfs", kind="phase") as bfs_span:
            tree: BfsTree = build_bfs_tree(wrapped, leader, metrics=metrics)
            if bfs_span is not None:
                bfs_span.attrs["depth"] = tree.depth
        with maybe_span(tracer, "preamble", kind="phase"):
            known_n, known_ecc = self._preamble(wrapped, tree, metrics)

        # Phase 3: the recursive embedding order.
        ctx = RecursionContext(
            graph=wrapped,
            tree=tree,
            bandwidth=self.bandwidth_words,
            splitter_strategy=self.splitter_strategy,
            tracer=tracer,
        )
        part, recursion_metrics = embed_subtree(ctx, leader, level=0)
        metrics.absorb_serial(recursion_metrics)
        split_oracle = ctx.oracle.stats()
        if part.boundary:  # pragma: no cover - invariant
            raise AssertionError("top-level part still has half-embedded edges")

        # Phase 4: contract split-off copies, unwrap to original IDs.
        final_graph, final_order = expand_copies(
            part.graph, part.internal_rotations()
        )
        expected = {edge_id(u, v) for u, v in wrapped.edges()}
        got = {edge_id(u, v) for u, v in final_graph.edges()}
        if expected != got:  # pragma: no cover - invariant
            raise AssertionError("copy expansion did not restore the network")
        rotation = {
            v[1]: tuple(u[1] for u in final_order[v]) for v in final_graph.nodes()
        }

        # Phase 5: verification (Edmonds/Euler referee).
        with maybe_span(tracer, "verify", kind="phase"):
            system = (
                verify_planar_embedding(graph, rotation)
                if self.verify
                else RotationSystem(graph, rotation)
            )
        return EmbeddingResult(
            graph=graph,
            rotation=rotation,
            rotation_system=system,
            metrics=metrics,
            trace=ctx.trace,
            leader=leader[1],
            bfs_depth=tree.depth,
            known_n=known_n,
            diameter_upper=2 * known_ecc,
            split_tests=ctx.split_tests,
            split_rejections=ctx.split_rejections,
            split_oracle=split_oracle,
        )

    @staticmethod
    def _preamble(
        wrapped: Graph, tree: BfsTree, metrics: RoundMetrics
    ) -> tuple[int, int]:
        """Section 2: all nodes learn n and ecc(s*) (so D <= 2*ecc)."""

        def combine(items):
            own, _ = items[0]
            return (own + sum(c for c, _ in items[1:]),
                    1 + max((h for _, h in items[1:]), default=-1))

        results = tree_aggregate(
            wrapped,
            tree.parent,
            tree.children,
            {v: (1, 0) for v in wrapped.nodes()},
            combine,
            metrics=metrics,
            phase="preamble",
        )
        n, ecc = results[tree.root][0]
        tree_broadcast(
            wrapped, tree.parent, tree.children, (n, ecc),
            metrics=metrics, phase="preamble",
        )
        return n, ecc


def distributed_planar_embedding(
    graph: Graph,
    bandwidth_words: int = 1,
    verify: bool = True,
    tracer: Tracer | None = None,
    certify: bool = False,
    causal: "CausalRecorder | None" = None,
) -> EmbeddingResult:
    """Convenience wrapper around :class:`DistributedPlanarEmbedding`."""
    return DistributedPlanarEmbedding(
        graph, bandwidth_words=bandwidth_words, verify=verify, tracer=tracer,
        certify=certify, causal=causal,
    ).run()


def self_healing_embedding(
    graph: Graph,
    bandwidth_words: int = 1,
    max_retries: int = 3,
    tracer: Tracer | None = None,
    faults=None,
    corrupt_hook=None,
    splitter_strategy: str = "balanced",
    flight=None,
    flight_path=None,
) -> "EmbeddingResult | DegradedResult":
    """Run the embedding with certificate-driven self-healing.

    The driver computes an embedding, certifies it with the
    :mod:`repro.certify` prover, and verifies it with the distributed
    verifier.  A rejected certificate triggers an escalation ladder that
    re-executes only as much as the evidence demands, each step costing
    one attempt from the ``1 + max_retries`` budget:

    1. **re-verify** — the rejection may itself be a transient fault;
    2. **re-certify** — rebuild the proof labels from the rotation
       system and verify again (heals corrupted certificates);
    3. **re-embed** — recompute the embedding from scratch (heals a
       corrupted rotation).

    An attempt that *crashes* (a stalled flood, an exhausted retransmit
    budget, corrupted state tripping an internal invariant — under
    ``faults`` almost any error is reachable; clean runs never enter
    this path) retries the stage that failed.  ``faults`` (a
    :class:`~repro.congest.faults.FaultPlan` or shared
    :class:`~repro.congest.faults.FaultInjector`) is installed for every
    network the pipeline creates; its **global** round clock makes
    retries run on fresh fault draws and past transient crash/outage
    windows, which is what makes healing converge.

    ``corrupt_hook(attempt, result)`` — used by the chaos bench and
    tests — may tamper with ``result.rotation`` / ``result.certificates``
    before verification and return a description of the damage.

    ``flight`` (a :class:`repro.obs.flightrec.FlightRecorder`) attaches
    the crash flight recorder to every fault state and ARQ wrapper the
    run creates; under an active fault plan one is created automatically
    when none is given.  Every caught error is recorded on the driver
    lane, a :class:`DegradedResult` carries the recorder on ``.flight``,
    and when ``flight_path`` is set the JSONL dump is written there
    automatically on a degraded outcome or an escaping typed error.

    Returns the healed :class:`EmbeddingResult` (with ``heal_attempts``,
    ``heal_log``, and ``fault_stats`` filled in), or a structured
    :class:`DegradedResult` when the budget runs out.  A non-planar
    input raises :class:`NonPlanarNetworkError` as usual when no fault
    plan is active; under faults the detection is re-checked like any
    other suspect outcome, since corrupted messages can fake it.
    """
    from ..certify import build_certificates
    from ..congest.faults import FaultInjector, fault_override
    from ..obs.flightrec import FlightRecorder, default_flight_recorder, flight_override

    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    injector = (
        faults
        if isinstance(faults, (FaultInjector, type(None)))
        else FaultInjector(faults)
    )
    recorder = flight
    if recorder is None:
        recorder = default_flight_recorder()
    if recorder is None and injector is not None and not injector.plan.is_null:
        # Chaos without a black box is undebuggable: under an active
        # fault plan the driver always keeps one.
        recorder = FlightRecorder()
    master = RoundMetrics()
    if tracer is not None:
        master.observer = tracer
    heal_log: list[str] = []
    budget = 1 + max_retries
    attempts = 0
    rejections = 0
    nonplanar_hits = 0
    result: EmbeddingResult | None = None
    last_report = None
    last_error: BaseException | None = None

    def stats() -> dict | None:
        return injector.stats.to_dict() if injector is not None else None

    def dump_flight() -> None:
        if recorder is not None and flight_path is not None:
            recorder.dump(flight_path)
            heal_log.append(f"flight recorder dumped to {flight_path}")

    with fault_override(injector), flight_override(recorder), maybe_span(
        tracer, "self-healing", kind="run", n=graph.num_nodes, m=graph.num_edges
    ) as span:
        while attempts < budget:
            attempts += 1
            stage = "embed" if result is None else "verify"
            try:
                if result is None:
                    driver = DistributedPlanarEmbedding(
                        graph,
                        bandwidth_words=bandwidth_words,
                        verify=True,
                        splitter_strategy=splitter_strategy,
                        tracer=tracer,
                        certify=False,
                    )
                    try:
                        result = driver.run()
                    finally:
                        # Rounds spent by a failed attempt are real costs:
                        # fold the partial ledger into the master ledger.
                        if driver.last_metrics is not None:
                            master.absorb_serial(driver.last_metrics)
                    result.metrics = master
                if result.certificates is None:
                    stage = "certify"
                    result.certificates = build_certificates(
                        result.graph,
                        result.rotation_system,
                        metrics=master,
                        tracer=tracer,
                    )
                if corrupt_hook is not None:
                    note = corrupt_hook(attempts, result)
                    if note:
                        heal_log.append(f"attempt {attempts}: adversary: {note}")
                stage = "verify"
                last_report = result.verify_distributed(metrics=master, tracer=tracer)
            except NonPlanarNetworkError as _np_exc:
                if injector is None or injector.plan.is_null:
                    raise
                # Under an active fault plan a corrupted exchange can fake
                # a non-planarity witness — re-check like anything else.
                # Two *consecutive* detections on fresh fault draws (the
                # global clock advanced between attempts) confirm it: a
                # genuinely non-planar input raises rather than burning
                # the whole budget.
                nonplanar_hits += 1
                if nonplanar_hits >= 2:
                    if recorder is not None:
                        recorder.note_error(
                            _np_exc, attempt=attempts, stage=stage, confirmed=True
                        )
                    dump_flight()
                    raise
                last_error = None
                heal_log.append(
                    f"attempt {attempts}: {stage} reported non-planar under"
                    " active faults; re-checking"
                )
                result = None
                continue
            except Exception as exc:  # noqa: BLE001 - see docstring: under
                # faults almost any error is reachable; each is logged and
                # converted into a bounded retry of the failed stage.
                last_error = exc
                heal_log.append(
                    f"attempt {attempts}: {stage} failed:"
                    f" {type(exc).__name__}: {exc}"
                )
                if recorder is not None:
                    recorder.note_error(exc, attempt=attempts, stage=stage)
                if stage == "embed":
                    result = None
                continue
            nonplanar_hits = 0

            if last_report.accepted:
                if attempts > 1:
                    heal_log.append(
                        f"attempt {attempts}: certificate accepted by all"
                        f" {last_report.nodes} nodes — healed"
                    )
                result.heal_attempts = attempts
                result.heal_log = heal_log
                result.fault_stats = stats()
                if span is not None:
                    span.attrs["heal_attempts"] = attempts
                    span.attrs["healed"] = True
                return result

            rejections += 1
            first = last_report.rejections[0] if last_report.rejections else None
            heal_log.append(
                f"attempt {attempts}: certificate REJECTED"
                f" ({len(last_report.rejections)} rejections"
                + (f", first: node {first.node!r} violated {first.predicate}" if first else "")
                + ")"
            )
            if rejections == 1:
                heal_log.append("healing: re-verifying (rejection may be transient)")
            elif rejections == 2:
                # Incremental re-certification (E21): patch only the
                # dirty region around the rejecting nodes from the
                # honest rotation system, falling back to a full label
                # rebuild when the region exceeds the threshold.
                dirty = {r.node for r in last_report.rejections}
                heal_log.append(
                    "healing: incremental re-certification of the dirty region"
                    f" ({len(dirty)} rejecting nodes)"
                )
                try:
                    from ..certify.delta import repair_certificates

                    outcome = repair_certificates(
                        result.graph,
                        result.rotation_system,
                        result.certificates,
                        dirty,
                        metrics=master,
                        tracer=tracer,
                    )
                    result.certificates = outcome.certificates
                    heal_log.append(
                        f"healing: {outcome.mode} {outcome.patched} label(s)"
                        f" in {outcome.rounds} rounds"
                    )
                except Exception as exc:  # noqa: BLE001 - same contract as
                    # the ladder: under faults almost any error is
                    # reachable; degrade to the full rebuild rung.
                    heal_log.append(
                        f"healing: incremental repair failed"
                        f" ({type(exc).__name__}: {exc});"
                        " rebuilding certificates from the rotation system"
                    )
                    result.certificates = None
                result.certification = None
            else:
                heal_log.append("healing: re-embedding from scratch")
                result = None

        if span is not None:
            span.attrs["heal_attempts"] = attempts
            span.attrs["healed"] = False

    if last_report is not None and not last_report.accepted:
        diagnosis = (
            f"certificate still rejected after {attempts} attempts"
            f" ({len(last_report.rejections)} rejecting nodes)"
        )
    elif last_error is not None:
        diagnosis = (
            f"execution kept failing after {attempts} attempts"
            f" (last: {type(last_error).__name__}: {last_error})"
        )
    else:
        diagnosis = f"no certified embedding within {attempts} attempts"
    dump_flight()
    return DegradedResult(
        graph=graph,
        rotation=result.rotation if result is not None else None,
        diagnosis=diagnosis,
        attempts=attempts,
        heal_log=heal_log,
        metrics=master,
        certification=last_report,
        fault_stats=stats(),
        flight=recorder,
    )


def distributed_planarity_test(
    graph: Graph, bandwidth_words: int = 1
) -> tuple[bool, RoundMetrics]:
    """Decide planarity distributedly; returns (is_planar, round ledger).

    The embedding algorithm *is* the test: a non-planar network makes
    some merge's arrangement instance non-planar, which the run detects
    and reports in O(D * min(log n, D)) rounds — the rounds spent before
    detection are returned either way.
    """
    driver = DistributedPlanarEmbedding(
        graph, bandwidth_words=bandwidth_words, verify=False
    )
    try:
        result = driver.run()
        return True, result.metrics
    except NonPlanarNetworkError:
        # ``run()`` stores the ledger before any round is spent, so the
        # rounds paid up to the detection point are never lost — guard
        # against that ever regressing to a stale/None counter.
        metrics = driver.last_metrics
        if metrics is None:  # pragma: no cover - defensive invariant
            raise AssertionError(
                "non-planar detection must leave the partial round ledger behind"
            ) from None
        return False, metrics
