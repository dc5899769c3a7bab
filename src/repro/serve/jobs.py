"""Job specifications for the embedding service.

A *job* is one unit of work for the service driver: a serialized graph
plus the kind of computation to run on it and its configuration.  Jobs
travel as JSONL — one JSON object per line — both into ``repro serve``
/ ``repro batch`` and out of them as verdicts, and the same flat
representation is what crosses the process boundary to pool workers
(primitives only, no rich objects — the MPC framing of Chang & Zheng:
stateless workers over serialized subproblems).

Job object fields:

``kind``
    ``"embed"`` (default), ``"certify"`` (embed + distributed
    certification), ``"heal"`` (the self-healing pipeline under an
    optional chaos schedule), or ``"churn"`` (embed + certify, then a
    seeded edge insert/delete workload with per-op re-certification —
    see :mod:`repro.certify.delta`).
``edges`` / ``demo``
    Exactly one graph source: ``edges`` is a list of ``[u, v]`` pairs
    (int or string node IDs, insertion order preserved — it is
    observable in the output rotation); ``demo`` is a generator spec
    like ``["grid", 16, 16]`` accepted by
    :func:`repro.planar.generators.demo_graph`, expanded at parse time
    so caching and canonical hashing always see the concrete graph.
``id``
    Optional caller-chosen string echoed on the verdict (defaults to
    ``"job-<index>"``).
``seed``
    Seed for randomized ``demo`` families (default 0).
``config``
    Optional dict: ``bandwidth`` (words/edge/round, default 1) and
    ``deadline_s`` (per-attempt wall-clock budget in seconds, overriding
    the driver's ``--deadline``; see :mod:`repro.serve.resilience`) for
    all kinds; ``faults`` (a chaos spec string), ``fault_seed``, and
    ``max_retries`` additionally for ``heal``; ``churn_ops`` (operation
    count, default 8), ``churn_seed`` (op-plan seed, default 0), and
    ``incremental`` (patch the dirty region vs full rebuild per op,
    default true) additionally for ``churn``.  Unknown keys are
    rejected — a typo'd config silently changing the cache key would be
    a debugging nightmare — with one exception: ``shard_workers``, the
    knob of the removed sharded recursion backend, is dropped with a
    ``FutureWarning``, so old job files still run under the same cache
    key as the job without it.

Integer fields (``seed``, ``bandwidth``, ``fault_seed``,
``max_retries``, ``churn_ops``, ``churn_seed``) reject JSON booleans:
``true`` is an ``int`` to Python, but it would run as 1 under a cache
key of its own.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable

from ..planar.generators import demo_graph
from ..planar.graph import Graph, NodeId

__all__ = ["Job", "JobSpecError", "JOB_KINDS", "parse_job", "load_jobs", "config_key"]

JOB_KINDS = ("embed", "certify", "heal", "churn")

_COMMON_CONFIG = {"bandwidth", "deadline_s"}
_HEAL_CONFIG = {"faults", "fault_seed", "max_retries"}
_CHURN_CONFIG = {"churn_ops", "churn_seed", "incremental"}


class JobSpecError(ValueError):
    """A malformed job line or job object."""


def _default_config(kind: str) -> dict:
    config: dict = {"bandwidth": 1}
    if kind == "heal":
        config.update({"faults": None, "fault_seed": 0, "max_retries": 3})
    elif kind == "churn":
        config.update({"churn_ops": 8, "churn_seed": 0, "incremental": True})
    return config


@dataclass
class Job:
    """One parsed, validated unit of service work."""

    index: int
    id: str
    kind: str
    graph: Graph
    config: dict
    source: dict = field(default_factory=dict)  # the original spec, for echoing

    def payload(self) -> dict:
        """The flat, picklable form shipped to a pool worker: primitives
        only, adjacency insertion order preserved."""
        return {
            "id": self.id,
            "kind": self.kind,
            "nodes": list(self.graph.nodes()),
            "edges": [list(e) for e in self.graph.edges()],
            "config": dict(self.config),
        }


def config_key(config: dict) -> str:
    """The canonical cache-key serialization of a job config."""
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _check_int(index: int, name: str, value, minimum: int | None = None) -> None:
    """Reject anything but an integer >= ``minimum`` — booleans included,
    though Python counts them as ints."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise JobSpecError(f"job {index}: {name} must be an integer{bound}")


def _check_node(value) -> NodeId:
    if not isinstance(value, (int, str)):
        raise JobSpecError(
            f"node IDs must be ints or strings, got {type(value).__name__}: {value!r}"
        )
    return value


def parse_job(obj: dict, index: int = 0) -> Job:
    """Validate one decoded job object into a :class:`Job`."""
    if not isinstance(obj, dict):
        raise JobSpecError(f"job {index}: expected a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - {"kind", "edges", "demo", "id", "seed", "config"}
    if unknown:
        raise JobSpecError(f"job {index}: unknown fields {sorted(unknown)}")
    kind = obj.get("kind", "embed")
    if kind not in JOB_KINDS:
        raise JobSpecError(f"job {index}: unknown kind {kind!r}; options: {list(JOB_KINDS)}")

    if ("edges" in obj) == ("demo" in obj):
        raise JobSpecError(f"job {index}: provide exactly one of 'edges' or 'demo'")
    seed = obj.get("seed", 0)
    _check_int(index, "'seed'", seed)
    if "demo" in obj:
        spec = obj["demo"]
        if not isinstance(spec, list) or not spec:
            raise JobSpecError(f"job {index}: 'demo' must be a non-empty list")
        try:
            graph = demo_graph(spec, seed=seed)
        except ValueError as exc:
            raise JobSpecError(f"job {index}: {exc}") from exc
    else:
        edges = obj["edges"]
        if not isinstance(edges, list):
            raise JobSpecError(f"job {index}: 'edges' must be a list of [u, v] pairs")
        graph = Graph()
        for pos, pair in enumerate(edges):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise JobSpecError(f"job {index}: edge {pos} is not a [u, v] pair: {pair!r}")
            u, v = _check_node(pair[0]), _check_node(pair[1])
            if u == v:
                raise JobSpecError(f"job {index}: edge {pos} is a self-loop at {u!r}")
            graph.add_edge(u, v)
    if graph.num_nodes == 0:
        raise JobSpecError(f"job {index}: graph has no vertices")
    if not graph.is_connected():
        raise JobSpecError(f"job {index}: graph must be connected")

    config = _default_config(kind)
    allowed = _COMMON_CONFIG | (
        _HEAL_CONFIG if kind == "heal"
        else _CHURN_CONFIG if kind == "churn"
        else set()
    )
    supplied = obj.get("config", {})
    if not isinstance(supplied, dict):
        raise JobSpecError(f"job {index}: 'config' must be an object")
    if "shard_workers" in supplied:
        # Left by job files from before the sharded backend's removal:
        # dropped before keying, so the job shares the bare job's cache.
        warnings.warn(
            f"job {index} ({obj.get('id', f'job-{index}')!r}): ignoring "
            "config.shard_workers (the sharded recursion backend was removed)",
            FutureWarning,
            stacklevel=2,
        )
        supplied = {k: v for k, v in supplied.items() if k != "shard_workers"}
    unknown = set(supplied) - allowed
    if unknown:
        raise JobSpecError(
            f"job {index}: unknown config keys for kind {kind!r}: {sorted(unknown)}"
        )
    config.update(supplied)
    _check_int(index, "config.bandwidth", config["bandwidth"], 1)
    if "deadline_s" in config and (
        isinstance(config["deadline_s"], bool)
        or not isinstance(config["deadline_s"], (int, float))
        or config["deadline_s"] <= 0
    ):
        raise JobSpecError(f"job {index}: config.deadline_s must be a number > 0")
    if kind == "heal":
        if config["faults"] is not None and not isinstance(config["faults"], str):
            raise JobSpecError(f"job {index}: config.faults must be a spec string or null")
        _check_int(index, "config.fault_seed", config["fault_seed"])
        _check_int(index, "config.max_retries", config["max_retries"], 0)
    if kind == "churn":
        _check_int(index, "config.churn_ops", config["churn_ops"], 1)
        _check_int(index, "config.churn_seed", config["churn_seed"])
        if not isinstance(config["incremental"], bool):
            raise JobSpecError(f"job {index}: config.incremental must be a boolean")
        if graph.num_nodes < 2:
            raise JobSpecError(f"job {index}: churn needs at least two nodes")

    job_id = obj.get("id", f"job-{index}")
    if not isinstance(job_id, str):
        raise JobSpecError(f"job {index}: 'id' must be a string")
    return Job(index=index, id=job_id, kind=kind, graph=graph, config=config, source=obj)


def load_jobs(source: str | IO[str] | Iterable[str]) -> list[Job]:
    """Parse a JSONL job stream (path, open file, or iterable of lines).

    Blank lines and ``#`` comment lines are skipped.  Raises
    :class:`JobSpecError` with the line number on the first bad line —
    a job file is a unit of intent, so partial acceptance would hide
    typos until after hours of compute.
    """
    if isinstance(source, str):
        with open(source) as f:
            return load_jobs(f)
    jobs: list[Job] = []
    for lineno, line in enumerate(source, 1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        try:
            obj = json.loads(body)
        except json.JSONDecodeError as exc:
            raise JobSpecError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            jobs.append(parse_job(obj, index=len(jobs)))
        except JobSpecError as exc:
            raise JobSpecError(f"line {lineno}: {exc}") from exc
    return jobs
