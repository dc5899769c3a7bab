"""The canonical-graph result cache behind the embedding service.

Under heavy traffic the common case is the *same topology over and over*
(the same deployment re-verified, the same mesh re-certified after a
config push), so the service answers repeats from cache instead of
recomputing.  Entries are keyed by ``(canonical_hash, job_kind,
config_key)`` — the label-invariant WL hash from :mod:`.canon` plus the
computation kind and its normalized config — with two hit tiers beneath
one key:

**exact** — the submission's insertion-order fingerprint matches a
    stored entry.  The stored verdict is returned verbatim and is
    **bit-identical** to what a cold run of the code that wrote the
    record would produce (the whole pipeline is deterministic given the
    adjacency structure; the E16/E15 differential suites are the
    standing proof).  Every record carries the :data:`RESULT_VERSION`
    of the code that wrote it, and only records of the current one are
    served, by either tier: a record an older version wrote still loads
    (legacy v1 lines included), but a lookup passes it over (the job
    recomputes, a counted miss), the fresh verdict replaces it, and
    ``repro cache-compact`` drops it.

**canonical** — no exact match, but the query's WL refinement is
    *discrete* (all vertex colors distinct) and a stored entry kept its
    rotation in canonical ranks.  The color-matching bijection is then a
    genuine isomorphism, so the cached rotation is remapped onto the
    query's vertex labels — and defensively re-verified (genus 0 on the
    query graph) before being served; a failed check falls back to a
    miss rather than ever serving a wrong answer.  The ledger fields of
    a canonical hit describe the original isomorphic run.

Only deterministic, complete outcomes (``ok``, ``non-planar``) are
cached; degraded and errored outcomes always recompute.

The in-memory store is a bounded LRU.  With ``path`` set, every store
also appends one JSONL line, and a fresh cache warm-starts by replaying
the file — the digests are process-stable (:mod:`.canon` uses blake2b,
never Python's randomized ``hash()``), so a persisted cache is valid
across processes, restarts, and machines.

The persistent store is **crash-consistent**: every v2 record carries a
CRC-32 over its canonical body, appends are flushed and ``fsync``'d
(one record = one durable unit), and replay repairs the file — a torn
tail (the partial line a crash mid-append leaves, plus any trailing
garbage after the last valid record) is truncated off, while corrupt
lines *followed by* valid ones (a concurrent writer's damage, a flipped
bit mid-file) are counted and skipped, never fatal.  Legacy v1 lines
(no CRC) still load.  A corrupt cache degrades to cold, it does not
take the service down.  ``repro cache-compact`` (:func:`compact_store`)
rewrites a grown store to its live entries atomically.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

from ..planar.graph import Graph, NodeId
from ..planar.rotation import RotationError, RotationSystem
from .canon import CanonicalForm

__all__ = [
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "CACHE_SCHEMA_VERSION",
    "RESULT_VERSION",
    "compact_store",
]

CACHE_SCHEMA_VERSION = 2

#: Bumped whenever a cold run can give a different verdict for the same
#: job (rotation, rounds, words), so a persisted store never serves an
#: older code's verdict.  Records written before the field existed read
#: as 1.  2: node IDs travel as ranks (one word each).
RESULT_VERSION = 2

#: Isomorphic-but-differently-ordered submissions of one topology under
#: one key; beyond this the oldest entry is dropped (the canonical tier
#: usually answers them all anyway).
_MAX_ENTRIES_PER_KEY = 8

CacheKey = tuple[str, str, str]  # (canonical_hash, job_kind, config_key)


@dataclass
class CacheEntry:
    exact: str  # insertion-order fingerprint of the executed graph
    verdict: dict  # normalized JSON verdict, returned verbatim on exact hits
    canonical_rotation: dict[int, list[int]] | None = None  # rank -> neighbor ranks
    result_version: int = RESULT_VERSION  # of the code that computed ``verdict``


@dataclass
class CacheStats:
    """Hit/miss counters surfaced in batch reports and benches."""

    hits_exact: int = 0
    hits_canonical: int = 0
    hits_coalesced: int = 0  # duplicate in-flight jobs folded by the driver
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    rejected_remaps: int = 0  # canonical hits that failed re-verification
    persisted_loads: int = 0
    persisted_skipped: int = 0  # mid-file corrupt lines (skipped, kept on disk)
    torn_truncated: int = 0  # torn-tail records truncated off on replay

    @property
    def hits(self) -> int:
        return self.hits_exact + self.hits_canonical + self.hits_coalesced

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "hits_exact": self.hits_exact,
            "hits_canonical": self.hits_canonical,
            "hits_coalesced": self.hits_coalesced,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "rejected_remaps": self.rejected_remaps,
            "persisted_loads": self.persisted_loads,
            "persisted_skipped": self.persisted_skipped,
            "torn_truncated": self.torn_truncated,
        }


@dataclass
class CacheHit:
    verdict: dict
    tier: str  # "exact" | "canonical"


def _rotation_repr(rotation: dict[NodeId, tuple]) -> dict[str, list[str]]:
    """The verdict wire form of a rotation: repr-keyed, JSON-ready."""
    return {repr(v): [repr(u) for u in order] for v, order in rotation.items()}


@dataclass
class ResultCache:
    """Bounded LRU + optional persistent JSONL store of job verdicts."""

    capacity: int = 512
    path: str | None = None
    fsync: bool = True  # fsync every append (one record = one durable unit)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._store: OrderedDict[CacheKey, list[CacheEntry]] = OrderedDict()
        if self.path is not None:
            self._replay(self.path)

    def __len__(self) -> int:
        return len(self._store)

    # -- lookup ----------------------------------------------------------

    def lookup(
        self, key: CacheKey, exact: str, form: CanonicalForm, graph: Graph
    ) -> CacheHit | None:
        """Return a hit for ``graph`` under ``key``, or ``None``.

        Misses are *not* counted here: the driver increments
        ``stats.misses`` only when it actually dispatches a computation,
        so ``misses`` stays equal to the number of cold runs even when
        duplicate in-flight jobs are coalesced.
        """
        entries = self._store.get(key)
        if entries is not None:
            self._store.move_to_end(key)
            entries = [e for e in entries if e.result_version == RESULT_VERSION]
            for entry in entries:
                if entry.exact == exact:
                    self.stats.hits_exact += 1
                    return CacheHit(verdict=entry.verdict, tier="exact")
            if form.discrete:
                for entry in entries:
                    if entry.canonical_rotation is None:
                        continue
                    verdict = self._remap(entry, form, graph)
                    if verdict is not None:
                        self.stats.hits_canonical += 1
                        return CacheHit(verdict=verdict, tier="canonical")
        return None

    def _remap(
        self, entry: CacheEntry, form: CanonicalForm, graph: Graph
    ) -> dict | None:
        """Materialize a stored canonical rotation onto ``graph``'s labels.

        Discreteness on both sides plus an equal graph hash makes the
        rank-matching bijection an isomorphism (see :mod:`.canon`), but
        the result is still re-verified — genus 0 on the query graph —
        so a WL edge case can cost a recompute, never a wrong answer.
        """
        assert form.labels is not None
        inverse = {rank: v for v, rank in form.labels.items()}
        try:
            rotation = {
                inverse[int(rank)]: tuple(inverse[int(r)] for r in order)
                for rank, order in entry.canonical_rotation.items()
            }
        except KeyError:
            self.stats.rejected_remaps += 1
            return None
        try:
            system = RotationSystem(graph, rotation)
            if system.genus() != 0:
                self.stats.rejected_remaps += 1
                return None
        except RotationError:
            self.stats.rejected_remaps += 1
            return None
        verdict = json.loads(json.dumps(entry.verdict, sort_keys=True))
        verdict["rotation"] = _rotation_repr(rotation)
        verdict["remapped"] = True
        return verdict

    # -- store -----------------------------------------------------------

    def store(
        self,
        key: CacheKey,
        exact: str,
        verdict: dict,
        canonical_rotation: dict[int, list[int]] | None = None,
        result_version: int = RESULT_VERSION,
        _persist: bool = True,
    ) -> None:
        entries = self._store.get(key)
        if entries is None:
            entries = self._store[key] = []
        else:
            self._store.move_to_end(key)
            if any(e.exact == exact and e.result_version == RESULT_VERSION for e in entries):
                return  # already present (e.g. two racing cold runs)
            # Another version's entries are never served: drop them here.
            entries[:] = [e for e in entries if e.result_version == RESULT_VERSION]
        entries.append(
            CacheEntry(exact, verdict, canonical_rotation, result_version)
        )
        if len(entries) > _MAX_ENTRIES_PER_KEY:
            entries.pop(0)
        self.stats.stores += 1
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.stats.evictions += 1
        if _persist and self.path is not None:
            self._append(key, entries[-1])

    # -- persistence -----------------------------------------------------

    def _append(self, key: CacheKey, entry: CacheEntry) -> None:
        data = _record_line(key, entry).encode("utf-8")
        with open(self.path, "ab") as f:
            f.write(data)
            if self.fsync:
                f.flush()
                os.fsync(f.fileno())

    def _replay(self, path: str) -> None:
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError:
            return  # no warm store yet; it will be created on first append
        records, skipped, torn, good_end = _scan_store(raw)
        for key, exact, verdict, canon_rot, result_version in records:
            self.store(key, exact, verdict, canon_rot, result_version, _persist=False)
            self.stats.persisted_loads += 1
        self.stats.persisted_skipped += skipped
        self.stats.torn_truncated += torn
        if good_end < len(raw):
            # Repair the store in place: drop the torn tail a crash
            # mid-append left, so the next append starts on a record
            # boundary instead of welding onto the fragment.
            try:
                with open(path, "r+b") as f:
                    f.truncate(good_end)
            except OSError:
                pass  # read-only store: serve from memory, skip the repair
        # Replay counted its inserts as stores; those were not fresh work.
        self.stats.stores -= self.stats.persisted_loads


def _record_line(key: CacheKey, entry: CacheEntry) -> str:
    """One durable v2 record: the canonical body JSON plus a CRC-32 of
    that exact serialization, newline-terminated."""
    body = {
        "v": CACHE_SCHEMA_VERSION,
        "key": list(key),
        "exact": entry.exact,
        "verdict": entry.verdict,
        "canon_rot": entry.canonical_rotation,
        "rv": entry.result_version,
    }
    crc = zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))
    body["crc"] = crc
    return json.dumps(body, sort_keys=True) + "\n"


def _parse_record(line: str) -> tuple:
    """Decode one store line into ``(key, exact, verdict, canon_rot,
    result_version)``.

    Raises ``ValueError``/``KeyError``/``TypeError`` on any damage: bad
    JSON, wrong schema version, malformed key — or, for v2 records, a
    CRC that does not match the canonical body serialization (a flipped
    bit anywhere in the record changes one side or the other).  Legacy
    v1 lines carry no CRC and are accepted on structure alone.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("record is not an object")
    version = obj.get("v")
    if version == 2:
        crc = obj.pop("crc", None)
        if crc != zlib.crc32(json.dumps(obj, sort_keys=True).encode("utf-8")):
            raise ValueError("CRC mismatch")
    elif version != 1:
        raise ValueError("schema version mismatch")
    key = tuple(obj["key"])
    if len(key) != 3:
        raise ValueError("malformed key")
    exact = obj["exact"]
    verdict = obj["verdict"]
    canon_rot = obj.get("canon_rot")
    if canon_rot is not None:
        canon_rot = {
            int(rank): [int(r) for r in order] for rank, order in canon_rot.items()
        }
    return key, exact, verdict, canon_rot, obj.get("rv", 1)


def _scan_store(raw: bytes) -> tuple[list, int, int, int]:
    """Walk a persisted store byte-for-byte.

    Returns ``(records, skipped, torn, good_end)`` where ``records`` are
    the decoded valid records in file order, ``good_end`` is the byte
    offset just past the last valid record, ``skipped`` counts corrupt
    lines *before* that offset (mid-file damage: skip, keep on disk —
    a concurrent writer may still own those bytes), and ``torn`` counts
    everything after it (trailing corrupt or unterminated lines: the
    torn tail a crash mid-append leaves, safe to truncate).
    """
    records: list = []
    bad_offsets: list[int] = []  # offsets of invalid lines, in file order
    good_end = 0
    offset = 0
    for chunk in raw.split(b"\n"):
        end = offset + len(chunk) + 1  # +1 for the newline split off
        terminated = end <= len(raw)
        if chunk.strip():
            parsed = None
            if terminated:  # an unterminated final line is torn by definition
                try:
                    parsed = _parse_record(chunk.decode("utf-8"))
                except (ValueError, KeyError, TypeError, AttributeError):
                    parsed = None
            if parsed is not None:
                records.append(parsed)
                good_end = end
            else:
                bad_offsets.append(offset)
        elif terminated:
            good_end = end  # blank lines are harmless padding, keep them
        offset = end
    skipped = sum(1 for o in bad_offsets if o < good_end)
    torn = len(bad_offsets) - skipped
    return records, skipped, torn, good_end


def compact_store(
    path: str, capacity: int = 512, output: str | None = None
) -> dict:
    """Rewrite a persisted store to its live entries, atomically.

    An append-only store grows monotonically — superseded duplicates,
    skipped corruption, records of an older result version and entries
    beyond the LRU capacity all stay on disk.  Compaction replays the
    file through a fresh :class:`ResultCache` (same capacity semantics
    as serving, so what survives compaction is exactly what a warm start
    would load, less records of another result version), writes the
    surviving entries as fsync'd v2 records to a temp file, and
    ``os.replace``\\ s it over ``output`` (default: ``path`` itself) —
    a crash mid-compact leaves the original store untouched.

    Returns a JSON-ready summary of what was kept and dropped.
    """
    size_before = os.stat(path).st_size  # missing input is an error
    cache = ResultCache(capacity=capacity, path=path, fsync=False)
    tmp = (output or path) + ".compact.tmp"
    keys = entries = stale = 0
    with open(tmp, "wb") as f:
        for key, bucket in cache._store.items():
            # Another result version's entries are never served: not kept.
            live = [e for e in bucket if e.result_version == RESULT_VERSION]
            for entry in live:
                f.write(_record_line(key, entry).encode("utf-8"))
            keys += bool(live)
            entries += len(live)
            stale += len(bucket) - len(live)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, output or path)
    return {
        "type": "cache-compact",
        "path": path,
        "output": output or path,
        "keys": keys,
        "entries": entries,
        "loaded": cache.stats.persisted_loads,
        "skipped": cache.stats.persisted_skipped,
        "torn_truncated": cache.stats.torn_truncated,
        "stale": stale,
        "bytes_before": size_before,
        "bytes_after": os.stat(output or path).st_size,
    }
