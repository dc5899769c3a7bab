"""The job model (serve/jobs.py) and result cache (serve/cache.py)."""

import json

import pytest

from repro.planar.generators import grid_graph, random_maximal_planar
from repro.serve import (
    ResultCache,
    canonical_form,
    config_key,
    exact_fingerprint,
    load_jobs,
    parse_job,
)
from repro.serve.jobs import JobSpecError


class TestJobParsing:
    def test_edges_job(self):
        job = parse_job({"edges": [[0, 1], [1, 2], [2, 0]], "id": "tri"}, 4)
        assert job.id == "tri"
        assert job.kind == "embed"
        assert job.index == 4
        assert job.graph.num_nodes == 3
        assert job.config == {"bandwidth": 1}

    def test_demo_job_expanded_at_parse_time(self):
        job = parse_job({"demo": ["grid", 3, 3]})
        assert job.graph.num_nodes == 9
        assert job.payload()["edges"] == [list(e) for e in grid_graph(3, 3).edges()]

    def test_demo_seed_threaded(self):
        a = parse_job({"demo": ["maximal", 12], "seed": 1})
        b = parse_job({"demo": ["maximal", 12], "seed": 2})
        assert sorted(map(repr, a.graph.edges())) != sorted(map(repr, b.graph.edges()))

    def test_heal_config_defaults(self):
        job = parse_job({"demo": ["grid", 3, 3], "kind": "heal"})
        assert job.config == {
            "bandwidth": 1, "faults": None, "fault_seed": 0, "max_retries": 3,
        }

    @pytest.mark.parametrize("bad", [
        {},  # no graph source
        {"edges": [[0, 1]], "demo": ["grid", 2, 2]},  # both sources
        {"edges": [[0, 1]], "kind": "dance"},  # unknown kind
        {"edges": [[0, 1]], "bogus": 1},  # unknown field
        {"edges": [[0, 1]], "config": {"bogus": 1}},  # unknown config key
        {"edges": [[0, 1]], "config": {"faults": "drop=0.1"}},  # heal-only key on embed
        {"edges": [[0, 0]]},  # self-loop
        {"edges": [[0, 1], [2, 3]]},  # disconnected
        {"edges": [[0, 1.5]]},  # non-int/str node
        {"edges": "0 1"},  # not a list
        {"demo": ["nosuch", 3]},  # unknown family
        {"edges": [[0, 1]], "config": {"bandwidth": 0}},  # bandwidth < 1
        {"edges": [[0, 1]], "id": 7},  # non-string id
        # JSON booleans are Python ints; every integer field rejects them.
        {"edges": [[0, 1]], "config": {"bandwidth": True}},
        {"demo": ["maximal", 8], "seed": True},
        {"edges": [[0, 1]], "kind": "heal", "config": {"fault_seed": False}},
        {"edges": [[0, 1]], "kind": "heal", "config": {"max_retries": True}},
    ])
    def test_rejects(self, bad):
        with pytest.raises(JobSpecError):
            parse_job(bad)

    @pytest.mark.parametrize("value", [2, -1, "x"])
    def test_legacy_shard_workers_dropped_with_warning(self, value):
        """Job files from before the sharded backend's removal still run,
        under the cache key of the same job without the key."""
        spec = {"demo": ["grid", 3, 3], "id": "old"}
        bare = load_jobs([json.dumps(spec)])[0]
        with pytest.warns(FutureWarning, match="'old'") as record:
            (job,) = load_jobs([json.dumps({**spec, "config": {"shard_workers": value}})])
        assert sum(issubclass(w.category, FutureWarning) for w in record) == 1
        assert job.config == bare.config
        assert config_key(job.config) == config_key(bare.config)

    def test_legacy_shard_workers_leaves_other_keys_rejected(self):
        with pytest.warns(FutureWarning), pytest.raises(JobSpecError, match="bogus"):
            parse_job({"edges": [[0, 1]], "config": {"bogus": 1, "shard_workers": 2}})

    def test_load_jobs_skips_blanks_and_comments(self):
        lines = [
            "# a comment",
            "",
            json.dumps({"edges": [[0, 1]]}),
            json.dumps({"demo": ["cycle", 5]}),
        ]
        jobs = load_jobs(lines)
        assert [j.index for j in jobs] == [0, 1]
        assert [j.id for j in jobs] == ["job-0", "job-1"]

    def test_load_jobs_reports_line_number(self):
        with pytest.raises(JobSpecError, match="line 2"):
            load_jobs([json.dumps({"edges": [[0, 1]]}), "{not json"])

    def test_config_key_is_order_insensitive(self):
        assert config_key({"a": 1, "b": 2}) == config_key({"b": 2, "a": 1})


def _entry(graph, kind="embed", config=None):
    form = canonical_form(graph)
    key = (form.hash, kind, config_key(config or {"bandwidth": 1}))
    return key, exact_fingerprint(graph), form


class TestResultCache:
    def test_exact_hit_round_trip(self):
        cache = ResultCache(capacity=4)
        g = grid_graph(3, 3)
        key, exact, form = _entry(g)
        verdict = {"outcome": "ok", "report": {"rounds": 5}}
        cache.store(key, exact, verdict)
        hit = cache.lookup(key, exact, form, g)
        assert hit is not None and hit.tier == "exact"
        assert hit.verdict == verdict
        assert cache.stats.hits_exact == 1

    def test_miss_on_different_config(self):
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, form = _entry(g)
        cache.store(key, exact, {"outcome": "ok"})
        other_key = (key[0], key[1], config_key({"bandwidth": 2}))
        assert cache.lookup(other_key, exact, form, g) is None

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        graphs = [grid_graph(2, k) for k in (2, 3, 4)]
        keys = [_entry(g) for g in graphs]
        cache.store(*keys[0][:2], {"outcome": "ok", "which": 0})
        cache.store(*keys[1][:2], {"outcome": "ok", "which": 1})
        # Touch the first entry so the second is now least-recent.
        assert cache.lookup(keys[0][0], keys[0][1], keys[0][2], graphs[0]) is not None
        cache.store(*keys[2][:2], {"outcome": "ok", "which": 2})
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[1][0], keys[1][1], keys[1][2], graphs[1]) is None
        assert cache.lookup(keys[0][0], keys[0][1], keys[0][2], graphs[0]) is not None

    def test_persistence_round_trip(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        g = random_maximal_planar(16, seed=1)
        key, exact, form = _entry(g)
        first = ResultCache(capacity=8, path=path)
        first.store(key, exact, {"outcome": "ok", "report": {"rounds": 9}})

        warm = ResultCache(capacity=8, path=path)
        assert warm.stats.persisted_loads == 1
        assert warm.stats.stores == 0  # replay is not fresh work
        hit = warm.lookup(key, exact, form, g)
        assert hit is not None and hit.verdict["report"]["rounds"] == 9

    def test_corrupt_persisted_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps({
            "v": 1, "key": ["h", "embed", "{}"], "exact": "fp",
            "verdict": {"outcome": "ok"}, "canon_rot": None,
        })
        path.write_text("{broken\n" + json.dumps({"v": 99}) + "\n" + good + "\n")
        cache = ResultCache(path=str(path))
        assert cache.stats.persisted_loads == 1
        assert cache.stats.persisted_skipped == 2
        assert len(cache) == 1

    def test_duplicate_store_is_idempotent(self):
        cache = ResultCache()
        g = grid_graph(3, 3)
        key, exact, _form = _entry(g)
        cache.store(key, exact, {"outcome": "ok"})
        cache.store(key, exact, {"outcome": "ok"})
        assert cache.stats.stores == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestChurnJobs:
    def test_churn_config_defaults(self):
        job = parse_job({"demo": ["grid", 3, 3], "kind": "churn"})
        assert job.config == {
            "bandwidth": 1, "churn_ops": 8, "churn_seed": 0, "incremental": True,
        }

    @pytest.mark.parametrize("bad", [
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_ops": 0}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_seed": "x"}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"incremental": 1}},
        {"demo": ["grid", 3, 3], "config": {"churn_ops": 4}},  # churn-only key on embed
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"faults": "drop=0.1"}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_ops": True}},
        {"demo": ["grid", 3, 3], "kind": "churn", "config": {"churn_seed": False}},
    ])
    def test_churn_rejects(self, bad):
        with pytest.raises(JobSpecError):
            parse_job(bad)
