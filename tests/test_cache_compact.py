"""Sharded disk-cache layout: legacy migration + compaction.

PR-3 introduced the flat ``<root>/<digest>.pkl`` store; the sharded
layout (``<root>/<digest[:2]>/<digest>.pkl``) must keep serving those
legacy entries — transparently migrating them on read — and
``DiskCache.compact()`` must migrate the stragglers in bulk, drop
stale-schema payloads, purge quarantine sidecars, and sweep empty
shard directories, all without ever touching the nested ``warmup``
checkpoint store.
"""

import os
import pickle

import pytest

from repro.experiments import diskcache, runner
from repro.experiments.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    key_digest,
)
from repro.experiments.faults import TRUNCATE, corrupt_file


def _payload(key, marker=1):
    return {"schema": SCHEMA_VERSION, "key": key,
            "stats": {"instructions": marker}, "miss_map": None}


def _make_legacy(cache, key, payload=None):
    """Plant ``key`` at the pre-sharding flat location."""
    cache.put(key, payload or _payload(key))
    sharded = cache.path_for(key)
    legacy = cache.legacy_path_for(key)
    os.replace(sharded, legacy)
    sharded.parent.rmdir()
    return legacy


class TestLegacyMigration:
    def test_flat_entry_served_and_migrated_on_read(self, tmp_path):
        cache = DiskCache(tmp_path)
        legacy = _make_legacy(cache, "k1")
        assert cache.get("k1") == _payload("k1")
        # the read moved the file into its shard directory
        assert not legacy.exists()
        assert cache.path_for("k1").exists()
        # and the next read is direct
        assert cache.get("k1") == _payload("k1")

    def test_corrupt_flat_entry_quarantined_into_shard_dir(self, tmp_path):
        cache = DiskCache(tmp_path)
        legacy = _make_legacy(cache, "k1")
        corrupt_file(legacy, TRUNCATE)
        assert cache.get("k1") is None
        assert not legacy.exists()
        (sidecar,) = cache.quarantined()
        # sidecar surfaces beside the *sharded* path, not at the root
        assert sidecar.parent == cache.path_for("k1").parent
        assert cache.corrupt_count == 1

    def test_sharded_entry_wins_over_stale_flat(self, tmp_path):
        cache = DiskCache(tmp_path)
        _make_legacy(cache, "k1", _payload("k1", marker=1))
        cache.put("k1", _payload("k1", marker=2))
        assert cache.get("k1")["stats"]["instructions"] == 2

    def test_legacy_entries_listing(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("sharded", _payload("sharded"))
        _make_legacy(cache, "flat")
        legacy = list(cache.legacy_entries())
        assert legacy == [cache.legacy_path_for("flat")]
        # entries() sees both
        assert len(list(cache.entries())) == 2

    def test_runner_resolves_legacy_entry_from_disk(self, tmp_path):
        previous = diskcache.set_cache_dir(tmp_path)
        try:
            runner.clear_run_cache()
            from repro.cpu.stats import SimStats

            stats = SimStats()
            stats.instructions = 41
            runner._disk_store("point-key", stats, None)
            cache = diskcache.get_cache()
            _make_legacy(cache, "point-key",
                         cache.get("point-key"))
            runner.clear_run_cache()  # force the disk path
            hit = runner.peek_cached("point-key")
            assert hit is not None
            stats_out, _miss, source = hit
            assert source == "disk"
            assert stats_out.instructions == 41
        finally:
            runner.clear_run_cache()
            diskcache.set_cache_dir(previous)


class TestCompact:
    def test_full_pass(self, tmp_path):
        cache = DiskCache(tmp_path)
        # one healthy sharded entry
        cache.put("keep", _payload("keep"))
        # two legacy flats: one valid (migrates), one corrupt
        _make_legacy(cache, "flat-ok")
        bad = _make_legacy(cache, "flat-bad")
        corrupt_file(bad, TRUNCATE)
        # one stale-schema sharded entry
        cache.put("stale", {"schema": SCHEMA_VERSION - 1, "key": "stale",
                            "stats": {}, "miss_map": None})
        # one pre-existing sidecar to purge
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None  # quarantines it

        report = cache.compact()
        assert report.migrated == 1
        assert report.quarantined == 1  # the corrupt flat
        assert report.stale_dropped == 1
        # flat-bad's sidecar + torn's sidecar
        assert report.purged_sidecars == 2
        # stale/torn shard dirs emptied and removed
        assert report.empty_dirs_removed >= 1
        assert report.entries == 2  # keep + flat-ok
        assert sorted(p.name for p in cache.entries()) == sorted(
            f"{key_digest(k)}.pkl" for k in ("keep", "flat-ok"))
        assert list(cache.legacy_entries()) == []
        assert list(cache.quarantined()) == []
        assert "migrated 1 legacy" in report.describe()

    def test_keep_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None
        report = cache.compact(purge_quarantined=False)
        assert report.purged_sidecars == 0
        assert len(list(cache.quarantined())) == 1

    def test_warmup_store_never_touched(self, tmp_path):
        previous = diskcache.set_cache_dir(tmp_path)
        try:
            cache = diskcache.get_cache()
            warmup = diskcache.get_warmup_cache()
            warmup.put("checkpoint", _payload("checkpoint"))
            cache.put("result", _payload("result"))
            report = cache.compact()
            assert report.entries == 1
            assert warmup.get("checkpoint") == _payload("checkpoint")
            # warmup/ survives even though compact prunes empty dirs
            assert (tmp_path / "warmup").is_dir()
        finally:
            diskcache.set_cache_dir(previous)

    def test_compact_on_missing_root_is_a_noop(self, tmp_path):
        cache = DiskCache(tmp_path / "never-created")
        report = cache.compact()
        assert (report.migrated, report.quarantined, report.entries) == \
            (0, 0, 0)


class TestStats:
    def test_counters(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", _payload("a"))
        cache.put("b", _payload("b"))
        _make_legacy(cache, "c")
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None
        stats = cache.stats()
        assert stats["entries"] == 3  # a, b, legacy c
        assert stats["legacy"] == 1
        assert stats["quarantined"] == 1
        assert stats["shard_dirs"] >= 1
        assert stats["bytes"] > 0
        assert stats["root"] == str(tmp_path)

    def test_cli_cache_cycle(self, tmp_path, capsys):
        from repro.cli import main

        previous = diskcache.set_cache_dir(tmp_path)
        try:
            cache = diskcache.get_cache()
            _make_legacy(cache, "flat")
            cache.put("torn", _payload("torn"))
            corrupt_file(cache.path_for("torn"), TRUNCATE)
            assert cache.get("torn") is None
            traces = diskcache.get_trace_cache()
            traces.put("trace", _payload("trace"))
            traces.put("torn", _payload("torn"))
            corrupt_file(traces.path_for("torn"), TRUNCATE)
            assert traces.get("torn") is None

            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
            assert "legacy" in out and "quarantined" in out
            assert "traces: 1 entries" in out

            assert main(["cache", "compact"]) == 0
            out = capsys.readouterr().out
            assert "migrated 1 legacy" in out
            assert list(cache.legacy_entries()) == []
            assert list(cache.quarantined()) == []
            assert list(traces.quarantined()) == []

            assert main(["cache", "clear"]) == 0
            capsys.readouterr()
            assert len(cache) == 0
            assert len(traces) == 0
        finally:
            runner.clear_run_cache()
            diskcache.set_cache_dir(previous)


@pytest.fixture(autouse=True)
def _reset_corruption_counters():
    yield
    runner.reset_run_cache_stats()
