"""Sharded disk-cache maintenance: compaction and store counters.

``DiskCache.compact()`` must re-verify entries, drop stale-schema
payloads, purge quarantine sidecars, and sweep empty shard
directories, all without ever touching the nested ``warmup``
checkpoint store.
"""

import pytest

from repro.experiments import diskcache, runner
from repro.experiments.diskcache import (
    SCHEMA_VERSION,
    DiskCache,
    key_digest,
)
from repro.experiments.faults import TRUNCATE, corrupt_file


def _payload(key):
    return {"schema": SCHEMA_VERSION, "key": key,
            "stats": {"instructions": 1}, "miss_map": None}


class TestCompact:
    def test_full_pass(self, tmp_path):
        cache = DiskCache(tmp_path)
        # one healthy sharded entry
        cache.put("keep", _payload("keep"))
        # one entry torn after it was written
        cache.put("bad", _payload("bad"))
        corrupt_file(cache.path_for("bad"), TRUNCATE)
        # one stale-schema sharded entry
        cache.put("stale", {"schema": SCHEMA_VERSION - 1, "key": "stale",
                            "stats": {}, "miss_map": None})
        # one pre-existing sidecar to purge
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None  # quarantines it

        report = cache.compact()
        assert report.quarantined == 1  # bad
        assert report.stale_dropped == 1
        # bad's sidecar + torn's sidecar
        assert report.purged_sidecars == 2
        # bad/stale/torn shard dirs emptied and removed
        assert report.empty_dirs_removed >= 1
        assert report.entries == 1
        assert [p.name for p in cache.entries()] == \
            [f"{key_digest('keep')}.pkl"]
        assert list(cache.quarantined()) == []
        assert "quarantined 1, dropped 1 stale" in report.describe()

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
            warmup = diskcache.stores()["warmup"]
            warmup.put("checkpoint", _payload("checkpoint"))
            cache.put("result", _payload("result"))
            report = cache.compact()
            assert report.entries == 1
            assert warmup.get("checkpoint") == _payload("checkpoint")
            # warmup/ survives even though compact prunes empty dirs
            assert (tmp_path / "warmup").is_dir()
        finally:
            diskcache.set_cache_dir(previous)

    def test_flat_root_files_dropped(self, tmp_path):
        # <root>/<digest>.pkl files predate sharding and no lookup
        # reads them: compact() reclaims them like stale entries.
        cache = DiskCache(tmp_path)
        cache.put("keep", _payload("keep"))
        flat = tmp_path / f"{key_digest('flat')}.pkl"
        flat.write_bytes(cache.path_for("keep").read_bytes())
        assert cache.get("flat") is None
        report = cache.compact()
        assert report.stale_dropped == 1
        assert not flat.exists()
        assert report.entries == 1

    def test_compact_on_missing_root_is_a_noop(self, tmp_path):
        cache = DiskCache(tmp_path / "never-created")
        report = cache.compact()
        assert (report.quarantined, report.entries) == (0, 0)


class TestStats:
    def test_counters(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", _payload("a"))
        cache.put("b", _payload("b"))
        cache.put("torn", _payload("torn"))
        corrupt_file(cache.path_for("torn"), TRUNCATE)
        assert cache.get("torn") is None
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["quarantined"] == 1
        assert stats["shard_dirs"] >= 1
        assert stats["bytes"] > 0
        assert stats["root"] == str(tmp_path)

    def test_clear_removes_flat_root_files(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put("a", _payload("a"))
        flat = tmp_path / f"{key_digest('flat')}.pkl"
        flat.write_bytes(b"pre-sharding entry")
        sidecar = tmp_path / f"{key_digest('old')}.pkl.corrupt"
        sidecar.write_bytes(b"")
        assert cache.stats()["entries"] == 2
        assert cache.stats()["quarantined"] == 1
        assert cache.clear() == 2
        assert not flat.exists() and not sidecar.exists()
        assert cache.stats()["entries"] == 0

    def test_cli_cache_cycle(self, tmp_path, capsys):
        from repro.cli import main

        previous = diskcache.set_cache_dir(tmp_path)
        try:
            cache = diskcache.get_cache()
            cache.put("good", _payload("good"))
            cache.put("torn", _payload("torn"))
            corrupt_file(cache.path_for("torn"), TRUNCATE)
            assert cache.get("torn") is None
            traces = diskcache.stores()["trace"]
            traces.put("trace", _payload("trace"))
            traces.put("torn", _payload("torn"))
            corrupt_file(traces.path_for("torn"), TRUNCATE)
            assert traces.get("torn") is None

            assert main(["cache", "info"]) == 0
            out = capsys.readouterr().out
            assert "result: 1 entries" in out
            assert "1 quarantined" in out
            assert "trace: 1 entries" in out

            assert main(["cache", "compact"]) == 0
            out = capsys.readouterr().out
            assert "result: quarantined 0" in out
            assert len(cache) == 1
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
