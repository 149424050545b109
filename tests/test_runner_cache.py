"""The layered simulation-result cache (runner + diskcache).

Covers the cache-key schema (seed/warmup/overrides/pf_kwargs must all
be distinguished), exact SimStats round-trips through the on-disk
store, checksum/quarantine handling of corrupted or stale entries, and
the headline guarantee: a fresh process re-simulates nothing that is
already on disk.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.cpu import MachineConfig
from repro.cpu.config import DEFAULT_WARMUP
from repro.cpu.simulator import FrontEndSimulator
from repro.cpu.stats import SimStats
from repro.experiments import diskcache, runner
from repro.experiments.figures import fig01_stage_footprints
from repro.experiments.journal import grid_fingerprint
from repro.experiments.runner import (
    clear_run_cache,
    reset_run_cache_stats,
    run_baseline,
    run_cache_stats,
    run_prefetcher,
    trace_key,
)
from repro.experiments.sweep import SweepPoint, grid, sweep
from repro.frontend.fdip import FDIPFrontEnd
from repro.prefetchers import make_prefetcher
from repro.workloads import cache as workload_cache

WORKLOAD = "mysql_sibench"


def _read_payload(path):
    """Unwrap an entry file's checksum envelope to its payload dict."""
    envelope = pickle.loads(path.read_bytes())
    return pickle.loads(envelope["payload"])


def _write_payload(path, payload):
    """Re-wrap ``payload`` in a valid checksum envelope at ``path``."""
    blob = pickle.dumps(payload)
    path.write_bytes(pickle.dumps({
        "sha256": hashlib.sha256(blob).hexdigest(), "payload": blob,
    }))


@pytest.fixture()
def cache_dir(tmp_path):
    """A private disk-cache root for one test, restored afterwards."""
    previous = diskcache.set_cache_dir(tmp_path)
    clear_run_cache()
    reset_run_cache_stats()
    yield tmp_path
    clear_run_cache()
    diskcache.set_cache_dir(previous)


def _key(prefetcher, **fields):
    return SweepPoint(WORKLOAD, prefetcher, **fields).key()


class TestCacheKey:
    def test_seed_in_key(self):
        # The original bug: seeds aliased to one cached result.
        assert _key("eip", seed=1) != _key("eip", seed=2)

    def test_warmup_in_key(self):
        assert _key("eip", warmup=0.45) != _key("eip", warmup=0.5)

    def test_overrides_in_key(self):
        assert (_key(None)
                != _key(None, overrides={"hierarchy.perfect_l1i": True}))

    def test_pf_kwargs_in_key(self):
        assert _key("mana") != _key("mana", pf_kwargs={"lookahead": 3})

    def test_track_and_prefetcher_in_key(self):
        assert _key("eip") != _key("eip", track_block_misses=True)
        assert _key(None) != _key("eip")

    def test_key_is_stable(self):
        assert _key("eip") == _key("eip")

    def test_key_format(self):
        """Result and warmup keys keep their string layout (so entries
        written by the same code stay addressable), and the warmup key
        leaves miss tracking out."""
        fp = runner._config_fingerprint()
        point = SweepPoint(WORKLOAD, "mana", scale="tiny",
                           pf_kwargs={"lookahead": 3},
                           overrides={"hierarchy.perfect_l1i": True},
                           track_block_misses=True, warmup=0.4, seed=2)
        fields = (f'{WORKLOAD}|tiny|mana|{{"lookahead": 3}}|'
                  f'{{"hierarchy.perfect_l1i": true}}')
        assert point.key() == f"{fields}|t|0.4|s2|{fp}"
        assert point.warmup_key() == f"warmup|{fields}|0.4|s2|{fp}"
        assert SweepPoint(WORKLOAD).key() == \
            f"{WORKLOAD}|bench|fdip||||{DEFAULT_WARMUP}|s1|{fp}"
        untracked = dataclasses.replace(point, track_block_misses=False)
        assert untracked.warmup_key() == point.warmup_key()


class TestSeedNotAliased:
    def test_different_seeds_cached_separately(self, cache_dir):
        a, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=1)
        b, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=2)
        assert a is not b
        # Each seed keeps returning its own result.
        a2, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=1)
        b2, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=2)
        assert a2 is a and b2 is b

    def test_baseline_forwards_seed(self, cache_dir):
        run_baseline(WORKLOAD, scale="tiny", seed=3)
        stats = run_cache_stats()
        assert stats.simulations == 1
        # A prefetcher run on the same seed reuses nothing of seed=1's
        # world but the baseline key must match run_prefetcher's.
        again, _ = run_prefetcher(WORKLOAD, None, scale="tiny", seed=3)
        assert run_cache_stats().memory_hits == stats.memory_hits + 1


def _make_stats() -> SimStats:
    stats = SimStats()
    stats.instructions = 12345
    stats.cycles = 6789.5
    stats.l1i_misses = 42
    stats.pf_issued = [1, 2, 3]
    stats.served_by = {"L2": 7, "LLC": 8, "DRAM": 9}
    stats.extra = {"bundle_count": 3.0}
    return stats


class TestSimStatsRoundTrip:
    def test_state_dict_exact(self):
        stats = _make_stats()
        clone = SimStats.from_state(stats.state_dict())
        assert clone == stats
        assert clone.state_dict() == stats.state_dict()

    def test_from_state_copies_containers(self):
        stats = _make_stats()
        clone = SimStats.from_state(stats.state_dict())
        clone.pf_issued[0] += 1
        clone.served_by["L2"] += 1
        assert stats.pf_issued[0] == 1
        assert stats.served_by["L2"] == 7

    def test_from_state_rejects_stale_schema(self):
        state = _make_stats().state_dict()
        state["brand_new_counter"] = 1
        with pytest.raises(ValueError):
            SimStats.from_state(state)
        state = _make_stats().state_dict()
        del state["cycles"]
        with pytest.raises(ValueError):
            SimStats.from_state(state)

    def test_disk_round_trip_exact(self, cache_dir, micro_trace):
        from repro.cpu import simulate

        real = simulate(micro_trace)
        cache = diskcache.get_cache()
        cache.put("k", {"schema": diskcache.SCHEMA_VERSION, "key": "k",
                        "stats": real.state_dict(), "miss_map": {4096: 2}})
        payload = cache.get("k")
        loaded = SimStats.from_state(payload["stats"])
        assert loaded == real
        assert payload["miss_map"] == {4096: 2}
        assert loaded.ipc == real.ipc


class TestDiskCacheLayer:
    def test_run_persists_and_reloads(self, cache_dir):
        a, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.get_cache()) == 1
        clear_run_cache()  # memory only; disk survives
        reset_run_cache_stats()
        b, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        stats = run_cache_stats()
        assert stats.simulations == 0 and stats.disk_hits == 1
        assert a is not b and a == b

    def test_corrupted_entry_resimulated_and_quarantined(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        path.write_bytes(b"\x00garbage\xff")
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1  # ignored, not crashed
        assert s.kinds["result"].corrupt == 1
        quarantined = list(diskcache.get_cache().quarantined())
        assert [p.name for p in quarantined] == [path.name + ".corrupt"]
        # The fresh simulation rewrote a good entry under the live name.
        assert len(diskcache.get_cache()) == 1

    def test_bitflipped_entry_fails_checksum(self, cache_dir):
        from repro.experiments.faults import BITFLIP, corrupt_file

        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        # Flip one byte deep in the payload: the pickle may still load,
        # only the checksum can catch it.
        assert corrupt_file(path, BITFLIP, offset=path.stat().st_size // 2)
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1
        assert s.kinds["result"].corrupt == 1
        assert list(diskcache.get_cache().quarantined())

    def test_pre_envelope_entry_quarantined(self, cache_dir):
        # A bare pickled payload dict (no checksum envelope) at a
        # current key's path is corrupt, not a hit.
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.get_cache().entries()
        path.write_bytes(pickle.dumps(_read_payload(path)))
        clear_run_cache()
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.disk_hits == 0 and s.simulations == 1
        assert s.kinds["result"].corrupt == 1
        quarantined = list(diskcache.get_cache().quarantined())
        assert [p.name for p in quarantined] == [path.name + ".corrupt"]

    def test_no_cache_skips_both_layers(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny", use_cache=False)
        assert len(diskcache.get_cache()) == 0
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny", use_cache=False)
        assert run_cache_stats().simulations == 1

    def test_clear_run_cache_disk(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        # A seed no other test memoizes, so this trace is built and
        # stored rather than served from the in-process memo.
        runner.get_trace(WORKLOAD, scale="tiny", seed=13)
        assert len(diskcache.get_cache()) == 1
        assert len(diskcache.stores()["trace"]) == 1
        clear_run_cache(disk=True)
        assert len(diskcache.get_cache()) == 0
        assert len(diskcache.stores()["trace"]) == 0
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert run_cache_stats().simulations == 1

    def test_disable_via_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.get_cache()) == 0


class TestDiskCacheStore:
    def test_atomic_layout(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path)
        cache.put("abc", {"v": 1})
        path = cache.path_for("abc")
        assert path.is_file()
        assert path.parent.parent == tmp_path
        assert path.stem == diskcache.key_digest("abc")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_missing_root_is_empty(self, tmp_path):
        cache = diskcache.DiskCache(tmp_path / "nope")
        assert len(cache) == 0
        assert cache.get("k") is None
        assert cache.clear() == 0


class TestColdPointReads:
    def test_in_process_sweep_reads_the_result_entry_once(
            self, cache_dir, monkeypatch):
        """The sweep probes each point before scheduling it, so the
        scheduled attempt does not probe the result store again."""
        store = diskcache.get_cache()
        result_gets = []
        real_get = diskcache.DiskCache.get

        def counting_get(self, key):
            if self is store:
                result_gets.append(key)
            return real_get(self, key)

        monkeypatch.setattr(diskcache.DiskCache, "get", counting_get)
        point = SweepPoint("mysql_sibench", "eip", scale="tiny")
        report = sweep([point], jobs=1)
        assert report.ok
        assert result_gets == [point.key()]
        s = run_cache_stats()
        assert s.kinds["result"].misses == 1 and s.simulations == 1


#: The ledger's child process; it puts its own directory on sys.path.
LEDGER_CHILD = (Path(__file__).resolve().parents[1] / "benchmarks"
                / "ledger" / "child.py")


class TestPointRun:
    """``SweepPoint.run``: one point's evaluation outside a sweep."""

    def test_ledger_serial_grid_runs_the_manifest(self, cache_dir,
                                                  tmp_path):
        """The ledger's traced fallback for start methods other than
        fork evaluates each manifest point with ``point.run()``."""
        manifest = tmp_path / "grid.json"
        manifest.write_text(json.dumps({"sweep": {
            "workloads": [WORKLOAD], "prefetchers": ["eip"],
            "include_baseline": False, "scale": "tiny"}}))
        spec = importlib.util.spec_from_file_location("ledger_child",
                                                      LEDGER_CHILD)
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
        assert child._serial_grid(
            ["sweep", "--manifest", str(manifest)]) == 0
        s = run_cache_stats()
        assert s.simulations == 1 and s.kinds["result"].writes == 1
        point = SweepPoint(WORKLOAD, "eip", scale="tiny")
        assert runner.peek_cached(point.key()) is not None

    def test_rerun_hits_memory_and_matches_a_sweep(self, cache_dir):
        point = SweepPoint(WORKLOAD, "eip", scale="tiny")
        first, _ = point.run()
        again, _ = point.run()
        assert again is first
        s = run_cache_stats()
        assert (s.simulations, s.memory_hits) == (1, 1)
        report = sweep([point], use_cache=False)
        assert report.results[0].stats.state_dict() == first.state_dict()

    def test_without_a_cache_no_store_is_touched(self, cache_dir,
                                                 monkeypatch):
        calls = []
        real_get, real_put = diskcache.DiskCache.get, diskcache.DiskCache.put

        def get(self, key):
            calls.append(("get", key))
            return real_get(self, key)

        def put(self, key, payload):
            calls.append(("put", key))
            return real_put(self, key, payload)

        monkeypatch.setattr(diskcache.DiskCache, "get", get)
        monkeypatch.setattr(diskcache.DiskCache, "put", put)
        point = SweepPoint(WORKLOAD, "mana", scale="tiny")
        point.run(use_cache=False)
        assert calls == []
        assert runner.peek_cached(point.key()) is None
        assert run_cache_stats().simulations == 1


class TestWarmupCheckpoint:
    """PR 2: the runner persists a post-warmup machine snapshot keyed by
    (trace, config fingerprint, prefetcher) and later runs of the same
    point resume from it instead of re-simulating the warmup window —
    with *exactly* equal SimStats."""

    def test_cold_run_writes_checkpoint(self, cache_dir):
        run_prefetcher(WORKLOAD, "hierarchical", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"][:3] == (0, 1, 1)  # hits, misses, writes
        assert len(diskcache.stores()["warmup"]) == 1
        # Warmup checkpoints are invisible to the result store.
        assert len(diskcache.get_cache()) == 1

    def test_tracked_rerun_skips_warmup_and_is_exact(self, cache_dir):
        # track_block_misses changes the *result* key but not the
        # *warmup* key, so the tracked re-run resumes the checkpoint.
        cold, _ = run_prefetcher(WORKLOAD, "hierarchical", scale="tiny")
        warm, miss_map = run_prefetcher(
            WORKLOAD, "hierarchical", scale="tiny", track_block_misses=True)
        s = run_cache_stats()
        assert s.simulations == 2 and s.kinds["warmup"].hits == 1
        assert s.kinds["warmup"].writes == 1  # resumed: no re-store
        assert warm == cold
        assert miss_map  # tracking still collected from measurement

    def test_checkpointed_rerun_equals_cold(self, cache_dir):
        cold, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        # Drop the cached *result* but keep the warmup checkpoint.
        clear_run_cache()
        diskcache.get_cache().clear()
        assert len(diskcache.stores()["warmup"]) == 1
        reset_run_cache_stats()
        warm, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.simulations == 1 and s.kinds["warmup"].hits == 1
        assert warm == cold

    def test_corrupted_checkpoint_falls_back_cold(self, cache_dir):
        cold, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.stores()["warmup"].entries()
        payload = _read_payload(path)
        # Cut the pickled machine short so resume() raises mid-load.
        payload["state"] = payload["state"][:len(payload["state"]) // 2]
        _write_payload(path, payload)
        clear_run_cache()
        diskcache.get_cache().clear()
        reset_run_cache_stats()
        warm, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].hits == 0 and s.simulations == 1
        assert s.kinds["warmup"].corrupt == 1
        assert warm == cold  # fell back to a correct cold run

    def test_truncated_checkpoint_falls_back_cold(self, cache_dir):
        # A half-written (killed process) checkpoint file: the disk
        # layer quarantines it and the run degrades to a cold warmup
        # with bit-identical stats.
        cold, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.stores()["warmup"].entries()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        clear_run_cache()
        diskcache.get_cache().clear()
        reset_run_cache_stats()
        warm, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].hits == 0 and s.simulations == 1
        assert s.kinds["warmup"].corrupt == 1
        assert warm == cold
        assert list(diskcache.stores()["warmup"].quarantined())
        # The cold run re-persisted a fresh, valid checkpoint.
        assert s.kinds["warmup"].writes == 1

    def test_other_config_checkpoint_falls_back_cold(self, cache_dir):
        # A machine of another configuration, planted under the current
        # warmup key: resume must reject it, and the point re-warms
        # cold with identical stats.
        cold, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        (path,) = diskcache.stores()["warmup"].entries()
        payload = _read_payload(path)
        other = FrontEndSimulator(MachineConfig().replace(
            **{"frontend.ftq_entries": 4}), make_prefetcher("eip"))
        other.warmup(runner.get_trace(WORKLOAD, scale="tiny"))
        payload["state"] = other.state_dict()
        _write_payload(path, payload)
        clear_run_cache()
        diskcache.get_cache().clear()
        reset_run_cache_stats()
        warm, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].corrupt == 1  # malformed, not stale
        assert s.kinds["warmup"].hits == 0 and s.simulations == 1
        assert warm == cold

    def test_arbitrary_resume_exception_falls_back_cold(
            self, cache_dir, monkeypatch):
        # The guard must cover *any* exception type out of resume(),
        # not just the known stale-snapshot signatures.
        cold, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        clear_run_cache()
        diskcache.get_cache().clear()
        reset_run_cache_stats()

        resume = FrontEndSimulator.resume
        loads = []

        def explode_on_load(trace, state, config):
            # The first call loads the stored checkpoint; the cold run
            # that follows resumes its own fresh checkpoint.
            loads.append(state)
            if len(loads) == 1:
                raise ZeroDivisionError("boom mid-load")
            return resume(trace, state, config)

        monkeypatch.setattr(FrontEndSimulator, "resume", explode_on_load)
        warm, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].hits == 0 and s.simulations == 1
        assert warm == cold

    def test_config_change_misses_checkpoint(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        reset_run_cache_stats()
        run_prefetcher(WORKLOAD, "eip", scale="tiny",
                       overrides={"hierarchy.l1i_bytes": 16 * 1024})
        s = run_cache_stats()
        assert (s.kinds["warmup"].hits, s.kinds["warmup"].writes) == (0, 1)

    def test_disable_via_env_skips_checkpoints(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].writes == 0
        assert len(diskcache.stores()["warmup"]) == 0

    def test_no_cache_skips_checkpoints(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny", use_cache=False)
        assert run_cache_stats().kinds["warmup"].writes == 0
        assert len(diskcache.stores()["warmup"]) == 0

    def test_clear_run_cache_disk_clears_checkpoints(self, cache_dir):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert len(diskcache.stores()["warmup"]) == 1
        clear_run_cache(disk=True)
        assert len(diskcache.stores()["warmup"]) == 0


_SECOND_PROCESS = """
import os, sys
from repro.experiments.runner import run_prefetcher, run_cache_stats
run_prefetcher("mysql_sibench", None, scale="tiny")
run_prefetcher("mysql_sibench", "eip", scale="tiny")
s = run_cache_stats()
print(f"SIMULATIONS={s.simulations} DISK={s.disk_hits}")
"""


class TestFreshProcessReuse:
    def test_second_process_zero_simulations(self, cache_dir):
        """The acceptance guarantee: once results are on disk, a brand
        new process (a re-run benchmark script) simulates nothing."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )
        env = dict(os.environ,
                   REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=src + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _SECOND_PROCESS],
                capture_output=True, text=True, env=env, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.strip().splitlines()[-1])
        assert runs[0] == "SIMULATIONS=2 DISK=0"
        assert runs[1] == "SIMULATIONS=0 DISK=2"


@pytest.fixture()
def builds(monkeypatch):
    """Names passed to ``build_application``, starting from an empty
    application and trace memo."""
    calls = []
    real = workload_cache.build_application

    def counting(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(workload_cache, "build_application", counting)
    workload_cache.clear_caches()
    yield calls
    workload_cache.clear_caches()


class TestTraceStore:
    def test_loaded_trace_simulates_like_built(self, cache_dir, builds):
        built, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert builds == [WORKLOAD]
        s = run_cache_stats()
        assert (s.kinds["trace"].hits, s.kinds["trace"].writes) == (0, 1)

        # Keep only the stored trace: drop the result, its checkpoint
        # and the in-process memo.
        clear_run_cache()
        diskcache.get_cache().clear()
        diskcache.stores()["warmup"].clear()
        workload_cache.clear_caches()
        loaded, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        assert builds == [WORKLOAD]  # the hit built nothing
        s = run_cache_stats()
        assert (s.kinds["trace"].hits, s.kinds["trace"].writes) == (1, 1)
        assert loaded.state_dict() == built.state_dict()

    def test_figures_read_the_trace_store(self, cache_dir, builds):
        first = fig01_stage_footprints(WORKLOAD, scale="tiny")
        assert builds == [WORKLOAD]
        workload_cache.clear_caches()
        reset_run_cache_stats()
        second = fig01_stage_footprints(WORKLOAD, scale="tiny")
        assert builds == [WORKLOAD]  # loaded, not rebuilt
        assert run_cache_stats().kinds["trace"].hits == 1
        assert second == first

    def test_cli_reads_the_trace_store(self, cache_dir, builds, tmp_path,
                                       capsys):
        from repro.cli import main

        runner.get_trace(WORKLOAD, scale="tiny")
        assert builds == [WORKLOAD]
        workload_cache.clear_caches()
        out = tmp_path / "trace.npz"
        assert main(["trace", WORKLOAD, "--scale", "tiny",
                     "-o", str(out)]) == 0
        assert builds == [WORKLOAD]  # `repro trace` loaded, not rebuilt
        assert out.exists()
        assert run_cache_stats().kinds["trace"].hits == 1

    def test_disabled_store_is_never_created(self, cache_dir, monkeypatch):
        # Seeds no other test memoizes: both traces are really built.
        runner.get_trace(WORKLOAD, scale="tiny", seed=11, use_cache=False)
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        runner.get_trace(WORKLOAD, scale="tiny", seed=12)
        assert not (cache_dir / "traces").exists()
        assert run_cache_stats().kinds["trace"].writes == 0

    def test_bitflipped_trace_quarantined_and_rebuilt(self, cache_dir,
                                                      builds):
        before, _ = run_baseline(WORKLOAD, scale="tiny")
        path = diskcache.stores()["trace"].path_for(
            trace_key(WORKLOAD, "tiny", 1))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # Forget the result so the point needs its trace again.
        clear_run_cache()
        diskcache.get_cache().path_for(
            SweepPoint(WORKLOAD, None, scale="tiny").key()).unlink()
        workload_cache.clear_caches()
        reset_run_cache_stats()

        after, _ = run_baseline(WORKLOAD, scale="tiny")
        s = run_cache_stats()
        assert s.kinds["trace"].corrupt == 1
        assert (s.kinds["trace"].hits, s.kinds["trace"].writes) == (0, 1)
        assert builds == [WORKLOAD, WORKLOAD]
        assert list(diskcache.stores()["trace"].quarantined())
        assert after.state_dict() == before.state_dict()


#: Patches ``FDIPFrontEnd._predict`` so that running the pass fails.
no_pass = mock.patch.object(FDIPFrontEnd, "_predict",
                            side_effect=AssertionError("pass re-run"))


def _forget_results():
    """Drop the results and the in-process memos; keep warmup
    checkpoints and the trace store."""
    clear_run_cache()
    diskcache.get_cache().clear()
    workload_cache.clear_caches()


class TestPassStore:
    """The front end's prediction pass, kept in the trace store."""

    def test_pass_is_paid_once_per_trace(self, cache_dir, builds):
        first, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert (s.kinds["pass"].hits, s.kinds["pass"].writes) == (0, 1)
        workload_cache.clear_caches()
        with no_pass:
            second, _ = run_prefetcher(WORKLOAD, "mana", scale="tiny")
        s = run_cache_stats()
        assert (s.kinds["pass"].hits, s.kinds["pass"].writes) == (1, 1)
        assert builds == [WORKLOAD]
        # Fresh traces, passes run in-process: the same results.
        for name, stats in (("eip", first), ("mana", second)):
            workload_cache.clear_caches()
            alone, _ = run_prefetcher(WORKLOAD, name, scale="tiny",
                                      use_cache=False)
            assert alone == stats
        s = run_cache_stats()
        assert (s.kinds["pass"].hits, s.kinds["pass"].writes) == (1, 1)

    def test_checkpoint_resume_uses_the_stored_pass(self, cache_dir,
                                                     builds):
        expected, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        _forget_results()
        with no_pass:
            got, _ = run_prefetcher(WORKLOAD, "eip", scale="tiny")
        s = run_cache_stats()
        assert s.kinds["warmup"].hits == 1
        assert (s.kinds["pass"].hits, s.kinds["pass"].writes) == (1, 1)
        assert got == expected

    def test_key_holds_every_bpu_input(self):
        keys = {runner.pass_key(WORKLOAD, "tiny", 1, bpu)
                for bpu in [(8192, 8, 32), (None, 8, 32), (8192, 4, 32),
                            (8192, 8, 16)]}
        assert len(keys) == 4
        assert all(k.startswith("bpu|" + trace_key(WORKLOAD, "tiny", 1))
                   for k in keys)
        # The FTQ, the penalties and issue_prefetches stay out.
        base = MachineConfig().frontend
        other = MachineConfig().replace(**{
            "frontend.ftq_entries": 4, "frontend.btb_miss_penalty": 1.0,
            "frontend.issue_prefetches": False}).frontend
        assert other.bpu_key == base.bpu_key

    def test_without_a_cache_the_store_is_untouched(self, cache_dir, builds,
                                                    monkeypatch):
        run_prefetcher(WORKLOAD, "eip", scale="tiny")  # stores a pass
        workload_cache.clear_caches()
        with mock.patch.object(FDIPFrontEnd, "_predict", autospec=True,
                               side_effect=FDIPFrontEnd._predict) as pass_:
            run_prefetcher(WORKLOAD, "mana", scale="tiny", use_cache=False)
            workload_cache.clear_caches()
            monkeypatch.setenv("REPRO_DISK_CACHE", "0")
            run_prefetcher(WORKLOAD, "efetch", scale="tiny")
        assert pass_.call_count == 2
        s = run_cache_stats()
        assert (s.kinds["pass"].hits, s.kinds["pass"].writes) == (0, 1)


def _kind_key(kind):
    """The key under which the FDIP tiny baseline looks up ``kind``."""
    if kind == "result":
        return SweepPoint(WORKLOAD, None, scale="tiny").key()
    if kind == "warmup":
        return SweepPoint(WORKLOAD, scale="tiny").warmup_key()
    if kind == "trace":
        return trace_key(WORKLOAD, "tiny", 1)
    return runner.pass_key(WORKLOAD, "tiny", 1,
                           MachineConfig().frontend.bpu_key)


#: Per kind, payload fields that pass the checksum but that the kind's
#: validate function rejects.
MALFORMED = {
    "result": {"stats": {"not": "a SimStats state"}, "miss_map": None},
    "warmup": {"state": "not a machine snapshot"},
    "trace": {"trace": {"pc": []}},
    "pass": {"events": b"too short"},
}


class TestEveryKind:
    """One policy for the four artifact kinds: a payload under the
    right schema and key that does not validate is corrupt, counted
    once and recomputed; another schema or key is a plain miss."""

    @pytest.mark.parametrize("kind", diskcache.KINDS)
    def test_malformed_payload_counted_and_recomputed(self, cache_dir,
                                                      builds, kind):
        expected, _ = run_baseline(WORKLOAD, scale="tiny", use_cache=False)
        workload_cache.clear_caches()
        key = _kind_key(kind)
        store = diskcache.stores()[kind]
        store.put(key, {"schema": diskcache.SCHEMA_VERSION, "key": key,
                        **MALFORMED[kind]})
        reset_run_cache_stats()

        got, _ = run_baseline(WORKLOAD, scale="tiny")
        s = run_cache_stats()
        assert s.kinds[kind].corrupt == s.corrupt == 1
        assert (s.kinds[kind].hits, s.kinds[kind].writes) == (0, 1)
        assert s.simulations == 1
        assert got == expected

        # Rewritten: the next lookup of this kind hits.
        if kind == "result":
            clear_run_cache()
        else:
            _forget_results()
        reset_run_cache_stats()
        again, _ = run_baseline(WORKLOAD, scale="tiny")
        s = run_cache_stats()
        assert s.kinds[kind].hits == 1 and s.corrupt == 0
        assert again == expected

    @pytest.mark.parametrize("field", ["schema", "key"])
    @pytest.mark.parametrize("kind", diskcache.KINDS)
    def test_other_schema_or_key_is_a_miss(self, cache_dir, builds, kind,
                                           field):
        key = _kind_key(kind)
        payload = {"schema": diskcache.SCHEMA_VERSION, "key": key,
                   **MALFORMED[kind]}
        payload[field] = "other"
        diskcache.stores()[kind].put(key, payload)
        reset_run_cache_stats()
        run_baseline(WORKLOAD, scale="tiny")
        s = run_cache_stats()
        assert s.kinds[kind].misses == 1 and s.corrupt == 0
        assert s.kinds[kind].writes == 1


class TestTraceFirstDispatch:
    def test_workers_start_on_different_traces(self, cache_dir):
        points = grid(["mysql_sibench", "msvc_social"], ["eip"],
                      scale="tiny")
        events = []
        report = sweep(points, jobs=2, events=events.append)
        scheduled = [e["label"] for e in events
                     if e["event"] == "scheduled"]
        assert [label.split("/")[0] for label in scheduled[:2]] == \
            ["mysql_sibench", "msvc_social"]
        assert [r.point for r in report.results] == points


_KEYS_SCRIPT = """
import json
import repro
from repro.experiments import runner
from repro.experiments.journal import grid_fingerprint
from repro.experiments.sweep import SweepPoint

point = SweepPoint("mysql_sibench", "eip", scale="tiny")
print(json.dumps({
    "package": repro.__file__,
    "code": runner.code_hash(),
    "result": point.key(),
    "warmup": point.warmup_key(),
    "trace": runner.trace_key("mysql_sibench", "tiny", 1),
    "grid": grid_fingerprint([point]),
    "served": runner.peek_cached(point.key()) is not None,
}))
"""


class TestStaleCode:
    def test_source_edit_changes_every_key(self, cache_dir, tmp_path):
        """Editing a timing constant outside MachineConfig invalidates
        the result, checkpoint and trace keys and the run journal's grid
        identity, so results of the old code are never served."""
        package = Path(repro.__file__).resolve().parent
        copy = tmp_path / "tree" / "repro"
        shutil.copytree(package, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert runner.source_digest(copy) == runner.code_hash()
        tlb = copy / "memory" / "tlb.py"
        source = tlb.read_text()
        assert "DEFAULT_WALK_LATENCY = 40\n" in source
        tlb.write_text(source.replace("DEFAULT_WALK_LATENCY = 40\n",
                                      "DEFAULT_WALK_LATENCY = 41\n"))

        point = SweepPoint(WORKLOAD, "eip", scale="tiny")
        old = {
            "code": runner.code_hash(),
            "result": point.key(),
            "warmup": point.warmup_key(),
            "trace": trace_key(WORKLOAD, "tiny", 1),
            "grid": grid_fingerprint([point]),
        }
        diskcache.get_cache().save(
            point.key(), stats=_make_stats().state_dict(), miss_map=None)
        clear_run_cache()
        assert runner.peek_cached(point.key()) is not None

        env = dict(os.environ, PYTHONPATH=str(copy.parent),
                   REPRO_CACHE_DIR=str(cache_dir))
        proc = subprocess.run([sys.executable, "-c", _KEYS_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        new = json.loads(proc.stdout.strip().splitlines()[-1])
        assert Path(new.pop("package")).resolve().parent == copy
        assert new.pop("served") is False
        assert new["code"] == runner.source_digest(copy)
        for name, value in old.items():
            assert new[name] != value, name
