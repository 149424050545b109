"""The on-disk artifact store: one table of checksummed pickle stores.

The per-process memoization in :mod:`repro.experiments.runner` dies
with the process.  This module persists what a point costs to rebuild
so that fresh processes (a second benchmark invocation, the workers of
a parallel sweep) reuse it.  The table has one :class:`ArtifactStore`
per kind of artifact:

========  ==================  =========================================
kind      directory           value built from the payload
========  ==================  =========================================
result    ``<root>``          ``(SimStats, miss_map)`` of one point
warmup    ``<root>/warmup``   the pickled machine, bound to its trace
trace     ``<root>/traces``   the :class:`~repro.workloads.trace.Trace`
pass      ``<root>/passes``   a trace's branch-prediction event bytes
========  ==================  =========================================

Layout (see docs/SWEEP_CACHE.md)::

    <store>/<digest[:2]>/<digest>.pkl

where ``digest`` is the SHA-256 of the cache key.  Entries are sharded
into 256 two-hex-character subdirectories so a 10^5-entry store never
puts more than a few hundred files in one directory.  Every key
carries the simulator's code hash (``runner.code_hash()``), so entries
written by other code are never looked up again (``repro cache clear``
reclaims their space), and flat ``<store>/<digest>.pkl`` files left by
stores written before sharding are never read (``compact()`` drops
them).

Each file is a pickled *envelope* wrapping the pickled payload bytes
with their SHA-256::

    {"sha256": "<hex digest of payload bytes>", "payload": b"..."}

where the inner payload is ``{"schema": SCHEMA_VERSION, "key": <full
key string>, **fields}``, the fields being the kind's own (``stats``
and ``miss_map`` for a result, ``state`` for a checkpoint (the bytes
of ``FrontEndSimulator.state_dict``), ``trace`` for a trace, ``events``
for a pass).

One policy holds for every kind (:meth:`ArtifactStore.load`): a
missing entry, or one whose ``schema`` or ``key`` differs, is a
**miss**; an entry that fails the checksum (it is quarantined, moved
aside to ``<name>.pkl.corrupt``) or whose payload the kind's validate
function rejects is **corrupt**.  Either way the caller recomputes the
artifact and rewrites it.  Corruption is never an exception to the
caller.  Each store counts its hits, misses, writes, corrupt entries
and refused writes (:meth:`ArtifactStore.counts`).

Writes are atomic (temp file + fsync + ``os.replace``), so a killed
process can never leave a half-written entry under a live name
(docs/RESILIENCE.md).

Environment knobs:

``REPRO_CACHE_DIR``
    Cache root (default ``~/.cache/repro-hp/sim``).
``REPRO_DISK_CACHE``
    Set to ``0``/``off``/``false`` to disable persistence entirely.
``REPRO_CACHE_MIN_FREE``
    Free-space floor in bytes (default 32 MiB): writes that would land
    on a volume with less headroom than this (or than twice the entry
    size, whichever is larger) are *refused* and counted, rather than
    risk torn writes racing ENOSPC.  ``0`` disables the guard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import re
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, Iterator, NamedTuple, Optional

#: Bump whenever the payload layout or the meaning of cached counters
#: changes; old entries are then ignored (and lazily overwritten).
SCHEMA_VERSION = 2

#: Suffix appended to quarantined entry files.
QUARANTINE_SUFFIX = ".corrupt"

#: Shard directories are exactly two lowercase hex characters; nothing
#: else under the root (the other kinds, ``runs``, stray files) is ever
#: touched by compaction.
_SHARD_DIR = re.compile(r"^[0-9a-f]{2}$")

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_DISK_CACHE"
_ENV_MIN_FREE = "REPRO_CACHE_MIN_FREE"

#: Default free-space floor for cache writes (bytes).
DEFAULT_MIN_FREE_BYTES = 32 * 1024 * 1024


def min_free_bytes() -> int:
    """The configured free-space floor (``REPRO_CACHE_MIN_FREE``),
    falling back to :data:`DEFAULT_MIN_FREE_BYTES` when unset or
    unparsable.  ``0`` disables the disk-space guard."""
    raw = os.environ.get(_ENV_MIN_FREE, "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return DEFAULT_MIN_FREE_BYTES


def default_cache_dir() -> Path:
    """Resolve the cache root from the environment."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hp" / "sim"


def disk_cache_enabled() -> bool:
    """Whether on-disk persistence is active for this process."""
    value = os.environ.get(_ENV_ENABLE, "1").strip().lower()
    return value not in ("0", "off", "false", "no")


def key_digest(key: str) -> str:
    """Content address for a cache key string."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


class DiskCache:
    """A tiny content-addressed, checksummed pickle store.

    Values are opaque payload dicts; schema/key validation lives in
    :class:`ArtifactStore` so this class stays a dumb, crash-tolerant
    byte store.  What it *does* own is byte integrity:
    every entry carries a SHA-256 of its payload bytes, verified on
    read, with corrupt files quarantined instead of served or raised.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        #: Files this instance has quarantined since construction.
        self.corrupt_count = 0
        #: Writes this instance refused for lack of disk headroom.
        self.refused_writes = 0

    def path_for(self, key: str) -> Path:
        digest = key_digest(key)
        return self.root / digest[:2] / f"{digest}.pkl"

    # -- read ----------------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """Load the payload for ``key``; None on miss or (after
        quarantining the file) on corruption."""
        return self._read(self.path_for(key))[1]

    def _read(self, path: Path) -> "tuple[bool, Optional[dict]]":
        """Load + verify one entry file.

        Returns ``(found, payload)``: ``(False, None)`` for a plain
        miss, ``(True, None)`` when the file existed but was corrupt
        (it has been quarantined beside itself), and
        ``(True, payload)`` on success.
        """
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError) as exc:
            return True, self._quarantine(
                path, f"undecodable entry: {exc!r}")
        if not isinstance(envelope, dict) or \
                "sha256" not in envelope or "payload" not in envelope:
            return True, self._quarantine(
                path, "entry is not a checksum envelope")
        blob = envelope["payload"]
        if not isinstance(blob, bytes) or \
                hashlib.sha256(blob).hexdigest() != envelope["sha256"]:
            return True, self._quarantine(path, "checksum mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            return True, self._quarantine(
                path, f"undecodable payload: {exc!r}")
        if not isinstance(payload, dict):
            return True, self._quarantine(path, "payload is not a dict")
        return True, payload

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside to ``<name>.corrupt`` and count it;
        returns None so callers can ``return self._quarantine(...)`` as
        a miss.  ``reason`` documents the call site."""
        target: Optional[Path] = path.with_name(
            path.name + QUARANTINE_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:
            target = None
            try:
                path.unlink()
            except OSError:
                pass
        self.corrupt_count += 1
        return None

    # -- write ---------------------------------------------------------
    def put(self, key: str, payload: dict) -> bool:
        """Atomically persist ``payload`` under ``key``; True when the
        entry landed.

        The payload is pickled, wrapped in a checksum envelope, written
        to a temp file in the same directory, fsynced, then renamed
        into place — a killed process can never leave a half-written
        entry under a live name.  Write failures (read-only FS, disk
        full) are swallowed: the cache is an accelerator, never a
        correctness dependency.

        When the volume's free space is below the configured floor
        (:func:`min_free_bytes`, or twice the entry size if larger)
        the write is **refused** before any bytes land and counted in
        ``refused_writes`` — better no entry than a torn one fighting
        ENOSPC.
        """
        path = self.path_for(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if self._refuse_if_full(path, len(blob)):
                return False
            # lint: ordered[atomic-replace]
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(envelope, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
                # lint: ordered-end
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def _refuse_if_full(self, path: Path, blob_size: int) -> bool:
        """True (and counted) when the write at ``path`` must be
        refused for lack of disk headroom."""
        floor = min_free_bytes()
        if floor <= 0:
            return False
        needed = max(floor, 2 * blob_size)
        try:
            free = shutil.disk_usage(path.parent).free
        except OSError:
            return False  # cannot measure: fall through to the write
        if free >= needed:
            return False
        self.refused_writes += 1
        return True

    # -- maintenance ---------------------------------------------------
    def entries(self) -> Iterator[Path]:
        """All live entry files currently in the store (quarantined
        ``*.corrupt`` sidecars excluded)."""
        return self._glob("*.pkl")

    def quarantined(self) -> Iterator[Path]:
        """All quarantined sidecar files in the store."""
        return self._glob(f"*{QUARANTINE_SUFFIX}")

    def _glob(self, pattern: str) -> Iterator[Path]:
        if not self.root.is_dir():
            return
        # Files at the root predate sharding and are never read, but
        # they are listed so that clear() and compact() reclaim them.
        yield from sorted(self.root.glob(pattern))
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob(pattern))

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def size_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry (quarantined sidecars included); returns
        the number of live entries removed."""
        removed = 0
        for path in list(self.entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in list(self.quarantined()):
            try:
                path.unlink()
            except OSError:
                pass
        return removed

    def stats(self) -> dict:
        """Summary counters for ``repro cache info``."""
        entries = list(self.entries())
        shards = [d for d in self.root.iterdir()
                  if d.is_dir() and _SHARD_DIR.match(d.name)] \
            if self.root.is_dir() else []
        try:
            free = shutil.disk_usage(
                self.root if self.root.is_dir()
                else self.root.parent).free
        except OSError:
            free = None
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries
                         if p.is_file()),
            "quarantined": sum(1 for _ in self.quarantined()),
            "shard_dirs": len(shards),
            "free_bytes": free,
            "min_free_bytes": min_free_bytes(),
        }

    def compact(self, purge_quarantined: bool = True) -> "CompactReport":
        """One maintenance pass over the whole store:

        * re-verify every entry (corrupt ones are quarantined) and
          drop payloads whose ``schema`` no longer matches
          :data:`SCHEMA_VERSION` — the runner would ignore and lazily
          overwrite them anyway, this reclaims the bytes eagerly;
        * drop flat ``<root>/*.pkl`` files from before sharding, which
          no lookup reaches;
        * optionally delete quarantined ``*.corrupt`` sidecars
          (``purge_quarantined``, default on);
        * remove shard directories left empty.

        The other kinds' directories under the result store's root,
        and anything else that is not a two-hex-char shard directory,
        are never touched; ``repro cache compact`` runs ``compact()``
        on every store of :func:`stores`.
        """
        report = CompactReport()
        for path in list(self.entries()):
            if path.parent != self.root:  # flat root files: never read
                found, payload = self._read(path)
                if not found or payload is None:
                    report.quarantined += found
                    continue
                if payload.get("schema") == SCHEMA_VERSION:
                    continue
            try:
                path.unlink()
                report.stale_dropped += 1
            except OSError:
                pass
        if purge_quarantined:
            for sidecar in list(self.quarantined()):
                try:
                    sidecar.unlink()
                    report.purged_sidecars += 1
                except OSError:
                    pass
        # Sweep away shard dirs emptied by the drops above.
        if self.root.is_dir():
            for shard in sorted(self.root.iterdir()):
                if shard.is_dir() and _SHARD_DIR.match(shard.name):
                    try:
                        shard.rmdir()  # fails unless empty
                        report.empty_dirs_removed += 1
                    except OSError:
                        pass
        report.entries = len(self)
        report.bytes = self.size_bytes()
        return report

    def __repr__(self) -> str:
        return f"DiskCache({str(self.root)!r})"


@dataclasses.dataclass
class CompactReport:
    """What one :meth:`DiskCache.compact` pass did."""

    quarantined: int = 0         #: corrupt entries moved aside
    stale_dropped: int = 0       #: outdated schema or flat root files
    purged_sidecars: int = 0     #: ``*.corrupt`` sidecars deleted
    empty_dirs_removed: int = 0  #: emptied shard dirs removed
    entries: int = 0             #: live entries after the pass
    bytes: int = 0               #: store size after the pass

    def describe(self) -> str:
        return (f"quarantined {self.quarantined}, dropped {self.stale_dropped} "
                f"stale, purged {self.purged_sidecars} sidecar(s), "
                f"removed {self.empty_dirs_removed} empty dir(s); "
                f"{self.entries} entries, {self.bytes} bytes")


class KindCounts(NamedTuple):
    """One kind's lookup and write counters (a snapshot)."""

    hits: int = 0     #: entries loaded and validated
    misses: int = 0   #: absent, or another schema or key
    writes: int = 0   #: entries that landed
    corrupt: int = 0  #: quarantined, or rejected by validate
    refused: int = 0  #: writes refused by the disk-space guard


class ArtifactStore(DiskCache):
    """One kind of artifact: a :class:`DiskCache` under its own
    subdirectory of the cache root, the function that builds a value
    from a stored payload (or raises), and the kind's counters."""

    def __init__(self, subdir: str,
                 validate: Callable[..., object]) -> None:
        super().__init__(subdir)  # rooted by set_cache_dir()
        self.subdir = subdir
        self.validate = validate
        self.hits = self.misses = self.writes = 0

    def load(self, key: str, *context) -> Optional[object]:
        """``validate(payload, *context)`` of the entry under ``key``,
        or None on a miss or a corrupt entry (see the module doc)."""
        if not disk_cache_enabled():
            return None
        quarantined = self.corrupt_count
        payload = self.get(key)
        if self.corrupt_count != quarantined:
            return None
        if (payload is None or payload.get("schema") != SCHEMA_VERSION
                or payload.get("key") != key):
            self.misses += 1
            return None
        try:
            value = self.validate(payload, *context)
        except Exception:
            # The key carries the code hash, so a payload stored under
            # it that does not validate is malformed, not stale.
            self.corrupt_count += 1
            return None
        self.hits += 1
        return value

    def save(self, key: str, **fields) -> None:
        """Persist ``fields`` under ``key`` with the schema and key that
        :meth:`load` checks."""
        if disk_cache_enabled():
            payload = {"schema": SCHEMA_VERSION, "key": key, **fields}
            self.writes += self.put(key, payload)

    def counts(self) -> KindCounts:
        return KindCounts(self.hits, self.misses, self.writes,
                          self.corrupt_count, self.refused_writes)

    def reset_counts(self) -> None:
        self.hits = self.misses = self.writes = 0
        self.corrupt_count = self.refused_writes = 0


def _result(payload: dict) -> tuple:
    from repro.cpu.stats import SimStats

    miss_map = payload["miss_map"]
    return (SimStats.from_state(payload["stats"]),
            None if miss_map is None else dict(miss_map))


def _checkpoint(payload: dict, trace, config):
    from repro.cpu.simulator import FrontEndSimulator

    return FrontEndSimulator.resume(trace, payload["state"], config)


def _trace(payload: dict):
    from repro.workloads.trace import Trace

    return Trace.from_payload(payload["trace"])


def _bpu_pass(payload: dict, trace) -> bytes:
    events = payload["events"]
    if not (isinstance(events, bytes) and len(events) == len(trace)):
        raise ValueError("prediction pass does not fit its trace")
    return events


#: The artifact table, by kind.  Results sit at the cache root itself,
#: where a plain ``DiskCache(root).get(key)`` finds them.
_TABLE: Dict[str, ArtifactStore] = {
    "result": ArtifactStore("", _result),
    "warmup": ArtifactStore("warmup", _checkpoint),
    "trace": ArtifactStore("traces", _trace),
    "pass": ArtifactStore("passes", _bpu_pass),
}

KINDS = tuple(_TABLE)

_ROOT: Optional[Path] = None


def stores() -> Dict[str, ArtifactStore]:
    """The artifact table, rooted at the configured cache root
    (resolved from the environment on first use)."""
    if _ROOT is None:
        set_cache_dir(default_cache_dir())
    return _TABLE


def get_cache() -> ArtifactStore:
    """The result store, at the cache root."""
    return stores()["result"]


def set_cache_dir(root: Optional[os.PathLike]) -> Optional[Path]:
    """Re-root every store of the table at ``root`` (None = re-resolve
    from the environment on next use).  Returns the previous root so
    tests can restore it."""
    global _ROOT
    previous, _ROOT = _ROOT, (Path(root) if root is not None else None)
    if _ROOT is not None:
        for store in _TABLE.values():
            store.root = _ROOT / store.subdir
    return previous
