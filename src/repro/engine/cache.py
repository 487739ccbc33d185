"""Result caches for the batch engine and the analysis service.

Three tiers share one ``load``/``store`` protocol (see
:class:`repro.engine.scheduler.Cache`):

* :class:`ResultCache` — the cold tier: one JSON file per cache key under a
  cache directory (default ``.mlffi-cache``), so results survive process
  restarts.  Growth is bounded by an LRU entry cap (``max_entries``,
  default 10k): stores past the cap evict the least-recently-used files,
  and loads refresh recency.  Corrupt or stale entries are treated as
  misses, never errors: the cache can always be deleted wholesale.  One
  directory is safe for many processes (batch runs, daemon replicas) to
  share: writes are ``mkstemp`` + ``os.replace``, so a reader sees old
  bytes, new bytes or a miss, never a torn file.
* :class:`MemoryCache` — the warm tier the persistent analysis service
  keeps in front of the cold one: an in-process LRU of JSON payloads.
  Entries round-trip through ``to_dict``/``from_dict`` so callers can
  mutate a loaded result without corrupting the stored copy.
* :class:`TieredCache` — memory over disk: loads probe memory first and
  promote disk hits, stores write through to both.

Keys come from :meth:`repro.engine.jobs.CheckRequest.cache_key`, which
digests the dialect, the C sources, the host-side repository fingerprint,
and the analysis options — so a hit is only possible when re-analyzing
would provably reproduce the stored diagnostics.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional

from .jobs import CACHE_SCHEMA_VERSION, CheckResult

DEFAULT_CACHE_DIR = ".mlffi-cache"

#: Default LRU entry cap for both the disk and memory tiers.
DEFAULT_MAX_ENTRIES = 10_000


class ResultCache:
    """Filesystem-backed store of :class:`CheckResult` keyed by content hash."""

    #: tier name surfaced in ``status``/``metrics`` breakdowns
    tier = "disk"

    def __init__(
        self,
        directory: str | os.PathLike,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
    ):
        self.directory = Path(directory)
        #: ``None`` disables the cap (the pre-LRU behaviour)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: lazily-initialized entry-count estimate so the store hot path
        #: does not rescan the directory; overwrites may overcount, and
        #: each eviction scan rebases it to the true count
        self._approx_count: Optional[int] = None

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _entries(self) -> Iterator[Path]:
        """Every stored entry.  ``glob`` matches dotfiles, so skip the
        in-flight ``.tmp-*.json`` spill of concurrent writers: counting
        it inflates ``len()``, and evicting or clearing it mid-write
        breaks the writer's ``os.replace``."""
        return (
            path
            for path in self.directory.glob("*.json")
            if not path.name.startswith(".")
        )

    def load(self, key: str) -> Optional[CheckResult]:
        """Return the cached result for ``key``, or ``None`` on any miss."""
        path = self._path(key)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if data.get("schema_version") != CACHE_SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            result = CheckResult.from_dict(data["result"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        result.from_cache = True
        result.cache_tier = "disk"
        try:
            os.utime(path)  # refresh recency so LRU eviction spares hot keys
        except OSError:
            pass
        return result

    def store(self, key: str, result: CheckResult) -> None:
        """Persist ``result`` under ``key`` (atomically; failures ignored)."""
        if result.failure is not None:
            return  # infrastructure failures must re-run next time
        payload = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "result": result.to_dict(),
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._path(key))
        except OSError:
            return  # a read-only cache dir degrades to "no cache", not a crash
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        """Evict least-recently-used entries once the cap is exceeded.

        The full directory scan only happens when the (cheaply maintained)
        count estimate crosses the cap, so a store normally costs one
        write, not one scan.
        """
        if self.max_entries is None:
            return
        if self._approx_count is None:
            try:
                self._approx_count = sum(1 for _ in self._entries())
            except OSError:
                return
        else:
            self._approx_count += 1
        if self._approx_count <= self.max_entries:
            return
        try:
            entries = [(path.stat().st_mtime, path) for path in self._entries()]
        except OSError:
            return
        excess = len(entries) - self.max_entries
        if excess > 0:
            entries.sort()  # oldest mtime (least recently touched) first
            for _mtime, path in entries[:excess]:
                try:
                    path.unlink()
                    self.evictions += 1
                except OSError:
                    pass  # raced with a concurrent evictor: entry gone
        self._approx_count = min(len(entries), self.max_entries)

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in self._entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_count = None
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self._entries())

    def stats(self) -> dict:
        """Uniform tier statistics (no directory scan: stays cheap)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class MemoryCache:
    """In-process LRU tier: cache key -> JSON payload of a result.

    Payloads (not objects) are stored so a caller mutating a loaded
    :class:`CheckResult` — the scheduler rewrites ``name`` and
    ``wall_seconds`` on hits — can never corrupt the cached copy.
    """

    tier = "memory"

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, dict]" = OrderedDict()

    def load(self, key: str) -> Optional[CheckResult]:
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        result = CheckResult.from_dict(payload)
        result.from_cache = True
        result.cache_tier = "memory"
        return result

    def store(self, key: str, result: CheckResult) -> None:
        if result.failure is not None:
            return
        self._entries[key] = result.to_dict()
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class TieredCache:
    """Memory over disk: the service's warm tier backed by the cold one.

    Loads probe memory first; disk hits are promoted into memory so the
    next probe stays in-process.  Stores write through to both tiers.
    """

    def __init__(self, memory: MemoryCache, cold) -> None:
        self.memory = memory
        self.cold = cold

    @property
    def hits(self) -> int:
        return self.memory.hits + getattr(self.cold, "hits", 0)

    @property
    def misses(self) -> int:
        # memory misses that fall through are counted by the cold tier
        return getattr(self.cold, "misses", 0)

    @property
    def evictions(self) -> int:
        return self.memory.evictions + getattr(self.cold, "evictions", 0)

    def load(self, key: str) -> Optional[CheckResult]:
        result = self.memory.load(key)
        if result is not None:
            return result
        result = self.cold.load(key)
        if result is not None:
            self.memory.store(key, result)
        return result

    def store(self, key: str, result: CheckResult) -> None:
        self.memory.store(key, result)
        self.cold.store(key, result)

    def stats(self) -> dict:
        cold_stats = (
            self.cold.stats()
            if hasattr(self.cold, "stats")
            else {
                "hits": getattr(self.cold, "hits", 0),
                "misses": getattr(self.cold, "misses", 0),
                "evictions": getattr(self.cold, "evictions", 0),
            }
        )
        return {"memory": self.memory.stats(), "cold": cold_stats}


class NullCache:
    """The ``--no-cache`` policy: every lookup misses, nothing is stored."""

    tier = "null"
    hits = 0
    evictions = 0

    def __init__(self) -> None:
        self.misses = 0

    def load(self, key: str) -> Optional[CheckResult]:
        self.misses += 1
        return None

    def store(self, key: str, result: CheckResult) -> None:
        pass

    def stats(self) -> dict:
        return {"hits": 0, "misses": self.misses, "evictions": 0}
