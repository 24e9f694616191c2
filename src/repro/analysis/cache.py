"""Content-keyed memoization for the analysis pipeline.

The batch engine (see :mod:`repro.analysis.batch` and
``docs/architecture.md``) avoids repeating work at three levels:

1. **Parse trees** — :meth:`AnalysisCache.cached_parse` memoizes
   ``parse_program`` by source text in an in-memory LRU, so repeated
   analyses of the same program (e.g. under several instantiations) parse
   once per process.
2. **Analysis results** — :meth:`AnalysisCache.get` / :meth:`AnalysisCache.put`
   store arbitrary pickled results (per-program reports, benchmark rows)
   under a content key.  With a ``directory`` the store is persistent, so a
   second ``repro batch`` or table run in a fresh process starts warm.
3. **Exact arithmetic** — the hot :class:`~repro.core.grades.Grade`
   operations and the transcendental enclosures of
   :mod:`repro.floats.exactmath` carry their own ``functools.lru_cache``
   fast paths; this module only reports on them.

Cache invalidation is content-based: keys are SHA-256 digests built by
:func:`source_key` / :func:`make_key` from the *source text* (benchmark
rows digest their term structure via :func:`term_key` instead), the
:func:`config_key` of the inference instantiation, and
:data:`CACHE_SCHEMA`.  Editing a program, changing the floating-point
format, or bumping the schema constant (done whenever the analysis code
changes in a result-visible way) each produce a different key, so stale
entries are never returned — they simply become unreachable garbage that
:meth:`AnalysisCache.clear` removes.  Unreadable or truncated pickle files
are treated as misses and quarantined aside as ``<key>.corrupt`` (bounded
per directory), so the bad bytes stay inspectable while the key heals on
the next write.

Term-keyed entries use :func:`term_key`: for a hash-consed term
(:func:`repro.core.ast.intern_term`) the structural digest is memoized by
the node's intern id, so repeated lookups for the same program cost a
dictionary probe instead of re-serializing hundreds of thousands of nodes;
un-interned terms fall back to the full structural walk.  Either way the
key itself is the *content* digest — never a process-local id — so keys
are stable across processes and the on-disk tier stays valid.

Two properties matter to the long-lived ``repro serve`` process
(:mod:`repro.service`): the memory tier and the counters are guarded by a
lock, so the asyncio event loop, executor result threads and worker
threads can share one cache; and the disk tier is *bounded* — a
max-entry and total-byte budget enforced by oldest-first eviction
(reads refresh mtimes, so "oldest" approximates least-recently-used) —
so sustained traffic cannot grow ``~/.cache/repro-lnum`` without limit.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from ..core import ast as A
from ..core.inference import InferenceConfig
from ..core.parser import Program, parse_program
from ..faults import active_plan

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_DISK_MAX_ENTRIES",
    "DEFAULT_DISK_MAX_BYTES",
    "CacheStats",
    "AnalysisCache",
    "config_key",
    "source_key",
    "term_key",
    "make_key",
    "memo_report",
    "default_cache_directory",
    "quarantined_total",
]

#: Most ``*.corrupt`` quarantine files kept per cache directory; beyond
#: this the corrupt entry is unlinked instead (the quarantine exists for
#: post-mortem inspection, not as a second unbounded tier).
QUARANTINE_MAX_FILES = 64

_QUARANTINED = [0]
_QUARANTINE_LOCK = threading.Lock()


def quarantined_total() -> int:
    """Corrupt disk entries quarantined process-wide (for metrics/stats)."""
    return _QUARANTINED[0]

#: Bump this whenever the analysis pipeline changes in a way that affects
#: results; it participates in every cache key, so old on-disk entries are
#: ignored rather than deserialized into the new code.
#:
#: Schema history: 2 — interned grades/persistent contexts changed the
#: pickle representation of cached analyses, so schema-1 entries must never
#: be deserialized into the new classes.
CACHE_SCHEMA = 2

#: Default disk-tier budget.  Entries are small pickles (a handful of KiB
#: for a typical :class:`~repro.analysis.batch.ProgramReport`), so these
#: bounds allow thousands of warm programs while keeping the cache
#: directory from growing without limit under sustained service traffic.
DEFAULT_DISK_MAX_ENTRIES = 8192
DEFAULT_DISK_MAX_BYTES = 256 * 1024 * 1024

_MISSING = object()


def default_cache_directory() -> str:
    """The on-disk cache location: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-lnum``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-lnum")


def config_key(config: Optional[InferenceConfig]) -> str:
    """A stable fingerprint of an inference instantiation.

    Covers everything that can change an analysis result: the rounding
    grade, the guard sensitivity, the unused-let policy and the set of
    primitive operations in scope.
    """
    config = config or InferenceConfig()
    operations = ",".join(sorted(config.signature.names()))
    key = (
        f"rnd={config.rnd_grade}|guard={config.case_guard_sensitivity}"
        f"|unused={config.allow_unused_let}|ops={operations}"
    )
    if config.rnd_site_grades is not None:
        sites = ",".join(str(grade) for grade in config.rnd_site_grades)
        key += f"|sites={sites}"
    return key


def source_key(source: str, kind: str, config: Optional[InferenceConfig]) -> str:
    """Content key for one program source under one instantiation."""
    return make_key("src", kind, hashlib.sha256(source.encode("utf-8")).hexdigest(), config_key(config))


def term_key(
    term: "A.Term", config: Optional[InferenceConfig], *extra_parts: object
) -> str:
    """Content key for one term under one instantiation.

    ``term_fingerprint`` serves the digest from its intern-id memo when the
    term has been hash-consed (the batch/benchmark path interns every
    program), and walks the structure otherwise, so this is cheap to call
    per lookup.  ``extra_parts`` lets callers mix in row-specific inputs
    (baseline toggles, suite names, ...).
    """
    return make_key("term", A.term_fingerprint(term), config_key(config), *extra_parts)


def make_key(*parts: object) -> str:
    """SHA-256 digest of the joined parts plus the schema version."""
    text = "\x1f".join(str(part) for part in (CACHE_SCHEMA, *parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def memo_report() -> dict:
    """Occupancy of every process-wide bounded memo, for ``/stats``.

    A long-lived ``repro serve`` process accumulates interned terms,
    grades, fingerprints, free-variable sets and exact-math enclosures;
    each of those tables is individually bounded (LRU) and this aggregates
    their sizes so operators can watch occupancy against the caps.
    """
    from ..core.ast import ast_memo_stats
    from ..core.compiled import compiled_memo_stats
    from ..core.grades import grade_memo_stats
    from ..floats import exactmath

    report = {
        "ast": ast_memo_stats(),
        "grades": grade_memo_stats(),
        "compiled": compiled_memo_stats(),
        # Corrupt disk-cache entries set aside as *.corrupt files
        # (process-wide, across every cache instance).
        "cache_quarantine": {
            "entries": quarantined_total(),
            "cap_per_directory": QUARANTINE_MAX_FILES,
        },
    }
    exactmath_report = {}
    for name in dir(exactmath):
        function = getattr(exactmath, name)
        info = getattr(function, "cache_info", None)
        if callable(info):
            stats = info()
            exactmath_report[name.lstrip("_")] = {
                "entries": stats.currsize,
                "capacity": stats.maxsize,
                "hits": stats.hits,
                "misses": stats.misses,
            }
    if exactmath_report:
        report["exactmath"] = exactmath_report
    return report


@dataclass
class CacheStats:
    """Hit/miss counters, reported in batch summaries and table footers."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def __str__(self) -> str:
        return f"{self.hits}/{self.lookups} hits"

    def to_dict(self) -> dict:
        """Counter snapshot for machine-readable stats (``/stats``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "lookups": self.lookups,
        }


class _LRU:
    """A tiny ordered-dict LRU used for both parse trees and results."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, Any] = OrderedDict()

    def get(self, key: str, default: Any = None) -> Any:
        try:
            value = self._entries[key]
        except KeyError:
            return default
        self._entries.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> int:
        """Insert/refresh ``key`` and return how many entries were evicted."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()


class AnalysisCache:
    """Two-tier (memory + optional disk) store for analysis results.

    ``directory=None`` keeps the cache process-local.  With a directory,
    every ``put`` also writes an atomically-renamed pickle file named after
    the key, and ``get`` falls back to disk on a memory miss — that is what
    makes a *second process* running the same tables warm.

    The disk tier is bounded by ``disk_max_entries`` / ``disk_max_bytes``
    (``None`` disables either limit): after a write pushes the directory
    over budget, the oldest-mtime entries are evicted first.  Disk *reads*
    refresh the file's mtime, so eviction approximates LRU rather than
    FIFO.  All memory-tier operations and counters are serialized through
    an internal lock, so one cache instance can be shared by the asyncio
    service loop, executor result threads and batch workers.

    The service (:mod:`repro.service.server`) uses one instance as its
    result store: :meth:`peek` probes memory on the event loop, :meth:`get`
    runs the disk probe on the executor, and ``put(..., persist=False)``
    stores inline while :meth:`write_disk` persists off the loop.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        memory_entries: int = 1024,
        parse_entries: int = 256,
        disk_max_entries: Optional[int] = DEFAULT_DISK_MAX_ENTRIES,
        disk_max_bytes: Optional[int] = DEFAULT_DISK_MAX_BYTES,
    ) -> None:
        self.directory = directory
        self.disk_max_entries = disk_max_entries
        self.disk_max_bytes = disk_max_bytes
        #: ``stats.evictions`` counts the *memory* LRU; budget-driven disk
        #: eviction has its own counter so operators can tell an undersized
        #: memory tier from disk-budget churn.
        self.disk_evictions = 0
        #: Corrupt disk entries this instance renamed to ``*.corrupt``.
        self.quarantined = 0
        self.stats = CacheStats()
        #: Memory misses served by the disk tier (each also counts in
        #: ``stats.hits``: to a caller of :meth:`get` it is a hit).
        self.disk_hits = 0
        self.parse_stats = CacheStats()
        self._memory = _LRU(memory_entries)
        self._parses = _LRU(parse_entries)
        self._lock = threading.Lock()
        # Running (entries, bytes) totals for the disk tier, established by
        # one scan on the first bounded write and maintained incrementally,
        # so budget checks are O(1) per put and the directory is only
        # re-scanned when actually over budget.
        self._disk_totals: Optional[Tuple[int, int]] = None

    # -- generic result store ----------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            value = self._memory.get(key, _MISSING)
            if value is not _MISSING:
                self.stats.hits += 1
                return value
        # Disk I/O happens outside the lock so a slow read never blocks
        # other threads' memory-tier traffic.
        value = self.read_disk(key, _MISSING)
        with self._lock:
            if value is not _MISSING:
                self.stats.hits += 1
                self.disk_hits += 1
                self.stats.evictions += self._memory.put(key, value)
                return value
            self.stats.misses += 1
            return default

    def peek(self, key: str, default: Any = None, count: bool = True) -> Any:
        """Memory-tier-only probe that counts a hit but never a miss.

        The caller's follow-up :meth:`get` records the miss, so each
        logical lookup counts once; ``count=False`` counts nothing, for a
        re-check of a lookup already counted.
        """
        with self._lock:
            value = self._memory.get(key, _MISSING)
            if value is _MISSING:
                return default
            if count:
                self.stats.hits += 1
            return value

    def put(self, key: str, value: Any, persist: bool = True) -> None:
        """Store ``value``; ``persist=False`` leaves the disk write to a
        later :meth:`write_disk` (the service runs it off its event loop)."""
        with self._lock:
            self.stats.puts += 1
            self.stats.evictions += self._memory.put(key, value)
        if persist:
            self.write_disk(key, value)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        return self.directory is not None and os.path.exists(self._path(key))

    @property
    def entries(self) -> int:
        """Live entries in the memory tier."""
        with self._lock:
            return len(self._memory)

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        with self._lock:
            self._memory.clear()
            self._parses.clear()
            self._disk_totals = None
        if self.directory and os.path.isdir(self.directory):
            for name in os.listdir(self.directory):
                if name.endswith((".pkl", ".corrupt")):
                    try:
                        os.unlink(os.path.join(self.directory, name))
                    except OSError:
                        pass

    # -- parse-tree memoization --------------------------------------------

    def cached_parse(self, source: str) -> Program:
        """``parse_program`` memoized by source text (memory only).

        Parse trees are mutable-ish Python object graphs, so they are never
        written to disk; sharing them within a process is safe because the
        analysis pipeline treats them as read-only.  Counted in
        ``parse_stats``, separate from the result-store ``stats``.
        """
        key = hashlib.sha256(source.encode("utf-8")).hexdigest()
        with self._lock:
            program = self._parses.get(key, _MISSING)
            if program is not _MISSING:
                self.parse_stats.hits += 1
                return program
            self.parse_stats.misses += 1
        program = parse_program(source)
        with self._lock:
            self.parse_stats.evictions += self._parses.put(key, program)
        return program

    # -- disk tier ----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def read_disk(self, key: str, default: Any = None) -> Any:
        """Disk-tier-only read: no memory promotion, no counters."""
        if not self.directory:
            return default
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
            try:
                # Touch the entry so oldest-first disk eviction behaves as
                # LRU: a frequently *read* entry should not be the first
                # one evicted just because it was written long ago.
                os.utime(path)
            except OSError:
                pass
            return value
        except FileNotFoundError:
            return default
        except Exception:
            # A truncated, corrupt or stale entry.  ``pickle.load`` raises
            # arbitrary exception types on garbage input (ValueError,
            # UnicodeDecodeError, ...), so any failure here is treated the
            # same way: quarantine the file and report a miss.
            self._quarantine(path)
            return default

    def _quarantine(self, path: str) -> None:
        """Set a corrupt entry aside as ``<key>.corrupt`` (bounded).

        Renaming instead of deleting keeps the bytes for post-mortems
        (how did garbage end up in the cache?) while still clearing the
        key — the ``.pkl`` name is gone, so the next request re-computes
        and re-persists cleanly.  At most :data:`QUARANTINE_MAX_FILES`
        quarantine files are kept per directory; beyond that cap the
        corrupt entry is simply unlinked.
        """
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if path.endswith(".pkl"):
            target = path[: -len(".pkl")] + ".corrupt"
        else:
            target = path + ".corrupt"
        try:
            kept = sum(
                1 for name in os.listdir(self.directory) if name.endswith(".corrupt")
            )
        except OSError:
            kept = QUARANTINE_MAX_FILES
        try:
            if kept < QUARANTINE_MAX_FILES:
                os.replace(path, target)
            else:
                os.unlink(path)
        except OSError:
            return
        with _QUARANTINE_LOCK:
            _QUARANTINED[0] += 1
        with self._lock:
            self.quarantined += 1
            if self._disk_totals is not None:
                entries, total_bytes = self._disk_totals
                self._disk_totals = (
                    max(0, entries - 1),
                    max(0, total_bytes - size),
                )

    def write_disk(self, key: str, value: Any) -> None:
        """Disk-tier-only write (best-effort; a no-op without a directory)."""
        if not self.directory:
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            path = self._path(key)
            fd, temp_path = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                try:
                    previous_size: Optional[int] = os.path.getsize(path)
                except OSError:
                    previous_size = None
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
            self._account_disk_write(path, previous_size)
            plan = active_plan()
            if plan is not None and plan.should("corrupt_cache"):
                # Fault injection: scribble over the entry just written,
                # so a later disk read exercises the quarantine path.
                with open(path, "wb") as handle:
                    handle.write(b"\x00repro corrupt-cache fault\x00")
        except (OSError, pickle.PickleError):
            # Persistence is best-effort: a read-only or full disk must not
            # fail the analysis itself.
            pass

    def _account_disk_write(self, path: str, previous_size: Optional[int]) -> None:
        """Update the running totals after a write; evict only when over."""
        if self.disk_max_entries is None and self.disk_max_bytes is None:
            return
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        with self._lock:
            if self._disk_totals is not None:
                entries, total_bytes = self._disk_totals
                if previous_size is None:
                    entries += 1
                total_bytes += size - (previous_size or 0)
                self._disk_totals = (entries, total_bytes)
                over = (
                    self.disk_max_entries is not None and entries > self.disk_max_entries
                ) or (
                    self.disk_max_bytes is not None and total_bytes > self.disk_max_bytes
                )
                if not over:
                    return
        # First bounded write (totals unknown) or over budget: scan.
        self._enforce_disk_budget()

    def _disk_entries(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path)`` for every on-disk entry, oldest first."""
        if not self.directory or not os.path.isdir(self.directory):
            return []
        entries: List[Tuple[float, int, str]] = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(".pkl"):
                        continue
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    entries.append((stat.st_mtime, stat.st_size, entry.path))
        except OSError:
            return []
        entries.sort()
        return entries

    def disk_usage(self) -> Tuple[int, int]:
        """``(entries, bytes)`` currently stored in the disk tier.

        Served from the running totals when available (O(1), suitable for
        a polled ``/stats`` endpoint); falls back to one directory scan —
        and caches its result — when no bounded write has established
        them yet.  Best-effort under concurrent external writers, exactly
        like the budget itself.
        """
        with self._lock:
            totals = self._disk_totals
        if totals is not None:
            return totals
        entries = self._disk_entries()
        totals = (len(entries), sum(size for _mtime, size, _path in entries))
        if self.disk_max_entries is not None or self.disk_max_bytes is not None:
            with self._lock:
                if self._disk_totals is None:
                    self._disk_totals = totals
        return totals

    def _enforce_disk_budget(self) -> None:
        """Scan the tier; if over budget, evict oldest-mtime entries.

        Called on the first bounded write (to establish the running
        totals) and whenever those totals cross a limit.  Eviction drops
        below the limit with a little slack (1/16th of the budget, at
        least one entry) so a workload sitting at the boundary does not
        re-scan the directory on every subsequent write.
        """
        if self.disk_max_entries is None and self.disk_max_bytes is None:
            return
        entries = self._disk_entries()
        total_bytes = sum(size for _mtime, size, _path in entries)
        count = len(entries)
        over_entries = self.disk_max_entries is not None and count > self.disk_max_entries
        over_bytes = self.disk_max_bytes is not None and total_bytes > self.disk_max_bytes
        entry_target = (
            self.disk_max_entries - max(1, self.disk_max_entries // 16)
            if over_entries
            else None
        )
        byte_target = (
            self.disk_max_bytes - max(1, self.disk_max_bytes // 16)
            if over_bytes
            else None
        )
        for _mtime, size, path in entries:
            fits_entries = entry_target is None or count <= entry_target
            fits_bytes = byte_target is None or total_bytes <= byte_target
            if fits_entries and fits_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            count -= 1
            total_bytes -= size
            with self._lock:
                self.disk_evictions += 1
        with self._lock:
            self._disk_totals = (count, total_bytes)
