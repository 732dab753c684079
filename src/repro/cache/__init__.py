"""Persistent, content-addressed compilation cache (DESIGN.md §9).

Every process used to re-parse, re-optimize, and re-generate every SDFG from
scratch; DaCe itself ships a persistent ``.dacecache`` keyed on SDFG content
(Ben-Nun et al., SC'19).  This package is the analogous layer for the
reproduction:

* :func:`fingerprint` — canonical, stable content hash of an SDFG via the
  IR serialization layer.
* :func:`cache_key` — fingerprint + device + instrument/sanitize variants +
  optimization level + compilation-relevant config + code-version salt.
* :class:`CacheStore` — in-memory LRU over a crash-safe, checksummed,
  size-bounded on-disk entry directory (``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro``).
* :func:`cached_compile` — the compile front door: on a hit, rehydrate the
  generated module from cached source (skipping auto-optimization,
  validation, and code generation); on a miss, compile and persist.
* :func:`warm_corpus` (``python -m repro.cache warm``) — parallel corpus
  warm-up over a process pool, reused by the bench and sanitizer sweeps.

Cache events (hits/misses and lookup latency) flow into the active
:class:`repro.instrumentation.ProfileCollector` under the ``cache`` category
and into the process-wide :func:`stats` counters.
"""

from __future__ import annotations

import datetime
import time
from typing import Optional

from ..config import Config
from .fingerprint import cache_key, code_version, config_digest, fingerprint
from .store import (CacheEntry, CacheStats, CacheStore, default_directory,
                    reset_stats, stats)

__all__ = [
    "fingerprint", "cache_key", "code_version", "config_digest",
    "CacheEntry", "CacheStats", "CacheStore",
    "cached_compile", "get_store", "set_store", "stats", "reset_stats",
    "warm_corpus", "default_directory",
]

_STORE: Optional[CacheStore] = None


def get_store() -> CacheStore:
    """The process-wide store, rebuilt if the configured directory moved."""
    global _STORE
    directory = default_directory()
    if _STORE is None or _STORE.directory != directory:
        _STORE = CacheStore(directory=directory)
    # budget knobs are cheap to refresh (tests override them via Config)
    _STORE.max_bytes = int(Config.get("cache.max_bytes"))
    _STORE.memory_entries = int(Config.get("cache.memory_entries"))
    return _STORE


def set_store(store: Optional[CacheStore]) -> None:
    """Replace the process-wide store (tests)."""
    global _STORE
    _STORE = store


# ---------------------------------------------------------------------------
# the compile front door
# ---------------------------------------------------------------------------

def cached_compile(sdfg, device: str = "CPU", instrument: bool = False,
                   sanitize: bool = False, optimize: Optional[str] = None,
                   store: Optional[CacheStore] = None):
    """Compile *sdfg* through the content-addressed cache.

    *optimize* names a device whose ``auto_optimize`` pipeline runs on a
    clone of the graph before code generation (``None`` compiles as-is).
    Because the key covers the *input* graph plus the optimization level, a
    hit skips auto-optimization, validation, and code generation in one go.

    Returns a :class:`repro.codegen.CompiledSDFG`; its ``from_cache``
    attribute tells the two paths apart.
    """
    from .. import instrumentation

    coll = instrumentation.current()
    if not Config.get("cache.enabled"):
        return _compile_full(sdfg, device, instrument, sanitize, optimize,
                             coll)
    store = store or get_store()
    start = time.perf_counter()
    key = cache_key(sdfg, device=device, instrument=instrument,
                    sanitize=sanitize, optimize=optimize)

    compiled = store.get_memory(key)
    if compiled is not None:
        stats().bump("memory_hits")
        if coll is not None:
            coll.add("cache", "hit-memory", time.perf_counter() - start)
        return compiled

    entry = store.load_disk(key)
    if entry is not None:
        try:
            compiled = _rehydrate(entry, device=device, instrument=instrument,
                                  sanitize=sanitize)
        except Exception:
            # a structurally unusable entry is as good as a corrupted one
            store.invalidate(key)
        else:
            stats().bump("disk_hits")
            if coll is not None:
                coll.add("cache", "hit-disk", time.perf_counter() - start)
            store.put_memory(key, compiled)
            return compiled

    stats().bump("misses")
    if coll is not None:
        coll.add("cache", "miss", time.perf_counter() - start)
    compiled = _compile_full(sdfg, device, instrument, sanitize, optimize,
                             coll)
    entry = _make_entry(key, compiled, optimize)
    if entry is not None:
        store.write_disk(entry)
    store.put_memory(key, compiled)
    return compiled


def _compile_full(sdfg, device, instrument, sanitize, optimize, coll):
    from ..codegen.compiled import CompiledSDFG

    work = sdfg
    if optimize:
        work = sdfg.clone()
        if coll is not None:
            with coll.region("phase", "autoopt"):
                work.auto_optimize(device=optimize)
        else:
            work.auto_optimize(device=optimize)
    return CompiledSDFG(work, device=device, instrument=instrument,
                        sanitize=sanitize)


def _rehydrate(entry: CacheEntry, device: str, instrument: bool,
               sanitize: bool):
    """Rebuild a CompiledSDFG from a disk entry without code generation."""
    from ..codegen.compiled import CompiledSDFG
    from ..codegen.pygen import rehydrate_module
    from ..ir.serialize import sdfg_from_json

    sdfg = sdfg_from_json(entry.sdfg_json)
    run = rehydrate_module(sdfg, entry.source, entry.closure_specs,
                           instrument=instrument, sanitize=sanitize)
    return CompiledSDFG.from_cached(sdfg, run, entry.source,
                                    closure_specs=entry.closure_specs,
                                    device=device, instrument=instrument,
                                    sanitize=sanitize)


def _make_entry(key: str, compiled, optimize: Optional[str]
                ) -> Optional[CacheEntry]:
    """Build a disk entry from a fresh compilation, or None when the
    artifact cannot be persisted (graphs that do not survive a
    serialization round trip, e.g. unexpanded library nodes, or modules
    bound to runtime constants)."""
    from ..ir.serialize import sdfg_from_json

    sdfg = compiled.sdfg
    if getattr(sdfg, "constants", None):
        return None
    try:
        sdfg_json = sdfg.to_json()
        # prove the entry rehydratable before persisting it: the round-trip
        # parse is cheap next to the compilation we just paid for
        restored = sdfg_from_json(sdfg_json)
        states = restored.states()
        for state_idx, node_idx in compiled.closure_specs.values():
            states[state_idx].nodes()[node_idx]
    except Exception:
        return None
    return CacheEntry(
        key=key,
        program=sdfg.name,
        source=compiled.source,
        sdfg_json=sdfg_json,
        closure_specs=dict(compiled.closure_specs),
        device=compiled.device,
        instrument=compiled.instrumented,
        sanitize=compiled.sanitized,
        optimize=optimize or "",
        created_utc=datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    )


def warm_corpus(*args, **kwargs):
    """Parallel corpus warm-up; see :func:`repro.cache.warm.warm_corpus`."""
    from .warm import warm_corpus as _warm

    return _warm(*args, **kwargs)
