"""Disk-backed compile-session cache.

Compiling one benchmark column takes seconds of pure-Python work
(front end, dataflow, unrolling, coalescing, lowering, scheduling);
simulating it takes milliseconds.  Because the final module round-trips
through the RTL text format bit-for-bit (``format_module`` /
``parse_module``), a finished compilation can be persisted and revived
in a later process, skipping the whole frontend/opt/lowering path.

A cache entry is keyed by the SHA-256 of four things:

* the MiniC **source text**,
* the **machine** name,
* the full **pipeline config** (every ``PipelineConfig`` field),
* the **pass-list fingerprint** — a hash over the contents of every
  Python file that participates in compilation (``pipeline.py`` plus the
  ``frontend``, ``ir``, ``analysis``, ``opt``, ``coalesce``, ``machine``
  and ``sched`` packages), so editing any pass invalidates every entry.

Storage is delegated to the crash-safe content-addressed
:class:`repro.service.artifacts.ArtifactStore`: entries are written to
a temp file, fsync'd, and hardlinked into place (link-once — an
existing entry is never replaced), framed by an integrity header whose
length and SHA-256 every read re-verifies.  A corrupted or stale entry
is treated as a miss and deleted; any ``OSError`` on the read or write
path (disk full, permissions, a yanked directory) logs a diagnostic
and bypasses the cache — the compile itself never fails because of
cache I/O.  The cache lives in ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-compile``) and is disabled entirely by
``REPRO_CACHE=off``.

Disk usage is bounded: the cache holds at most ``max_bytes``
(``REPRO_CACHE_MAX_BYTES``, default 256 MiB) of entries, pruned
oldest-mtime-first on every store; a hit refreshes the entry's mtime, so
eviction is LRU rather than FIFO.  ``python -m repro cache --stats``
inspects the store, ``--clear`` empties it.

Concurrent requests for one cold key compile it once, whether they come
from threads of one process (the compile service's worker pool) or from
separate processes (the fleet's workers, CI shards, a human running
``bench``): ``cached_compile_minic`` runs the whole miss path through
``ArtifactStore.fetch_or_compute``, so the first caller to reach a cold
key takes its lease and compiles while the rest block-with-deadline on
the lease and read the published artifact — or, if the holder dies,
steal the lease (fencing-token rule, DESIGN.md §8b) and compile in its
place.  Waiters in the holder's process are woken when it releases the
lease; waiters elsewhere poll.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Union

from repro.coalesce import CoalesceReport
from repro.errors import ReproError
from repro.ir.printer import format_module
from repro.machine import MachineDescription, get_machine
from repro.pipeline import (
    CompiledProgram,
    PipelineConfig,
    compile_minic,
    get_config,
)
from repro.timing import span

CACHE_SCHEMA = 2

#: Default size cap of the disk cache; REPRO_CACHE_MAX_BYTES overrides
#: (0 or a negative value lifts the cap).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def default_max_bytes() -> Optional[int]:
    """The configured cap in bytes, or ``None`` for unbounded."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_BYTES
    return value if value > 0 else None

#: Package subtrees whose source text participates in compilation.  The
#: sim/ and sanitize/ trees are deliberately absent: they run *after*
#: compilation and do not affect the cached module.
_COMPILE_TREES = (
    "frontend", "ir", "analysis", "opt", "coalesce", "machine", "sched",
)


@lru_cache(maxsize=1)
def pass_fingerprint() -> str:
    """Hash of every compiler source file; changes when any pass does."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    files = [root / "pipeline.py", root / "errors.py"]
    for tree in _COMPILE_TREES:
        files.extend(sorted((root / tree).rglob("*.py")))
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable serialization of every pipeline knob."""
    return json.dumps(asdict(config), sort_keys=True)


def cache_key(
    source: str,
    machine_name: str,
    config: PipelineConfig,
    fingerprint: Optional[str] = None,
) -> str:
    """The cache key for one (source, machine, config) compilation."""
    if fingerprint is None:
        fingerprint = pass_fingerprint()
    blob = "\x00".join(
        (
            f"schema={CACHE_SCHEMA}",
            f"passes={fingerprint}",
            f"machine={machine_name}",
            f"config={config_fingerprint(config)}",
            source,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class CompileCache:
    """One directory of JSON-serialized compilations.

    Corruption is expected (interrupted writers, disk-full truncation,
    concurrent benchmark workers): a torn or schema-mismatched entry is
    logged to the diagnostic ``sink``, deleted, and treated as a miss —
    never a crash, never a stale program.  The bytes on disk belong to
    an :class:`~repro.service.artifacts.ArtifactStore` (``.artifacts``),
    which adds the integrity framing, the link-once publish, the lease
    protocol, and the durable cross-process event journal behind the
    ``hit``/``dedup``/``steal``/``corruption`` counters in
    :meth:`stats`.
    """

    def __init__(
        self,
        directory: Union[str, Path, None] = None,
        sink=None,
        max_bytes: Union[int, None] = -1,
        lease_ttl: Optional[float] = None,
        faults=None,
    ):
        from repro.service.artifacts import ArtifactStore

        if directory is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro-compile"
            )
        self.directory = Path(directory)
        # -1 means "use the configured default"; None lifts the cap.
        self.max_bytes = default_max_bytes() if max_bytes == -1 else max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Hits that waited on another caller's lease first (role
        # 'dedup'); the compile server reports it in its status.
        self.dedups = 0
        # Guards the counters cached_compile_minic bumps from the
        # compile server's worker threads.
        self.counts_lock = threading.Lock()
        if sink is None:
            from repro.sanitize import DiagnosticSink

            sink = DiagnosticSink()
        self.sink = sink
        self.artifacts = ArtifactStore(
            self.directory, ttl=lease_ttl, sink=sink, faults=faults,
        )

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @staticmethod
    def validate_payload(payload) -> dict:
        """Shape-check a decoded payload; raises ``ValueError``.

        A truncated-then-concatenated or hand-edited entry can be valid
        JSON yet still unusable; check shape before reviving.
        """
        if not isinstance(payload, dict):
            raise ValueError("payload is not an object")
        if payload.get("schema") != CACHE_SCHEMA:
            raise ValueError("schema mismatch")
        if not isinstance(payload.get("module"), str):
            raise ValueError("missing or non-text 'module' field")
        if not isinstance(payload.get("machine"), str):
            raise ValueError("missing or non-text 'machine' field")
        return payload

    # -- raw payload access -------------------------------------------------
    def lookup(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or None (corrupt files are
        removed, logged, and reported as misses)."""
        data = self.artifacts.read(key)  # integrity-verified or dropped
        if data is None:
            self.misses += 1
            return None
        try:
            payload = self.validate_payload(json.loads(data))
        except ValueError as exc:
            self.misses += 1
            self.artifacts.drop(key, str(exc))
            return None
        self.hits += 1
        self.artifacts.note_hit(key)  # journal + refresh LRU recency
        return payload

    def store(self, key: str, payload: dict) -> None:
        """Durably persist ``payload``; I/O failures are non-fatal.

        The temp file is flushed and fsync'd before being hardlinked
        into place, so a crash mid-store leaves either no entry or a
        complete one — a reader can never observe a half-written
        payload under the final name, and the integrity header catches
        anything that slips through anyway.  Link-once means a racing
        writer's complete entry is kept rather than replaced.
        """
        try:
            data = json.dumps(payload).encode()
        except (TypeError, ValueError):
            return
        status = self.artifacts.publish(key, data)
        if status != "error":
            self.prune()

    def prune(self, max_bytes: Union[int, None] = -1) -> int:
        """Evict oldest-mtime entries until the store fits ``max_bytes``
        (default: the cache's own cap); returns how many were evicted.

        The entry just stored is the newest, so a prune right after a
        store can evict anything but it.  Concurrent pruners racing on
        the same file are harmless: a lost unlink is just a miss.
        """
        if max_bytes == -1:
            max_bytes = self.max_bytes
        if max_bytes is None or not self.directory.is_dir():
            return 0
        entries = []
        total = 0
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort()
        evicted = 0
        for mtime, size, path in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def stats(self) -> Dict[str, object]:
        """On-disk shape, this process's hit/miss counters, and the
        fleet-wide counters aggregated from the store's durable event
        journal (``dedup_hits``, ``steals``, ``corruption_drops``, …) —
        the journal survives process exit, so a fresh ``cache --stats``
        can report what an entire fleet run did."""
        entries = 0
        total = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        stats: Dict[str, object] = {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "lease_ttl": self.artifacts.ttl,
        }
        stats.update(self.artifacts.counters())
        return stats

    def clear(self) -> int:
        """Delete every entry (plus stray temp files, leases, per-key
        locks, and the event journal); returns how many entries were
        removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.directory.glob("*.tmp"):
                try:
                    path.unlink()
                except OSError:
                    pass
            self.artifacts.clear()
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off", "0", "false", "no",
    )


_default_cache: Optional[CompileCache] = None


def default_cache() -> Optional[CompileCache]:
    """The process-wide cache, or None when REPRO_CACHE=off."""
    global _default_cache
    if not cache_enabled():
        return None
    if (
        _default_cache is None
        or str(_default_cache.directory)
        != str(CompileCache().directory)
    ):
        _default_cache = CompileCache()
    return _default_cache


# -- (de)serialization ------------------------------------------------------
def serialize_program(program: CompiledProgram) -> dict:
    """The JSON payload for one finished compilation."""
    return {
        "schema": CACHE_SCHEMA,
        "module_name": program.module.name,
        "module": format_module(program.module),
        "machine": program.machine.name,
        "coalesce_reports": [asdict(r) for r in program.coalesce_reports],
    }


def revive_program(
    payload: dict,
    machine: MachineDescription,
    config: PipelineConfig,
) -> Optional[CompiledProgram]:
    """Rebuild a CompiledProgram from a payload; None if it is unusable."""
    from repro.ir.parser import parse_module

    try:
        module = parse_module(
            payload["module"], name=payload.get("module_name", "module")
        )
        reports = []
        for entry in payload.get("coalesce_reports", []):
            entry = dict(entry)
            entry["rejections"] = [
                tuple(pair) for pair in entry.get("rejections", [])
            ]
            entry["elisions"] = [
                tuple(pair) for pair in entry.get("elisions", [])
            ]
            reports.append(CoalesceReport(**entry))
    except Exception:
        return None
    return CompiledProgram(
        module, machine, config, coalesce_reports=reports, cache_hit=True
    )


def cached_compile_minic(
    source: str,
    machine: Union[str, MachineDescription] = "alpha",
    config: Union[str, PipelineConfig, None] = None,
    cache: Optional[CompileCache] = None,
    cancel=None,
    faults=None,
    lease_wait: Optional[float] = None,
    **overrides,
) -> CompiledProgram:
    """``compile_minic`` with the disk cache wrapped around it.

    Sanitizer/differential configurations are never cached: their value
    is in the diagnostics, which re-running the passes produces and a
    cache hit would silently drop.  Fault-isolated compilations
    (``on_pass_failure != 'raise'`` or an active ``REPRO_FAULTS`` plan)
    bypass the cache too: a degraded program must not be revived as if
    it were the full compilation, and a hit would lose its
    ``pass_failures``.  The one exception is a plan made purely of
    disk-fault kinds (``FaultPlan.disk_only()``): those faults target
    the artifact store itself, so the cache stays ON and the plan is
    armed *inside* the store instead.

    Concurrent identical keys, from threads or processes, are deduped
    by the store's lease protocol: the miss path runs through
    ``ArtifactStore.fetch_or_compute``, so the first caller compiles
    while the rest wait on its lease (stealing it if the holder dies)
    and revive the published artifact.  ``lease_wait`` bounds that wait;
    on exhaustion the compile happens locally — degraded to duplicate
    work, never to an error.  ``cancel`` is the pipeline's cancellation
    probe (checked at stage boundaries and at every lease poll); the
    cache-hit path never reaches it.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = get_config(config, **overrides)
    if cache is None:
        cache = default_cache()
    plan = faults
    if plan is None and os.environ.get("REPRO_FAULTS"):
        from repro.resilience.faults import FaultPlan

        try:
            plan = FaultPlan.from_env()
        except ReproError:
            # Unparseable plan: stay out of the cache and let the
            # compile path surface the configuration error.
            plan = object()
    plan_blocks_cache = plan is not None and not (
        hasattr(plan, "disk_only") and plan.disk_only()
    )
    if (
        cache is None or config.sanitize or config.differential
        or config.on_pass_failure != "raise"
        or config.disabled_passes
        or plan_blocks_cache
    ):
        return compile_minic(source, machine, config, cancel=cancel)
    if plan is not None and cache.artifacts.faults is None:
        cache.artifacts.faults = plan  # arm disk faults inside the store

    key = cache_key(source, machine.name, config)

    def produce():
        compiled = compile_minic(source, machine, config, cancel=cancel)
        return compiled, json.dumps(serialize_program(compiled)).encode()

    def decode(data: bytes) -> CompiledProgram:
        payload = CompileCache.validate_payload(json.loads(data))
        revived = revive_program(payload, machine, config)
        if revived is None:
            raise ValueError("payload does not revive to a program")
        return revived

    with span("cache"):
        try:
            program, role = cache.artifacts.fetch_or_compute(
                key, produce, decode=decode,
                wait_timeout=lease_wait, cancel=cancel,
            )
        except OSError:
            # Anything the store could not degrade internally (a dying
            # filesystem, a yanked cache directory): compile uncached.
            return compile_minic(source, machine, config, cancel=cancel)
        hit = role in ("hit", "dedup")
        with cache.counts_lock:
            if hit:
                cache.hits += 1
            else:
                cache.misses += 1
            if role == "dedup":
                cache.dedups += 1
        if not hit:
            cache.prune()
    return program
