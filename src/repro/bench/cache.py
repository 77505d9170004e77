"""The compile cache: finished compilations kept in an artifact store.

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

The bytes belong to an ``ArtifactStore`` (``repro/service/artifacts.py``),
which owns the integrity framing, the link-once publish, the lease
protocol that compiles a cold key once across threads and processes,
the LRU size cap and the event journal.  This module adds what is
compile-specific: the key, the payload (:func:`serialize_program` /
:func:`revive_program`) and :func:`cached_compile_minic`, which runs
every cacheable compile through ``ArtifactStore.fetch_or_compute``.
The store lives in ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-compile``) and ``REPRO_CACHE=off`` disables it;
``python -m repro cache --stats`` inspects it, ``--clear`` empties it.
The service package is imported only when a store is first opened, so
``import repro.bench`` does not load it.

A warm hit still reads, checks and journals its artifact through the
store, but revives it once per process: the programs a hit revived are
kept in :func:`revived_programs`, keyed by the cache key and the
SHA-256 of the verified payload, and a later hit on the same bytes is
handed the same program without decoding or parsing anything.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

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
from repro.resilience.faults import FaultPlan
from repro.sim.cache import BlockCache
from repro.timing import span

if TYPE_CHECKING:
    from repro.service.artifacts import ArtifactStore

CACHE_SCHEMA = 2

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


#: How many revived programs one process keeps (least recently used
#: dropped first): enough for every warm key of the quick matrix's
#: ``vpo`` and ``coalesce-all`` columns at once (78), with room to spare.
REVIVE_MEMO_ENTRIES = 128

_revived = BlockCache(REVIVE_MEMO_ENTRIES)


def revived_programs() -> BlockCache:
    """The process-wide revive memo: ``(cache key, payload SHA-256)`` ->
    the program a warm hit revived from that payload.

    Only revived programs enter it; a program compiled in this process
    keeps its ``pass_stats`` and ``cache_hit`` false and is never handed
    to another call.  A memoized program is handed to every later hit
    on the same key and bytes, from any thread, so callers treat it as
    read-only; its simulator facts are built idempotently
    (:mod:`repro.sim.facts`).  An artifact rewritten with other bytes
    misses and is decoded afresh."""
    return _revived


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off", "0", "false", "no",
    )


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or ``~/.cache/repro-compile``."""
    return Path(
        os.environ.get("REPRO_CACHE_DIR")
        or Path.home() / ".cache" / "repro-compile"
    )


_default_cache: Optional["ArtifactStore"] = None


def default_cache() -> Optional["ArtifactStore"]:
    """The process-wide store on :func:`default_cache_dir`, or None
    when REPRO_CACHE=off."""
    global _default_cache
    if not cache_enabled():
        return None
    directory = default_cache_dir()
    if _default_cache is None or _default_cache.directory != directory:
        from repro.service.artifacts import ArtifactStore

        _default_cache = ArtifactStore(directory)
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
    cache: Optional["ArtifactStore"] = None,
    cancel=None,
    faults=None,
    crash_dir: Optional[str] = None,
    **overrides,
) -> CompiledProgram:
    """``compile_minic`` through the compile cache (``cache``, default
    :func:`default_cache`).

    Sanitizer/differential configurations are never cached: their value
    is in the diagnostics, which re-running the passes produces and a
    cache hit would silently drop.  Fault-isolated compilations
    (``on_pass_failure != 'raise'``, disabled passes, or a ``faults`` /
    ``REPRO_FAULTS`` plan) bypass the cache too: a degraded program
    must not be revived as if it were the full compilation, and a hit
    would lose its ``pass_failures``.  A bypassing compile passes
    ``faults``, ``crash_dir`` and ``cancel`` on to ``compile_minic``.
    The one exception is a plan made purely of disk-fault kinds
    (``FaultPlan.disk_only()``): those faults target the artifact store
    itself, so the cache stays ON, this call's store operations draw
    from the plan, and it never reaches the passes.  Arrivals count on
    the plan object: a caller that passes one plan to many calls (the
    compile server passes its own) counts across them, while a
    ``REPRO_FAULTS`` plan is parsed afresh for each call, as
    ``compile_minic`` does for pass sites.  So an environment
    ``artifact:read=corrupt-artifact`` corrupts every call's first read,
    warm hits included (each becomes a corrupt-drop and a recompile),
    and an environment ``@N`` with N > 1 never fires at the publish
    site (one arrival per call) and fires at the lease and steal sites
    only in a call that waits on another holder's lease.

    Concurrent identical keys, from threads or processes, are deduped
    by the store's lease protocol (``ArtifactStore.fetch_or_compute``):
    the first caller compiles while the rest wait on its lease, up to
    the store's ``wait_timeout`` (stealing it if the holder dies), and
    revive the published artifact; on exhaustion the compile happens
    locally — degraded to duplicate work, never to an error.
    ``cancel`` is the pipeline's cancellation probe (checked at stage
    boundaries and at every lease poll); the cache-hit path never
    reaches it.  A hit whose verified bytes were revived before in this
    process returns that program (:func:`revived_programs`).
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = get_config(config, **overrides)
    if cache is None:
        cache = default_cache()
    plan = faults
    if plan is None and os.environ.get("REPRO_FAULTS"):
        try:
            plan = FaultPlan.from_env()
        except ReproError:
            # Unparseable plan: stay out of the cache and let the
            # compile path surface the configuration error.
            plan = object()
    disk_plan = isinstance(plan, FaultPlan) and plan.disk_only()
    if disk_plan:
        # Disk kinds act on the store, never on the passes: an empty
        # plan keeps compile_minic from reading REPRO_FAULTS again.
        faults = FaultPlan()
    if (
        cache is None or config.sanitize or config.differential
        or config.on_pass_failure != "raise"
        or config.disabled_passes
        or (plan is not None and not disk_plan)
    ):
        return compile_minic(
            source, machine, config, faults=faults, crash_dir=crash_dir,
            cancel=cancel,
        )

    key = cache_key(source, machine.name, config)

    def produce():
        compiled = compile_minic(
            source, machine, config, faults=faults, cancel=cancel
        )
        return compiled, json.dumps(serialize_program(compiled)).encode()

    def decode(data: bytes) -> CompiledProgram:
        memo_key = (key, hashlib.sha256(data).digest())
        revived = _revived.get(memo_key)
        if revived is None:
            payload = validate_payload(json.loads(data))
            revived = revive_program(payload, machine, config)
            if revived is None:
                raise ValueError("payload does not revive to a program")
            _revived.put(memo_key, revived)
        return revived

    with span("cache"):
        try:
            program, _role = cache.fetch_or_compute(
                key, produce, decode=decode, cancel=cancel,
                faults=plan if disk_plan else None,
            )
        except OSError:
            # Anything the store could not degrade internally (a dying
            # filesystem, a yanked cache directory): compile uncached.
            return compile_minic(
                source, machine, config, faults=faults, cancel=cancel
            )
    return program
