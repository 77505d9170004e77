"""Simulator caches: the direct-mapped hardware model and the block cache.

Two unrelated kinds of cache live here:

* :class:`DirectMappedCache` models the simulated machine's I/D caches.
  Kept intentionally simple — the paper's effect is dominated by
  instruction counts and latencies, and the caches only need to capture
  two second-order phenomena the paper discusses: spatial locality (four
  narrow loads to one line cost one miss whether or not they are
  coalesced, so the coalescing win must come from the saved
  *instructions*) and the unrolling heuristic (a loop body that outgrows
  the I-cache starts missing every iteration).

* :class:`BlockCache` is a host-side translation cache for the
  block-compiling simulator backend (:mod:`repro.sim.translate`): it
  maps a closure's *structural key* — its RTL and the engine's
  accounting configuration, exactly what the translator reads (see
  ``CompiledEngine._closure_key``) — to the compiled code object, so a
  closure is emitted and lowered to CPython bytecode at most once per
  process no matter how many engines, benchmark cells or repeated
  compiles execute it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Optional

from repro.machine.machine import CacheGeometry


class DirectMappedCache:
    """Tag array of a direct-mapped cache; tracks hits and misses."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.line_bytes = geometry.line_bytes
        self.lines = geometry.lines
        self.tags: List[Optional[int]] = [None] * self.lines
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; returns True on a hit."""
        line_no = addr // self.line_bytes
        index = line_no % self.lines
        if self.tags[index] == line_no:
            self.hits += 1
            return True
        self.tags[index] = line_no
        self.misses += 1
        return False

    def access_range(self, addr: int, length: int) -> None:
        """Touch every line overlapped by ``[addr, addr+length)``."""
        line = addr // self.line_bytes
        last = (addr + max(length, 1) - 1) // self.line_bytes
        while line <= last:
            self.access(line * self.line_bytes)
            line += 1

    def flush(self) -> None:
        self.tags = [None] * self.lines

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:
        return (
            f"<DirectMappedCache {self.geometry.size_bytes}B "
            f"hits={self.hits} misses={self.misses}>"
        )


class CellCountedCache(DirectMappedCache):
    """A :class:`DirectMappedCache` whose counters live in mutable cells.

    The block-compiling backend inlines tag probes straight into the
    generated code: the emitted statements mutate :attr:`tags` and bump
    ``hit_cell``/``miss_cell`` in place, with no method call per probe.
    Counter reads (``.hits``/``.misses``) and the inherited
    :meth:`access` keep working through the properties, so the object
    stays interchangeable with the plain cache everywhere else.
    """

    def __init__(self, geometry: CacheGeometry):
        self.hit_cell = [0]
        self.miss_cell = [0]
        # When set (a zero-arg callable returning the total probe count),
        # hits are *derived* as probes - misses instead of counted: every
        # probe either hits or misses, and the probe total is statically
        # reconstructable from block execution counts, so the generated
        # code only ever touches the miss counter.  Probes must then all
        # come from generated code — do not mix in access() calls.
        self.derive_hits = None
        super().__init__(geometry)

    @property
    def hits(self) -> int:
        if self.derive_hits is not None:
            return self.derive_hits() - self.misses
        return self.hit_cell[0]

    @hits.setter
    def hits(self, value: int) -> None:
        self.hit_cell[0] = value

    @property
    def misses(self) -> int:
        return self.miss_cell[0]

    @misses.setter
    def misses(self, value: int) -> None:
        self.miss_cell[0] = value

    def flush(self) -> None:
        # In place: generated code holds a direct reference to the list.
        self.tags[:] = [None] * self.lines


class BlockCache:
    """LRU cache of compiled closures, keyed by structural key.

    The compiled engine's key holds a closure's RTL (registers by
    index, constants by value, labels and globals by number) and the
    engine's accounting configuration (word model and endianness,
    D-cache geometry, caches and cancel probe on or off, memoryview
    widths), so two closures share an entry exactly when their emitted
    sources would be byte-identical.  Everything that varies between
    instantiations — counter cells, I-cache line addresses, global
    addresses, successor closures — is bound through the closure's
    namespace, never baked into the code.  The cache does not look
    inside keys or entries.

    Thread-safe: the compile service translates from worker threads.
    ``invalidations`` counts entries dropped for any reason (explicit
    :meth:`invalidate`, capacity eviction, :meth:`clear`).  The compile
    cache's revive memo (:func:`repro.bench.cache.revived_programs`) is
    an instance too, of revived programs keyed by artifact.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("block cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def put(self, key: Hashable, entry: object) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.invalidations += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns whether it was present."""
        with self._lock:
            present = self._entries.pop(key, None) is not None
            if present:
                self.invalidations += 1
            return present

    def clear(self) -> int:
        """Drop every entry; returns how many were invalidated."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.invalidations += count
            return count

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:
        return (
            f"<BlockCache {len(self)}/{self.capacity} hits={self.hits} "
            f"misses={self.misses} invalidations={self.invalidations}>"
        )


#: Process-wide cache shared by every CompiledEngine that is not handed
#: an explicit one; repeated Simulator constructions over the same
#: program (the bench matrix, the compile service) translate each block
#: once.
_SHARED_BLOCK_CACHE = BlockCache()


def shared_block_cache() -> BlockCache:
    """The process-wide default :class:`BlockCache`."""
    return _SHARED_BLOCK_CACHE
