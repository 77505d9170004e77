"""The analysis manager: the per-function facts a pass change retires.

It holds two things per function:

``memdep``
    :func:`repro.analysis.alias.memory_dependence` — the symbolic alias
    and memory-dependence summary, which the coalescer and the
    pipeline's ``memdep_root`` annotation read.  Computed on the first
    request after the function last changed.
settled passes
    The passes whose last run on the function's current IR changed
    nothing, so the cleanup fixpoint skips them.

A pass that changes a function retires both itself: passes are declared
with :func:`repro.opt.pass_manager.function_pass`, which calls
:meth:`AnalysisManager.invalidate` on a change.  CFG facts live in a
memo on the function keyed by its CFG shape, and reaching definitions
and liveness are solved per call, so neither is cached here.

Functions are held through a :class:`weakref.WeakKeyDictionary`, so a
cached entry can never outlive (or be confused with) its function, and a
manager kept around between compilations leaks nothing.
"""

from __future__ import annotations

import weakref
from typing import Set

from repro.analysis.alias import memory_dependence
from repro.ir.function import Function


class AnalysisManager:
    """Per-function ``memdep`` cache and settled passes, with explicit
    invalidation."""

    def __init__(self) -> None:
        self._memdep: "weakref.WeakKeyDictionary[Function, object]"
        self._memdep = weakref.WeakKeyDictionary()
        self._settled: "weakref.WeakKeyDictionary[Function, Set[str]]"
        self._settled = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    def memdep(self, func: Function):
        if func in self._memdep:
            self.hits += 1
            return self._memdep[func]
        self.misses += 1
        summary = self._memdep[func] = memory_dependence(func)
        return summary

    # -- settled passes -----------------------------------------------------
    def is_settled(self, func: Function, pass_name: str) -> bool:
        """Whether ``pass_name`` last ran on ``func``'s current IR and
        changed nothing.  Neither a hit nor a miss."""
        settled = self._settled.get(func)
        return settled is not None and pass_name in settled

    def settle(self, func: Function, pass_name: str) -> None:
        """Record that ``pass_name`` just ran on ``func`` unchanged."""
        settled = self._settled.get(func)
        if settled is None:
            settled = self._settled[func] = set()
        settled.add(pass_name)

    # -- invalidation -------------------------------------------------------
    def invalidate(self, func: Function) -> None:
        """Drop ``func``'s ``memdep`` and forget every pass settled on
        it.  Called after a pass changed the function."""
        self._memdep.pop(func, None)
        self._settled.pop(func, None)

    def clear(self) -> None:
        """Drop every cached ``memdep`` and settled pass of every
        function."""
        self._memdep.clear()
        self._settled.clear()
