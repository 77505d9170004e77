"""The analysis manager: caching with pass-level invalidation.

Every pass in the cleanup fixpoint used to recompute its dataflow from
scratch — ROADMAP's profile showed ``cleanup``/``global_const_prop``
spending ~95% of compile time rebuilding reaching definitions the
previous pass had already built.  The manager memoizes analyses per
function.  A pass that changes a function retires them itself: passes
are declared with :func:`repro.opt.pass_manager.function_pass`, which
names the analyses the pass *preserves* and, on a change, drops
everything else.

The manager also records, per function, which passes are *settled*:
their last run on the function's current IR changed nothing, so the
cleanup fixpoint skips them.  Any invalidation of the function forgets
those records, whatever it preserves.

Registered analyses:

``reaching``
    :func:`repro.analysis.reaching.reaching_definitions`
``liveness``
    :func:`repro.analysis.liveness.liveness`
``dominators``
    :func:`repro.analysis.dominators.immediate_dominators`
``memdep``
    :func:`repro.analysis.alias.memory_dependence` — the symbolic alias
    and memory-dependence summary.

Functions are held through a :class:`weakref.WeakKeyDictionary`, so a
cached entry can never outlive (or be confused with) its function, and a
manager kept around between compilations leaks nothing.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Set

from repro.errors import ReproError
from repro.ir.function import Function

#: Analysis name -> "module:callable" resolved lazily (the alias engine
#: imports back into analysis, so eager imports would cycle).
_REGISTRY: Dict[str, str] = {
    "reaching": "repro.analysis.reaching:reaching_definitions",
    "liveness": "repro.analysis.liveness:liveness",
    "dominators": "repro.analysis.dominators:immediate_dominators",
    "memdep": "repro.analysis.alias:memory_dependence",
}

ALL_ANALYSES: FrozenSet[str] = frozenset(_REGISTRY)

_resolved: Dict[str, Callable[[Function], object]] = {}


def _resolve(name: str) -> Callable[[Function], object]:
    fn = _resolved.get(name)
    if fn is None:
        try:
            module_name, attr = _REGISTRY[name].split(":")
        except KeyError:
            raise ReproError(
                f"unknown analysis {name!r}; known: "
                f"{', '.join(sorted(_REGISTRY))}"
            ) from None
        import importlib

        fn = getattr(importlib.import_module(module_name), attr)
        _resolved[name] = fn
    return fn


class AnalysisManager:
    """Per-function analysis cache with explicit invalidation."""

    def __init__(self) -> None:
        self._cache: "weakref.WeakKeyDictionary[Function, Dict[str, object]]"
        self._cache = weakref.WeakKeyDictionary()
        self._settled: "weakref.WeakKeyDictionary[Function, Set[str]]"
        self._settled = weakref.WeakKeyDictionary()
        self.hits = 0
        self.misses = 0

    # -- retrieval ----------------------------------------------------------
    def get(self, func: Function, name: str) -> object:
        entry = self._cache.get(func)
        if entry is None:
            entry = {}
            self._cache[func] = entry
        if name in entry:
            self.hits += 1
            return entry[name]
        self.misses += 1
        result = _resolve(name)(func)
        entry[name] = result
        return result

    def reaching(self, func: Function):
        return self.get(func, "reaching")

    def liveness(self, func: Function):
        return self.get(func, "liveness")

    def dominators(self, func: Function):
        return self.get(func, "dominators")

    def memdep(self, func: Function):
        return self.get(func, "memdep")

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
    def invalidate(
        self,
        func: Function,
        preserved: Optional[Iterable[str]] = None,
    ) -> None:
        """Drop ``func``'s cached analyses, keeping only ``preserved``,
        and forget every pass settled on it.

        Called after a pass changed the function; the pass's ``preserves``
        declaration becomes ``preserved``.  An empty/absent declaration
        drops everything — conservatively correct for any mutation.
        """
        self._settled.pop(func, None)
        entry = self._cache.get(func)
        if not entry:
            return
        keep = frozenset(preserved or ())
        for name in list(entry):
            if name not in keep:
                del entry[name]

    def clear(self) -> None:
        """Drop every cached analysis and settled pass of every function."""
        self._cache.clear()
        self._settled.clear()
