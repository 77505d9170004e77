"""Dominator computation (Cooper–Harvey–Kennedy iterative algorithm)."""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional, Set

from repro.analysis.cfgutil import predecessors, reverse_postorder
from repro.ir.function import Function


def immediate_dominators(func: Function) -> Mapping[str, Optional[str]]:
    """Immediate dominator of every reachable block, memoized per CFG
    shape (read-only).

    The entry block maps to ``None``.  Unreachable blocks are absent.
    """
    return func.cfg_fact("immediate_dominators", _immediate_dominators)


def _immediate_dominators(func: Function) -> Mapping[str, Optional[str]]:
    order = reverse_postorder(func)
    position = {label: i for i, label in enumerate(order)}
    preds = predecessors(func)
    entry = func.entry.label

    idom: Dict[str, Optional[str]] = {entry: entry}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]  # type: ignore[assignment]
            while position[b] > position[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for label in order:
            if label == entry:
                continue
            candidates = [
                p for p in preds[label] if p in idom and p in position
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for other in candidates[1:]:
                new_idom = intersect(new_idom, other)
            if idom.get(label) != new_idom:
                idom[label] = new_idom
                changed = True

    result: Dict[str, Optional[str]] = {
        label: idom[label] for label in order
    }
    result[entry] = None
    return MappingProxyType(result)


def dominator_sets(func: Function) -> Dict[str, Set[str]]:
    """Full dominator sets, derived from the idom tree."""
    idom = immediate_dominators(func)
    sets: Dict[str, Set[str]] = {}
    for label in idom:
        chain = {label}
        walk = idom[label]
        while walk is not None:
            chain.add(walk)
            walk = idom[walk]
        sets[label] = chain
    return sets


def dominates(
    idom: Mapping[str, Optional[str]], a: str, b: str
) -> bool:
    """Whether block ``a`` dominates block ``b`` under the idom tree."""
    walk: Optional[str] = b
    while walk is not None:
        if walk == a:
            return True
        walk = idom.get(walk)
    return False
