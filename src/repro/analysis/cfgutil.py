"""Small CFG helpers shared by every analysis, memoized per CFG shape
(:meth:`Function.cfg_fact`) and so immutable; the ``_``-prefixed
builders compute a fact afresh."""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from repro.ir.function import Function


def predecessors(func: Function) -> Mapping[str, Tuple[str, ...]]:
    """Map each block label to the labels of its predecessors, in layout
    order.

    Edge multiplicity is collapsed: a conditional jump with both arms at
    the same target contributes one predecessor entry.
    """
    return func.cfg_fact("predecessors", _predecessors)


def _predecessors(func: Function) -> Mapping[str, Tuple[str, ...]]:
    preds: Dict[str, List[str]] = {b.label: [] for b in func.blocks}
    for block in func.blocks:
        for succ in block.successors():
            preds[succ].append(block.label)
    return MappingProxyType(
        {label: tuple(labels) for label, labels in preds.items()}
    )


def reachable_labels(func: Function) -> FrozenSet[str]:
    """Labels reachable from the entry block."""
    return func.cfg_fact("reachable_labels", _reachable_labels)


def _reachable_labels(func: Function) -> FrozenSet[str]:
    seen: Set[str] = set()
    work = [func.entry.label]
    while work:
        label = work.pop()
        if label in seen:
            continue
        seen.add(label)
        work.extend(func.block(label).successors())
    return frozenset(seen)


def reverse_postorder(func: Function) -> Tuple[str, ...]:
    """Reverse postorder over reachable blocks (good order for forward
    dataflow problems)."""
    return func.cfg_fact("reverse_postorder", _reverse_postorder)


def _reverse_postorder(func: Function) -> Tuple[str, ...]:
    seen: Set[str] = set()
    order: List[str] = []

    def visit(label: str) -> None:
        stack = [(label, iter(func.block(label).successors()))]
        seen.add(label)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(func.block(succ).successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(func.entry.label)
    order.reverse()
    return tuple(order)
