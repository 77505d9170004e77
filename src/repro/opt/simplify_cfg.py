"""CFG simplification: unreachable-block removal, jump threading, and
straight-line block merging.

The front end deliberately over-produces blocks (every loop gets a separate
latch so ``continue`` has a target); this pass merges them back so simple
loop bodies become the single-block shape the unroller and coalescer want.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.cfgutil import predecessors, reachable_labels
from repro.ir.function import Function
from repro.ir.rtl import CondJump, Jump
from repro.opt.pass_manager import PassContext, function_pass


def _remove_unreachable(func: Function) -> bool:
    reachable = reachable_labels(func)
    dead = [b.label for b in func.blocks if b.label not in reachable]
    for label in dead:
        func.remove_block(label)
    return bool(dead)


def _thread_trivial_jumps(func: Function) -> bool:
    """Retarget edges that go through blocks containing only a jump."""
    forward: Dict[str, str] = {}
    for block in func.blocks:
        if len(block.instrs) == 1 and isinstance(block.instrs[0], Jump):
            target = block.instrs[0].target
            if target != block.label:
                forward[block.label] = target

    def resolve(label: str) -> str:
        seen = set()
        while label in forward and label not in seen:
            seen.add(label)
            label = forward[label]
        return label

    changed = False
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, Jump):
            resolved = resolve(term.target)
            if resolved != term.target:
                term.target = resolved
                changed = True
        elif isinstance(term, CondJump):
            new_true = resolve(term.iftrue)
            new_false = resolve(term.iffalse)
            if new_true != term.iftrue or new_false != term.iffalse:
                term.iftrue = new_true
                term.iffalse = new_false
                changed = True
    return changed


def _merge_chains(func: Function) -> bool:
    """Merge ``a -> jump b`` when ``b``'s only predecessor is ``a``."""
    changed = False
    merged = True
    while merged:
        merged = False
        preds = predecessors(func)
        for block in func.blocks:
            term = block.terminator
            if not isinstance(term, Jump):
                continue
            target_label = term.target
            if target_label == block.label:
                continue
            if target_label == func.entry.label:
                continue
            if preds[target_label] != (block.label,):
                continue
            target = func.block(target_label)
            block.instrs = block.instrs[:-1] + target.instrs
            func.remove_block(target_label)
            changed = merged = True
            break
    return changed


def _collapse_same_target_branches(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        term = block.terminator
        if isinstance(term, CondJump) and term.iftrue == term.iffalse:
            block.instrs[-1] = Jump(term.iftrue)
            changed = True
    return changed


@function_pass
def simplify_cfg(func: Function, ctx: PassContext = None) -> bool:
    """Run all CFG clean-ups to a local fixpoint."""
    changed = False
    for _ in range(10):
        round_changed = False
        round_changed |= _collapse_same_target_branches(func)
        round_changed |= _thread_trivial_jumps(func)
        round_changed |= _remove_unreachable(func)
        round_changed |= _merge_chains(func)
        changed |= round_changed
        if not round_changed:
            break
    return changed
