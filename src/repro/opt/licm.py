"""Loop-invariant code motion.

Hoists pure computations whose operands are loop-invariant into the loop
preheader.  Deliberately conservative: the hoisted instruction must be the
register's only definition in the loop, must execute on every iteration
(its block dominates every latch), and the register must not be live into
the loop header from outside.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.analysis.dominators import dominates, immediate_dominators
from repro.analysis.liveness import liveness
from repro.analysis.loops import ensure_preheader, find_loops
from repro.ir.function import Function
from repro.ir.rtl import (
    BinOp,
    Extract,
    FrameAddr,
    GlobalAddr,
    Instr,
    Mov,
    Reg,
    UnOp,
)
from repro.opt.pass_manager import PassContext, function_pass

_PURE_KINDS = (BinOp, UnOp, Mov, FrameAddr, GlobalAddr, Extract)


def _loop_defs(func: Function, loop) -> Dict[int, int]:
    """Count of in-loop definitions per register index."""
    counts: Dict[int, int] = {}
    for label in loop.blocks:
        for instr in func.block(label).instrs:
            for reg in instr.defs():
                counts[reg.index] = counts.get(reg.index, 0) + 1
    return counts


@function_pass
def loop_invariant_code_motion(func: Function, ctx: PassContext) -> bool:
    changed = False
    for loop in find_loops(func):
        idom = immediate_dominators(func)
        def_counts = _loop_defs(func, loop)
        live = liveness(func)
        preheader = None

        moved = True
        while moved:
            moved = False
            # Layout order, not set order: the hoist order must not
            # depend on string hashing.
            in_loop = [b.label for b in func.blocks if b.label in loop.blocks]
            for label in in_loop:
                if not all(
                    dominates(idom, label, latch) for latch in loop.latches
                ):
                    continue
                block = func.block(label)
                for index, instr in enumerate(block.body):
                    if not isinstance(instr, _PURE_KINDS):
                        continue
                    if isinstance(instr, BinOp) and instr.op in (
                        "div", "divu", "rem", "remu"
                    ):
                        continue
                    dst = instr.defs()[0]
                    if def_counts.get(dst.index, 0) != 1:
                        continue
                    if any(
                        def_counts.get(r.index, 0) > 0 for r in instr.uses()
                    ):
                        continue
                    if dst.index in live.live_in[loop.header]:
                        continue
                    # Hoist.
                    if preheader is None:
                        preheader = ensure_preheader(func, loop)
                        idom = immediate_dominators(func)
                    block.instrs.pop(index)
                    preheader.instrs.insert(-1, instr)
                    def_counts[dst.index] = 0
                    changed = moved = True
                    break
                if moved:
                    break
    return changed
