"""Dead code elimination (mark-and-sweep over def-use chains).

Stronger than the classic liveness formulation: a self-updating register
cycle with no observable use (``i = i + 1`` feeding only itself) is dead
here, which is exactly what the paper's ``EliminateInductionVariables``
step needs after linear function test replacement retires a loop counter.

Marking starts from instructions with observable effects (stores, calls,
terminators, returns); every register such an instruction reads is
*needed*, and every definition of a needed register is live.  Everything
unmarked is swept.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.function import Function
from repro.ir.rtl import Call, Instr, Store
from repro.opt.pass_manager import PassContext, function_pass


# Removes straight-line instructions; the CFG shape is untouched.
@function_pass
def dead_code_elimination(func: Function, ctx: PassContext) -> bool:
    # One walk files every definition site per register index and seeds
    # the worklist with the observable instructions.
    defs_of: Dict[int, List[Instr]] = {}
    live: Set[int] = set()
    worklist: List[Instr] = []
    for block in func.blocks:
        for instr in block.instrs:
            if instr.is_terminator or isinstance(instr, (Store, Call)):
                live.add(id(instr))
                worklist.append(instr)
            for reg in instr.defs():
                defs_of.setdefault(reg.index, []).append(instr)

    needed_regs: Set[int] = set()
    while worklist:
        instr = worklist.pop()
        for reg in instr.uses():
            if reg.index in needed_regs:
                continue
            needed_regs.add(reg.index)
            for producer in defs_of.get(reg.index, ()):
                if id(producer) not in live:
                    live.add(id(producer))
                    worklist.append(producer)

    changed = False
    for block in func.blocks:
        kept = [i for i in block.instrs if id(i) in live]
        if len(kept) != len(block.instrs):
            changed = True
            block.instrs = kept
    return changed
