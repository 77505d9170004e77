"""Local (block-scoped) common subexpression elimination.

Pure computations with identical operands reuse the earlier result.
Loads participate too — a second load of the same address with no
intervening store or call is redundant — but note this never subsumes
memory access coalescing: the narrow references the coalescer merges are
at *different* addresses, which CSE cannot touch (§2.1 of the paper).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir.function import Function
from repro.ir.rtl import (
    BinOp,
    Call,
    Const,
    Extract,
    FrameAddr,
    GlobalAddr,
    Insert,
    Load,
    Mov,
    Operand,
    Reg,
    Store,
    UnOp,
    COMMUTATIVE_OPS,
)
from repro.opt.pass_manager import PassContext, function_pass


def _operand_key(value: Operand) -> Tuple[str, int]:
    if isinstance(value, Reg):
        return ("r", value.index)
    return ("c", value.value)


def _expression_key(instr) -> Optional[Tuple]:
    """Hashable key identifying the computation, or None if not CSE-able."""
    if isinstance(instr, BinOp):
        a, b = _operand_key(instr.a), _operand_key(instr.b)
        if instr.op in COMMUTATIVE_OPS and b < a:
            a, b = b, a
        return ("bin", instr.op, a, b)
    if isinstance(instr, UnOp):
        return ("un", instr.op, _operand_key(instr.a))
    if isinstance(instr, Extract):
        return (
            "ext",
            instr.width,
            instr.signed,
            _operand_key(instr.src),
            _operand_key(instr.pos),
        )
    if isinstance(instr, Insert):
        return (
            "ins",
            instr.width,
            _operand_key(instr.acc),
            _operand_key(instr.src),
            _operand_key(instr.pos),
        )
    if isinstance(instr, FrameAddr):
        return ("frame", instr.slot)
    if isinstance(instr, GlobalAddr):
        return ("global", instr.name)
    if isinstance(instr, Load):
        return (
            "load",
            instr.width,
            instr.signed,
            instr.unaligned,
            _operand_key(instr.base),
            instr.disp,
        )
    return None


class _Available:
    """The block's available expressions, filed by the registers that can
    retire them: each entry under every register its key reads and
    under the register holding its result.  Loads are also kept apart,
    since a store or a call retires them all.  Retiring a register
    costs only the entries filed under it."""

    __slots__ = ("result", "files", "loads")

    def __init__(self) -> None:
        # key -> (result register, the register indices it is filed under)
        self.result: Dict[Tuple, Tuple[Reg, List[int]]] = {}
        self.files: Dict[int, Set[Tuple]] = {}
        self.loads: Set[Tuple] = set()

    def add(self, key: Tuple, reads: List[int], result: Reg) -> None:
        """File ``key``, which reads ``reads`` (a list the table takes
        over) and whose value ``result`` holds."""
        reads.append(result.index)
        self.result[key] = (result, reads)
        files = self.files
        for reg_index in reads:
            filed = files.get(reg_index)
            if filed is None:
                files[reg_index] = {key}
            else:
                filed.add(key)
        if key[0] == "load":
            self.loads.add(key)

    def _drop(self, key: Tuple) -> None:
        for reg_index in self.result.pop(key)[1]:
            filed = self.files.get(reg_index)
            if filed is not None:
                filed.discard(key)
        self.loads.discard(key)

    def retire(self, defined) -> None:
        """Drop the entries a definition of ``defined`` makes stale."""
        for reg in defined:
            for key in self.files.pop(reg.index, ()):
                self._drop(key)

    def retire_loads(self) -> None:
        for key in list(self.loads):
            self._drop(key)


# Block-local rewrites only — the dominator tree survives.
@function_pass
def local_cse(func: Function, ctx: PassContext) -> bool:
    changed = False
    for block in func.blocks:
        available = _Available()
        new_instrs = []
        for instr in block.instrs:
            key = _expression_key(instr)
            defined = instr.defs()
            if key is not None:
                # The registers baked into the key are the ones it reads.
                reads = [reg.index for reg in instr.uses()]
                # Never rewrite a self-referencing computation like
                # ``i = add i, 1`` into a copy: it costs nothing and
                # hides the induction variable from the loop analyses.
                # Its inputs are stale once it runs, so it is not
                # recorded either.
                if any(r.index in reads for r in defined):
                    new_instrs.append(instr)
                    available.retire(defined)
                    continue
                entry = available.result.get(key)
                if entry is not None:
                    # Reuse the earlier result; a Mov adds nothing to
                    # the table.
                    instr = Mov(defined[0], entry[0])
                    changed = True
                    key = None
            new_instrs.append(instr)
            available.retire(defined)
            if isinstance(instr, (Store, Call)):
                available.retire_loads()
            if key is not None:
                available.add(key, reads, defined[0])
        block.instrs = new_instrs
    return changed
