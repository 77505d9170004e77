"""Copy and constant propagation (block-local).

Within a block, after ``dst = src`` every use of ``dst`` can read ``src``
instead, until either register is redefined.  Constants propagate the same
way, except into a register an instruction reads through one of its
``register_slots`` (an address base, an extract's source word).  A
complementary *copy coalescing* rewrite handles the front end's
``tmp = a + b; x = tmp`` pattern by renaming the producer's destination
when the temporary dies at the copy; it solves liveness only for a
function, and live-after sets only for a block, that holds a copy it
could coalesce.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.analysis.liveness import liveness
from repro.ir.function import Function
from repro.ir.rtl import Call, Const, Instr, Mov, Operand, Reg
from repro.opt.pass_manager import PassContext, function_pass


def _propagate_in_block(block) -> bool:
    changed = False
    copies: Dict[int, Operand] = {}  # dst reg index -> current value
    readers: Dict[int, Set[int]] = {}  # reg index -> keys whose value it is

    def invalidate(reg_index: int) -> None:
        old = copies.pop(reg_index, None)
        if isinstance(old, Reg):
            readers[old.index].discard(reg_index)
        for key in readers.pop(reg_index, ()):
            del copies[key]

    def record(key: int, value: Operand) -> None:
        old = copies.get(key)
        if isinstance(old, Reg):
            readers[old.index].discard(key)
        copies[key] = value
        if isinstance(value, Reg):
            readers.setdefault(value.index, set()).add(key)

    for instr in block.instrs:
        # Rewrite uses first.  No entry maps a register onto itself, so
        # a non-empty mapping always changes the instruction.
        mapping = {}
        for reg in instr.uses():
            if reg.index in copies:
                mapping[reg] = copies[reg.index]
        if mapping:
            # A register-only slot keeps its register: no constant
            # replaces that register anywhere in the instruction.
            for reg in instr.register_only_uses():
                if isinstance(mapping.get(reg), Const):
                    del mapping[reg]
        if mapping:
            instr.substitute_uses(mapping)
            changed = True
        # Then account for definitions.
        for reg in instr.defs():
            invalidate(reg.index)
        if isinstance(instr, Mov):
            source = instr.src
            if isinstance(source, Const):
                record(instr.dst.index, source)
            elif source.index != instr.dst.index:
                # Both registers hold the same value until either is
                # redefined; canonicalize onto the lower index so loop
                # counters keep their original register (which lets the
                # copy itself die and the IV pattern re-form).
                if source.index < instr.dst.index:
                    record(instr.dst.index, source)
                else:
                    record(source.index, instr.dst)
    return changed


def _coalesce_copies(func: Function) -> bool:
    """Rewrite ``tmp = <op>; x = tmp`` into ``x = <op>`` when tmp dies.

    Requires: the copy immediately follows other instructions in the same
    block, ``tmp`` is not used between the producer and the copy (besides
    by the copy), not live after the copy, and the producer defines only
    ``tmp``.

    Liveness is solved only on meeting a *candidate* copy (``tmp``
    defined earlier in the block and unused since), and live-after sets
    only for a block that holds one.  Nothing is rewritten before the
    first candidate of the function, nor in a block before its first
    candidate, so both equal solves made up front.
    """
    info = None
    changed = False
    for block in func.blocks:
        live_after = None
        producer_of: Dict[int, int] = {}
        uses_after_def: Dict[int, int] = {}
        for index, instr in enumerate(block.instrs):
            candidate = (
                isinstance(instr, Mov)
                and isinstance(instr.src, Reg)
                and instr.src.index in producer_of
                and uses_after_def.get(instr.src.index, 0) == 0
                and instr.dst.index != instr.src.index
            )
            if candidate and live_after is None:
                if info is None:
                    info = liveness(func)
                live_after = info.live_after(func, block.label)
            if candidate and instr.src.index not in live_after[index]:
                producer_index = producer_of[instr.src.index]
                producer = block.instrs[producer_index]
                # dst must not be used or redefined between producer & copy.
                conflict = False
                for middle in block.instrs[producer_index + 1:index]:
                    regs = middle.uses() + middle.defs()
                    if any(r.index == instr.dst.index for r in regs):
                        conflict = True
                        break
                if not conflict and not isinstance(producer, Call):
                    producer.substitute_defs({instr.src: instr.dst})
                    block.instrs[index] = Mov(instr.dst, instr.dst)
                    changed = True
            for reg in instr.uses():
                if reg.index in uses_after_def:
                    uses_after_def[reg.index] += 1
            for reg in instr.defs():
                producer_of[reg.index] = index
                uses_after_def[reg.index] = 0
        if changed:
            block.instrs = [
                i
                for i in block.instrs
                if not (
                    isinstance(i, Mov)
                    and isinstance(i.src, Reg)
                    and i.src.index == i.dst.index
                )
            ]
    return changed


def _rematerialize_increments(func: Function) -> bool:
    """Rewrite ``i = t`` into ``i = i + c`` when ``t = i + c`` precedes it.

    CSE often unifies a loop body's ``i+1`` with the step's ``i+1``,
    leaving the counter update as a plain copy — which hides the counter
    from the induction variable analysis.  Re-materializing the increment
    restores the ``i = i + c`` shape (the copy's source keeps its value,
    so body uses of ``i+1`` are untouched).
    """
    from repro.ir.rtl import BinOp

    changed = False
    for block in func.blocks:
        last_def: Dict[int, int] = {}
        for index, instr in enumerate(block.instrs):
            if (
                isinstance(instr, Mov)
                and isinstance(instr.src, Reg)
                and instr.src.index in last_def
            ):
                producer = block.instrs[last_def[instr.src.index]]
                step = _add_const_of(producer, instr.dst.index)
                if step is not None:
                    # dst must be unchanged since the producer read it.
                    clean = all(
                        instr.dst.index not in (
                            r.index for r in middle.defs()
                        )
                        for middle in block.instrs[
                            last_def[instr.src.index] + 1:index
                        ]
                    )
                    if clean:
                        if step >= 0:
                            block.instrs[index] = BinOp(
                                "add", instr.dst, instr.dst, Const(step)
                            )
                        else:
                            block.instrs[index] = BinOp(
                                "sub", instr.dst, instr.dst, Const(-step)
                            )
                        changed = True
            for reg in block.instrs[index].defs():
                last_def[reg.index] = index
    return changed


def _add_const_of(instr, reg_index: int):
    """If ``instr`` is ``x = reg_index ± const``, return the signed step."""
    from repro.ir.rtl import BinOp

    if not isinstance(instr, BinOp):
        return None
    if instr.op == "add":
        if (
            isinstance(instr.a, Reg)
            and instr.a.index == reg_index
            and isinstance(instr.b, Const)
        ):
            return instr.b.value
        if (
            isinstance(instr.b, Reg)
            and instr.b.index == reg_index
            and isinstance(instr.a, Const)
        ):
            return instr.a.value
    if (
        instr.op == "sub"
        and isinstance(instr.a, Reg)
        and instr.a.index == reg_index
        and isinstance(instr.b, Const)
    ):
        return -instr.b.value
    return None


# Deletes and rewrites straight-line instructions only; terminator
# targets and the block list are untouched.
@function_pass
def copy_propagate(func: Function, ctx: PassContext) -> bool:
    changed = False
    for block in func.blocks:
        changed |= _propagate_in_block(block)
    changed |= _coalesce_copies(func)
    changed |= _rematerialize_increments(func)
    return changed
