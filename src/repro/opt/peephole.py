"""Block-local peephole simplifications with def-chain awareness.

Three rules, all variations of "a value already known to fit its field
needs no re-masking":

* ``and x, m`` where ``x`` was produced by ``zextN`` and ``m`` covers the
  low ``N`` bytes — the AND is a no-op.  (This is what makes the Motorola
  88100's expanded field-insert sequences as tight as its real ``mak``
  idiom: the inserted value usually comes straight out of a ``zext``.)
* ``store.N [..], x`` where ``x`` was produced by ``(s|z)extM`` of some
  ``y`` with ``M >= N`` — the store truncates anyway, so store ``y``.
* ``ins.N ..., src=x, ...`` where ``x`` was produced by ``zextM`` of ``y``
  with ``M <= N`` — the insert masks its source to the field width, so
  feed it ``y`` directly (the extension often dies afterwards).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.ir.function import Function
from repro.ir.rtl import BinOp, Const, Insert, Instr, Mov, Reg, Store, UnOp
from repro.opt.pass_manager import PassContext, function_pass


def _ext_info(instr: Optional[Instr]) -> Optional[Tuple[str, int, Reg]]:
    """(kind, bytes, operand) when ``instr`` is a sign/zero extension of a
    register."""
    if isinstance(instr, UnOp) and instr.op[1:4] == "ext":
        if isinstance(instr.a, Reg):
            return instr.op[0], int(instr.op[4:]), instr.a
    return None


# Pure instruction rewrites: the CFG (and so the dominator tree)
# survives untouched.
@function_pass
def peephole(func: Function, ctx: PassContext) -> bool:
    changed = False
    for block in func.blocks:
        last_def: Dict[int, Instr] = {}
        for position, instr in enumerate(block.instrs):
            replacement = instr

            if (
                isinstance(instr, BinOp)
                and instr.op == "and"
                and isinstance(instr.a, Reg)
                and isinstance(instr.b, Const)
            ):
                info = _ext_info(last_def.get(instr.a.index))
                if info is not None:
                    kind, width, _source = info
                    mask = (1 << (8 * width)) - 1
                    # x's high bits are zero, so the AND is an identity
                    # exactly when the mask keeps all of x's low bits.
                    if kind == "z" and (instr.b.value & mask) == mask:
                        replacement = Mov(instr.dst, instr.a)

            elif isinstance(instr, Store) and isinstance(instr.src, Reg):
                info = _ext_info(last_def.get(instr.src.index))
                if info is not None:
                    _kind, width, source = info
                    if width >= instr.width and _still_valid(
                        block.instrs, position, source,
                        last_def.get(instr.src.index),
                    ):
                        instr.src = source
                        changed = True

            elif isinstance(instr, Insert) and isinstance(instr.src, Reg):
                info = _ext_info(last_def.get(instr.src.index))
                if info is not None:
                    kind, width, source = info
                    if kind == "z" and width <= instr.width and _still_valid(
                        block.instrs, position, source,
                        last_def.get(instr.src.index),
                    ):
                        instr.src = source
                        changed = True

            if replacement is not instr:
                block.instrs[position] = replacement
                changed = True
                instr = replacement
            for reg in instr.defs():
                last_def[reg.index] = instr
        # Refresh def map correctness: conservative single pass is fine
        # because rules only consult the most recent def.
    return changed


def _still_valid(
    instrs, use_position: int, source: Reg, ext_instr: Optional[Instr]
) -> bool:
    """``source`` must not be redefined between the extension and the use."""
    if ext_instr is None:
        return False
    try:
        ext_position = instrs.index(ext_instr)
    except ValueError:
        return False
    for middle in instrs[ext_position + 1:use_position]:
        if any(r.index == source.index for r in middle.defs()):
            return False
    return True
