"""Constant folding and algebraic simplification.

All arithmetic is evaluated with the target's word-size wraparound so the
fold is bit-identical to what the simulator would compute.
"""

from __future__ import annotations

from typing import Optional

from repro.ir.function import Function
from repro.ir.rtl import (
    BinOp,
    CondJump,
    Const,
    Jump,
    Mov,
    Operand,
    Reg,
    UnOp,
)
from repro.opt.pass_manager import PassContext, function_pass


def _signed(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def eval_binop(op: str, a: int, b: int, bits: int) -> Optional[int]:
    """Evaluate a binary RTL operator on word-sized values; None on traps."""
    mask = (1 << bits) - 1
    a &= mask
    b &= mask
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "mul":
        return (a * b) & mask
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "shl":
        return (a << (b & (bits - 1))) & mask
    if op == "shrl":
        return a >> (b & (bits - 1))
    if op == "shra":
        return (_signed(a, bits) >> (b & (bits - 1))) & mask
    if op in ("div", "rem"):
        sa, sb = _signed(a, bits), _signed(b, bits)
        if sb == 0:
            return None
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return (quotient if op == "div" else sa - quotient * sb) & mask
    if op in ("divu", "remu"):
        if b == 0:
            return None
        return (a // b if op == "divu" else a % b) & mask
    return None


def eval_unop(op: str, a: int, bits: int) -> Optional[int]:
    mask = (1 << bits) - 1
    a &= mask
    if op == "neg":
        return (-a) & mask
    if op == "not":
        return (~a) & mask
    if op[1:4] == "ext":
        width = int(op[4:])
        low = a & ((1 << (8 * width)) - 1)
        if op[0] == "s" and low & (1 << (8 * width - 1)):
            low -= 1 << (8 * width)
        return low & mask
    return None


def eval_relation(rel: str, a: int, b: int, bits: int) -> bool:
    mask = (1 << bits) - 1
    a &= mask
    b &= mask
    if rel == "eq":
        return a == b
    if rel == "ne":
        return a != b
    if rel in ("ltu", "leu", "gtu", "geu"):
        return {"ltu": a < b, "leu": a <= b,
                "gtu": a > b, "geu": a >= b}[rel]
    sa, sb = _signed(a, bits), _signed(b, bits)
    return {"lt": sa < sb, "le": sa <= sb, "gt": sa > sb, "ge": sa >= sb}[rel]


def _simplify_algebraic(instr: BinOp) -> Optional[object]:
    """Identity simplifications returning a replacement instruction."""
    a, b = instr.a, instr.b
    op = instr.op
    if isinstance(b, Const):
        value = b.value
        if op in ("add", "sub", "or", "xor", "shl", "shrl", "shra") and (
            value == 0
        ):
            return Mov(instr.dst, a)
        if op == "mul" and value == 1:
            return Mov(instr.dst, a)
        if op == "mul" and value == 0:
            return Mov(instr.dst, Const(0))
        if op in ("div", "divu") and value == 1:
            return Mov(instr.dst, a)
        if op == "and" and value == 0:
            return Mov(instr.dst, Const(0))
    if isinstance(a, Const):
        value = a.value
        if op in ("add", "or", "xor") and value == 0:
            return Mov(instr.dst, b)
        if op == "mul" and value == 1:
            return Mov(instr.dst, b)
        if op == "mul" and value == 0:
            return Mov(instr.dst, Const(0))
        if op == "and" and value == 0:
            return Mov(instr.dst, Const(0))
    if (
        op in ("sub", "xor")
        and isinstance(a, Reg)
        and isinstance(b, Reg)
        and a.index == b.index
    ):
        return Mov(instr.dst, Const(0))
    return None


@function_pass
def constant_fold(func: Function, ctx: PassContext) -> bool:
    """Fold constant expressions and resolve constant branches."""
    bits = ctx.machine.word_bits
    changed = False
    for block in func.blocks:
        new_instrs = []
        for instr in block.instrs:
            replacement = instr
            if isinstance(instr, BinOp):
                if isinstance(instr.a, Const) and isinstance(instr.b, Const):
                    value = eval_binop(
                        instr.op, instr.a.value, instr.b.value, bits
                    )
                    if value is not None:
                        replacement = Mov(instr.dst, Const(value))
                else:
                    simplified = _simplify_algebraic(instr)
                    if simplified is not None:
                        replacement = simplified
            elif isinstance(instr, UnOp) and isinstance(instr.a, Const):
                value = eval_unop(instr.op, instr.a.value, bits)
                if value is not None:
                    replacement = Mov(instr.dst, Const(value))
            elif isinstance(instr, CondJump):
                if isinstance(instr.a, Const) and isinstance(instr.b, Const):
                    taken = eval_relation(
                        instr.rel, instr.a.value, instr.b.value, bits
                    )
                    replacement = Jump(
                        instr.iftrue if taken else instr.iffalse
                    )
            elif isinstance(instr, Mov):
                if (
                    isinstance(instr.src, Reg)
                    and instr.src.index == instr.dst.index
                ):
                    changed = True
                    continue  # self-copy: drop
            if replacement is not instr:
                changed = True
            new_instrs.append(replacement)
        block.instrs = new_instrs
    return changed
