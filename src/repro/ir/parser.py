"""Parser for the RTL text format produced by :mod:`repro.ir.printer`.

The format is line oriented; ``#`` starts a comment that runs to the end of
the line.  See the printer's module docstring for a full example.

Every revival of a cached compile goes through :func:`parse_module`,
so it reads each line once: a line is classified by its first word or
its last character, an instruction dispatches on its mnemonic through
dictionaries, instructions append to the block object of the last
label, and the highest register is tracked as operands are parsed.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.ir.rtl import (
    BIN_OPS,
    RELATIONS,
    UN_OPS,
    WIDTHS,
    BinOp,
    Call,
    CondJump,
    Const,
    Extract,
    FrameAddr,
    GlobalAddr,
    Insert,
    Jump,
    Load,
    Mov,
    Operand,
    Reg,
    Ret,
    Store,
    UnOp,
)
from repro.ir.function import Function, GlobalVar, Module

_INT_RE = re.compile(r"^-?(?:0[xX][0-9a-fA-F]+|\d+)$")
_ADDR_RE = re.compile(r"^\[\s*r(\d+)\s*(?:([+-])\s*(\d+)\s*)?\]$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):$")
_FUNC_RE = re.compile(r"^func\s+([A-Za-z_]\w*)\s*\(([^)]*)\)\s*\{$")
_GLOBAL_RE = re.compile(
    r"^global\s+([A-Za-z_]\w*)\[(\d+)\](?:\s+align\s+(\d+))?$"
)
_FRAME_RE = re.compile(
    r"^frame\s+([A-Za-z_.][\w.]*)\[(\d+)\](?:\s+align\s+(\d+))?$"
)
_CALL_RE = re.compile(r"^call\s+([A-Za-z_]\w*)\s*\(([^)]*)\)$")

#: ``[u]load.<width><s|u>`` -> (width, signed, unaligned)
_LOADS = {
    f"{u}load.{width}{sign}": (width, sign == "s", u == "u")
    for u in ("", "u") for width in WIDTHS for sign in "su"
}
#: ``[u]store.<width>`` -> (width, unaligned)
_STORES = {
    f"{u}store.{width}": (width, u == "u")
    for u in ("", "u") for width in WIDTHS
}
#: ``ext.<width><s|u>`` -> (width, signed)
_EXTRACTS = {
    f"ext.{width}{sign}": (width, sign == "s")
    for width in WIDTHS for sign in "su"
}
#: ``ins.<width>`` -> width
_INSERTS = {f"ins.{width}": width for width in WIDTHS}


def _split_args(text: str) -> List[str]:
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


class _Parser:
    """Instruction parsing at one line number, tracking in :attr:`top`
    the highest register index parsed (every parsed register is a use
    or a definition, so this is ``Function.max_reg_index``)."""

    __slots__ = ("line_no", "top")

    def __init__(self, line_no: int = 0):
        self.line_no = line_no
        self.top = -1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line_no)

    def reg_at(self, index: int) -> Reg:
        if index > self.top:
            self.top = index
        return Reg(index)

    def operand(self, text: str) -> Operand:
        text = text.strip()
        if text[:1] == "r" and text[1:].isdecimal():
            return self.reg_at(int(text[1:]))
        if _INT_RE.match(text):
            return Const(int(text, 0))
        raise self.error(f"bad operand {text!r}")

    def reg(self, text: str) -> Reg:
        operand = self.operand(text)
        if not isinstance(operand, Reg):
            raise self.error(f"expected a register, got {text!r}")
        return operand

    def addr(self, text: str) -> Tuple[Reg, int]:
        match = _ADDR_RE.match(text.strip())
        if not match:
            raise self.error(f"bad address {text!r}")
        base = self.reg_at(int(match.group(1)))
        disp = 0
        if match.group(3) is not None:
            disp = int(match.group(3))
            if match.group(2) == "-":
                disp = -disp
        return base, disp

    def call(self, dst: Optional[Reg], text: str):
        """A call, or None when ``text`` is not one."""
        match = _CALL_RE.match(text)
        if match is None:
            return None
        args = [self.operand(a) for a in _split_args(match.group(2))]
        return Call(dst, match.group(1), args)

    def rhs(self, dst: Reg, rhs: str):
        """Parse the right-hand side of a ``rX = ...`` line."""
        rhs = rhs.strip()
        head, _, rest = rhs.partition(" ")
        if head in BIN_OPS:
            parts = _split_args(rest)
            if len(parts) != 2:
                raise self.error(f"{head} needs two operands")
            return BinOp(
                head, dst, self.operand(parts[0]), self.operand(parts[1])
            )
        load = _LOADS.get(head)
        if load is not None:
            base, disp = self.addr(rest)
            width, signed, unaligned = load
            return Load(dst, base, disp, width, signed=signed,
                        unaligned=unaligned)
        extract = _EXTRACTS.get(head)
        if extract is not None:
            parts = _split_args(rest)
            if len(parts) != 2 or not parts[1].startswith("pos="):
                raise self.error(f"bad ext operands {rest!r}")
            width, signed = extract
            return Extract(
                dst, self.reg(parts[0]), self.operand(parts[1][4:]), width,
                signed=signed,
            )
        insert = _INSERTS.get(head)
        if insert is not None:
            parts = _split_args(rest)
            if len(parts) != 3 or not parts[2].startswith("pos="):
                raise self.error(f"bad ins operands {rest!r}")
            return Insert(
                dst, self.operand(parts[0]), self.operand(parts[1]),
                self.operand(parts[2][4:]), insert,
            )
        if head in UN_OPS:
            return UnOp(head, dst, self.operand(rest))
        if head == "frameaddr":
            return FrameAddr(dst, rest.strip())
        if head == "globaladdr":
            return GlobalAddr(dst, rest.strip())
        if rhs.startswith("call"):
            call = self.call(dst, rhs)
            if call is not None:
                return call
        # Plain move: "rX = rY" or "rX = 5"
        return Mov(dst, self.operand(rhs))

    def store(self, head: str, rest: str):
        store = _STORES.get(head)
        if store is None:
            raise self.error(f"bad store mnemonic {head!r}")
        addr_text, _, src_text = rest.rpartition(",")
        if not addr_text:
            raise self.error("store needs an address and a source")
        base, disp = self.addr(addr_text)
        width, unaligned = store
        return Store(base, disp, self.operand(src_text), width,
                     unaligned=unaligned)

    def branch(self, rest: str):
        rel, _, operands = rest.strip().partition(" ")
        if rel not in RELATIONS:
            raise self.error(f"unknown relation {rel!r}")
        parts = _split_args(operands)
        if len(parts) != 4:
            raise self.error("br needs: rel a, b, iftrue, iffalse")
        return CondJump(
            rel, self.operand(parts[0]), self.operand(parts[1]),
            parts[2], parts[3],
        )

    def instr(self, text: str):
        """Parse one (stripped) instruction line."""
        dst_text, eq, rhs = text.partition("=")
        if eq:
            dst_text = dst_text.strip()
            if dst_text[:1] == "r" and dst_text[1:].isdecimal():
                return self.rhs(self.reg_at(int(dst_text[1:])), rhs)
        head, space, rest = text.partition(" ")
        if head.startswith("store.") or head.startswith("ustore."):
            return self.store(head, rest)
        if space:
            if head == "jump":
                return Jump(rest.strip())
            if head == "br":
                return self.branch(rest)
            if head == "ret":
                return Ret(self.operand(rest))
        elif head == "ret":
            return Ret(None)
        if text.startswith("call"):
            call = self.call(None, text)
            if call is not None:
                return call
        raise self.error(f"cannot parse instruction {text!r}")


def _parse_instr(text: str, line_no: int):
    """Parse one instruction line (tests round-trip single lines)."""
    return _Parser(line_no).instr(text.strip())


def parse_module(source: str, name: str = "module") -> Module:
    """Parse a textual module back into IR objects."""
    module = Module(name)
    func: Optional[Function] = None
    block = None
    parser = _Parser()

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parser.line_no = line_no
        if func is not None and block is not None and line[-1] not in "{}:":
            if line.startswith("frame"):
                match = _FRAME_RE.match(line)
                if match:
                    func.frame_slots[match.group(1)] = (
                        int(match.group(2)), int(match.group(3) or 8),
                    )
                    continue
            elif line.startswith("module "):
                module.name = line[7:].strip()
                continue
            block.instrs.append(parser.instr(line))
            continue
        if line.startswith("module "):
            module.name = line[7:].strip()
            continue
        if func is None:
            match = _GLOBAL_RE.match(line)
            if match:
                module.add_global(
                    GlobalVar(
                        match.group(1),
                        int(match.group(2)),
                        int(match.group(3) or 8),
                    )
                )
                continue
        match = _FUNC_RE.match(line)
        if match:
            if func is not None:
                raise ParseError("nested func", line_no)
            parser.top = -1
            params = [parser.reg(p) for p in _split_args(match.group(2))]
            func = Function(match.group(1), params)
            block = None
            continue
        if line == "}":
            if func is None:
                raise ParseError("unmatched '}'", line_no)
            func.reserve_reg_index(parser.top)
            module.add_function(func)
            func = None
            continue
        if func is None:
            raise ParseError(
                f"statement outside a function: {line!r}", line_no
            )
        match = _FRAME_RE.match(line)
        if match:
            func.frame_slots[match.group(1)] = (
                int(match.group(2)), int(match.group(3) or 8),
            )
            continue
        match = _LABEL_RE.match(line)
        if match:
            block = func.add_block(match.group(1))
            continue
        if block is None:
            raise ParseError("instruction before any block label", line_no)
        block.instrs.append(parser.instr(line))

    if func is not None:
        raise ParseError("missing closing '}'", len(source.splitlines()))
    return module
