"""RTL instruction and operand classes.

Design notes
------------
The paper's back end (vpo) represents code as *register transfer lists*.  We
model the same level of abstraction with a small set of instruction classes:

* value operands are either virtual registers (:class:`Reg`) or integer
  constants (:class:`Const`);
* memory is accessed only through :class:`Load` and :class:`Store`, whose
  address is always ``base + displacement`` (a register plus a constant) —
  the paper's hazard analysis (`FindBaseAndDisplacementOfAddress`) relies on
  exactly that decomposition;
* byte-field manipulation inside a word uses :class:`Extract` and
  :class:`Insert`, mirroring the DEC Alpha ``EXTxx``/``INSxx`` family the
  paper leans on (Figure 1, lines 14-16);
* control flow is fully explicit: every basic block ends with one of
  :class:`Jump`, :class:`CondJump` or :class:`Ret` and there is no
  fall-through.

Instructions are mutable so passes can rewrite them in place; each exposes
``uses()``/``defs()``/``clone()``/``substitute_uses()`` so generic dataflow
code never needs to know concrete classes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import IRError

# Widths are byte counts.  These are the only access sizes any of the three
# evaluation machines supports.
WIDTHS = (1, 2, 4, 8)

BIN_OPS = frozenset(
    {
        "add", "sub", "mul",
        "div", "divu", "rem", "remu",
        "and", "or", "xor",
        "shl", "shrl", "shra",
    }
)

# Operations for which a op b == b op a; used by CSE and constant folding.
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor"})

# Unary ops: arithmetic negate, bitwise not, and sign/zero extension of the
# low N bytes of a word ("sext2" = sign-extend the low 16 bits).
UN_OPS = frozenset(
    {"neg", "not", "sext1", "sext2", "sext4", "zext1", "zext2", "zext4"}
)

# Branch relations.  The "u" suffix means the comparison treats its operands
# as unsigned machine words.
RELATIONS = ("eq", "ne", "lt", "le", "gt", "ge", "ltu", "leu", "gtu", "geu")

_INVERSE = {
    "eq": "ne", "ne": "eq",
    "lt": "ge", "ge": "lt", "le": "gt", "gt": "le",
    "ltu": "geu", "geu": "ltu", "leu": "gtu", "gtu": "leu",
}

_SWAPPED = {
    "eq": "eq", "ne": "ne",
    "lt": "gt", "gt": "lt", "le": "ge", "ge": "le",
    "ltu": "gtu", "gtu": "ltu", "leu": "geu", "geu": "leu",
}


def invert_relation(rel: str) -> str:
    """Return the relation that holds exactly when ``rel`` does not."""
    return _INVERSE[rel]


def swap_relation(rel: str) -> str:
    """Return the relation ``rel'`` with ``a rel b  ==  b rel' a``."""
    return _SWAPPED[rel]


class Reg:
    """A virtual register.

    Registers are identified by ``index``; ``name`` is a purely cosmetic
    hint preserved by the printer (``r7`` vs ``r7<i>``).  Two ``Reg``
    objects with the same index denote the same storage location.
    """

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str = ""):
        self.index = index
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Reg) and other.index == self.index

    def __hash__(self) -> int:
        return hash(("reg", self.index))

    def __repr__(self) -> str:
        if self.name:
            return f"r{self.index}<{self.name}>"
        return f"r{self.index}"


class Const:
    """An integer literal operand (a machine-word constant)."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        if not isinstance(value, int):
            raise IRError(f"constant must be an int, got {value!r}")
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return str(self.value)


Operand = Union[Reg, Const]


def _check_operand(value: Operand, what: str) -> Operand:
    if not isinstance(value, (Reg, Const)):
        raise IRError(f"{what} must be a Reg or Const, got {value!r}")
    return value


def _check_reg(value: Reg, what: str) -> Reg:
    if not isinstance(value, Reg):
        raise IRError(f"{what} must be a Reg, got {value!r}")
    return value


def _check_width(width: int) -> int:
    if width not in WIDTHS:
        raise IRError(f"unsupported access width {width!r} (want 1/2/4/8)")
    return width


def _subst(value: Operand, mapping: Dict[Reg, Operand]) -> Operand:
    if isinstance(value, Reg) and value in mapping:
        return mapping[value]
    return value


def _subst_reg(value: Reg, mapping: Dict[Reg, Operand], what: str) -> Reg:
    """:func:`_subst` for a slot in ``register_slots``."""
    new = _subst(value, mapping)
    if not isinstance(new, Reg):
        raise IRError(f"cannot substitute {what} with a constant")
    return new


class Instr:
    """Base class for all RTL instructions.

    Subclasses fill in ``uses``/``defs``/``clone``/``substitute_uses``.
    ``notes`` is a scratch dictionary analyses may use to annotate
    instructions (e.g. the coalescer records partition ids there); clones
    share nothing with the original.
    """

    __slots__ = ("notes",)

    #: Whether the instruction ends a block: a class constant, ``True``
    #: on :class:`Jump`, :class:`CondJump` and :class:`Ret` only (the
    #: verifier, DCE and the scheduler ask it of every instruction).
    is_terminator = False

    #: The operand slots that must hold a register, a class constant:
    #: ``base`` on :class:`Load` and :class:`Store`, ``src`` on
    #: :class:`Extract`.  ``substitute_uses`` raises ``IRError`` when a
    #: mapping would put a constant there, so constant propagation
    #: leaves the registers these slots read alone.
    register_slots: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.notes: Dict[str, object] = {}

    # -- dataflow interface -------------------------------------------------
    def uses(self) -> List[Reg]:
        """Registers read by this instruction."""
        return []

    def defs(self) -> List[Reg]:
        """Registers written by this instruction."""
        return []

    def clone(self) -> "Instr":
        raise NotImplementedError

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        """Rewrite every use of a key register into the mapped operand."""

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        """Rewrite every defined register through ``mapping``."""

    def register_only_uses(self) -> List[Reg]:
        """The registers read through :attr:`register_slots`."""
        return [getattr(self, slot) for slot in self.register_slots]

    # -- classification helpers ---------------------------------------------
    @property
    def is_memory(self) -> bool:
        return isinstance(self, (Load, Store))

    def __repr__(self) -> str:  # delegated to the printer to keep one format
        from repro.ir.printer import format_instr

        return format_instr(self)


class Mov(Instr):
    """``dst = src`` — register copy or load-immediate."""

    __slots__ = ("dst", "src")

    def __init__(self, dst: Reg, src: Operand):
        super().__init__()
        self.dst = _check_reg(dst, "Mov.dst")
        self.src = _check_operand(src, "Mov.src")

    def uses(self) -> List[Reg]:
        return [self.src] if isinstance(self.src, Reg) else []

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "Mov":
        return Mov(self.dst, self.src)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.src = _subst(self.src, mapping)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class BinOp(Instr):
    """``dst = a <op> b`` for ``op`` in :data:`BIN_OPS`.

    Semantics are machine-word semantics: operands are machine words,
    results wrap modulo the word size.  ``div``/``rem`` are C-style
    (truncate toward zero); ``shrl`` is a logical and ``shra`` an
    arithmetic right shift.
    """

    __slots__ = ("op", "dst", "a", "b")

    def __init__(self, op: str, dst: Reg, a: Operand, b: Operand):
        super().__init__()
        if op not in BIN_OPS:
            raise IRError(f"unknown binary op {op!r}")
        self.op = op
        self.dst = _check_reg(dst, "BinOp.dst")
        self.a = _check_operand(a, "BinOp.a")
        self.b = _check_operand(b, "BinOp.b")

    def uses(self) -> List[Reg]:
        a, b = self.a, self.b
        if isinstance(a, Reg):
            return [a, b] if isinstance(b, Reg) else [a]
        return [b] if isinstance(b, Reg) else []

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "BinOp":
        return BinOp(self.op, self.dst, self.a, self.b)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class UnOp(Instr):
    """``dst = <op> a`` for ``op`` in :data:`UN_OPS`."""

    __slots__ = ("op", "dst", "a")

    def __init__(self, op: str, dst: Reg, a: Operand):
        super().__init__()
        if op not in UN_OPS:
            raise IRError(f"unknown unary op {op!r}")
        self.op = op
        self.dst = _check_reg(dst, "UnOp.dst")
        self.a = _check_operand(a, "UnOp.a")

    def uses(self) -> List[Reg]:
        return [self.a] if isinstance(self.a, Reg) else []

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "UnOp":
        return UnOp(self.op, self.dst, self.a)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.a = _subst(self.a, mapping)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class Load(Instr):
    """``dst = M[base + disp]`` of ``width`` bytes.

    ``signed`` selects sign- vs zero-extension into the full machine word.
    ``unaligned`` marks an Alpha-style ``ldq_u``: the effective address has
    its low ``log2(width)`` bits cleared before the access, so it never
    traps.  Aligned loads trap in the simulator when misaligned, exactly so
    that coalescer safety bugs surface loudly.
    """

    __slots__ = ("dst", "base", "disp", "width", "signed", "unaligned")
    register_slots = ("base",)

    def __init__(
        self,
        dst: Reg,
        base: Reg,
        disp: int,
        width: int,
        signed: bool = True,
        unaligned: bool = False,
    ):
        super().__init__()
        self.dst = _check_reg(dst, "Load.dst")
        self.base = _check_reg(base, "Load.base")
        if not isinstance(disp, int):
            raise IRError(f"Load.disp must be int, got {disp!r}")
        self.disp = disp
        self.width = _check_width(width)
        self.signed = bool(signed)
        self.unaligned = bool(unaligned)

    def uses(self) -> List[Reg]:
        return [self.base]

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "Load":
        return Load(
            self.dst, self.base, self.disp, self.width, self.signed,
            self.unaligned,
        )

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.base = _subst_reg(self.base, mapping, "Load.base")

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class Store(Instr):
    """``M[base + disp] = src`` of ``width`` bytes (low bytes of ``src``).

    ``unaligned`` marks an Alpha-style ``stq_u``: the effective address has
    its low ``log2(width)`` bits cleared before the access.  It appears only
    in lowered code (read-modify-write narrow stores on the Alpha).
    """

    __slots__ = ("base", "disp", "src", "width", "unaligned")
    register_slots = ("base",)

    def __init__(
        self,
        base: Reg,
        disp: int,
        src: Operand,
        width: int,
        unaligned: bool = False,
    ):
        super().__init__()
        self.base = _check_reg(base, "Store.base")
        if not isinstance(disp, int):
            raise IRError(f"Store.disp must be int, got {disp!r}")
        self.disp = disp
        self.src = _check_operand(src, "Store.src")
        self.width = _check_width(width)
        self.unaligned = bool(unaligned)

    def uses(self) -> List[Reg]:
        regs = [self.base]
        if isinstance(self.src, Reg):
            regs.append(self.src)
        return regs

    def defs(self) -> List[Reg]:
        return []

    def clone(self) -> "Store":
        return Store(
            self.base, self.disp, self.src, self.width, self.unaligned
        )

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.base = _subst_reg(self.base, mapping, "Store.base")
        self.src = _subst(self.src, mapping)


class Extract(Instr):
    """``dst = field(src, pos, width)`` — read a byte field out of a word.

    ``pos`` gives the *byte address* whose low ``log2(wordbytes)`` bits
    select the field position inside the word, exactly like the Alpha
    ``EXTxx`` instructions use the low three bits of their shift operand.
    On a little-endian machine byte offset ``k`` is bits ``8k .. 8k+8w-1``;
    on a big-endian machine it counts from the most significant byte.  The
    result is sign- or zero-extended to a full word per ``signed``.
    """

    __slots__ = ("dst", "src", "pos", "width", "signed")
    register_slots = ("src",)

    def __init__(
        self, dst: Reg, src: Reg, pos: Operand, width: int, signed: bool
    ):
        super().__init__()
        self.dst = _check_reg(dst, "Extract.dst")
        self.src = _check_reg(src, "Extract.src")
        self.pos = _check_operand(pos, "Extract.pos")
        self.width = _check_width(width)
        self.signed = bool(signed)

    def uses(self) -> List[Reg]:
        regs = [self.src]
        if isinstance(self.pos, Reg):
            regs.append(self.pos)
        return regs

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "Extract":
        return Extract(self.dst, self.src, self.pos, self.width, self.signed)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.src = _subst_reg(self.src, mapping, "Extract.src")
        self.pos = _subst(self.pos, mapping)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class Insert(Instr):
    """``dst = acc with field(pos, width) := low bytes of src``.

    The dual of :class:`Extract`; models the Alpha ``INSxx``/``MSKxx``
    pair as a single RTL.  Machines without such an instruction (the
    Motorola 88100 and 68030 in the paper) have this expanded by the
    lowering pass into shift/mask/or sequences, which is precisely why
    store coalescing loses on those machines.
    """

    __slots__ = ("dst", "acc", "src", "pos", "width")

    def __init__(
        self, dst: Reg, acc: Operand, src: Operand, pos: Operand, width: int
    ):
        super().__init__()
        self.dst = _check_reg(dst, "Insert.dst")
        self.acc = _check_operand(acc, "Insert.acc")
        self.src = _check_operand(src, "Insert.src")
        self.pos = _check_operand(pos, "Insert.pos")
        self.width = _check_width(width)

    def uses(self) -> List[Reg]:
        return [
            x for x in (self.acc, self.src, self.pos) if isinstance(x, Reg)
        ]

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "Insert":
        return Insert(self.dst, self.acc, self.src, self.pos, self.width)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.acc = _subst(self.acc, mapping)
        self.src = _subst(self.src, mapping)
        self.pos = _subst(self.pos, mapping)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class FrameAddr(Instr):
    """``dst = &frame_slot`` — address of a stack slot of the function."""

    __slots__ = ("dst", "slot")

    def __init__(self, dst: Reg, slot: str):
        super().__init__()
        self.dst = _check_reg(dst, "FrameAddr.dst")
        self.slot = slot

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "FrameAddr":
        return FrameAddr(self.dst, self.slot)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class GlobalAddr(Instr):
    """``dst = &global`` — address of a module-level variable."""

    __slots__ = ("dst", "name")

    def __init__(self, dst: Reg, name: str):
        super().__init__()
        self.dst = _check_reg(dst, "GlobalAddr.dst")
        self.name = name

    def defs(self) -> List[Reg]:
        return [self.dst]

    def clone(self) -> "GlobalAddr":
        return GlobalAddr(self.dst, self.name)

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        self.dst = mapping.get(self.dst, self.dst)


class Call(Instr):
    """``dst = func(args...)`` with an abstract calling convention.

    Coalescing is an intra-procedural loop optimization, so a precise ABI
    adds nothing; arguments travel as a list of operands and the callee's
    return value lands directly in ``dst`` (or is dropped when ``dst`` is
    ``None``).
    """

    __slots__ = ("dst", "func", "args")

    def __init__(self, dst: Optional[Reg], func: str, args: Iterable[Operand]):
        super().__init__()
        if dst is not None:
            _check_reg(dst, "Call.dst")
        self.dst = dst
        self.func = func
        self.args = [_check_operand(a, "Call arg") for a in args]

    def uses(self) -> List[Reg]:
        return [a for a in self.args if isinstance(a, Reg)]

    def defs(self) -> List[Reg]:
        return [self.dst] if self.dst is not None else []

    def clone(self) -> "Call":
        return Call(self.dst, self.func, list(self.args))

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.args = [_subst(a, mapping) for a in self.args]

    def substitute_defs(self, mapping: Dict[Reg, Reg]) -> None:
        if self.dst is not None:
            self.dst = mapping.get(self.dst, self.dst)


class Jump(Instr):
    """Unconditional jump to a block label."""

    __slots__ = ("target",)
    is_terminator = True

    def __init__(self, target: str):
        super().__init__()
        self.target = target

    def clone(self) -> "Jump":
        return Jump(self.target)


class CondJump(Instr):
    """``if a <rel> b goto iftrue else goto iffalse``.

    Both arms are explicit; there is no fall-through in this IR, which lets
    passes reorder blocks freely.  Code layout (and its cost) is a concern
    of the block-cost model, not of the IR.
    """

    __slots__ = ("rel", "a", "b", "iftrue", "iffalse")
    is_terminator = True

    def __init__(
        self, rel: str, a: Operand, b: Operand, iftrue: str, iffalse: str
    ):
        super().__init__()
        if rel not in RELATIONS:
            raise IRError(f"unknown relation {rel!r}")
        self.rel = rel
        self.a = _check_operand(a, "CondJump.a")
        self.b = _check_operand(b, "CondJump.b")
        self.iftrue = iftrue
        self.iffalse = iffalse

    def uses(self) -> List[Reg]:
        a, b = self.a, self.b
        if isinstance(a, Reg):
            return [a, b] if isinstance(b, Reg) else [a]
        return [b] if isinstance(b, Reg) else []

    def clone(self) -> "CondJump":
        return CondJump(self.rel, self.a, self.b, self.iftrue, self.iffalse)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        self.a = _subst(self.a, mapping)
        self.b = _subst(self.b, mapping)


class Ret(Instr):
    """Return from the function, optionally with a value."""

    __slots__ = ("value",)
    is_terminator = True

    def __init__(self, value: Optional[Operand] = None):
        super().__init__()
        if value is not None:
            _check_operand(value, "Ret.value")
        self.value = value

    def uses(self) -> List[Reg]:
        return [self.value] if isinstance(self.value, Reg) else []

    def clone(self) -> "Ret":
        return Ret(self.value)

    def substitute_uses(self, mapping: Dict[Reg, Operand]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)
