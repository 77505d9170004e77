"""Basic blocks, functions, globals and modules.

A :class:`Function` owns its blocks in layout order; the first block is the
entry.  Control-flow successors are derived from each block's terminator,
so there is no separate edge structure to keep in sync — analyses that need
predecessors build them on demand (see :mod:`repro.analysis.cfgutil`), once
per CFG shape (:meth:`Function.cfg_fact`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.rtl import CondJump, Instr, Jump, Reg, Ret


class BasicBlock:
    """A labelled straight-line sequence of instructions.

    The final instruction must be a terminator (:class:`Jump`,
    :class:`CondJump` or :class:`Ret`); the verifier enforces this.
    """

    __slots__ = ("label", "instrs")

    def __init__(self, label: str, instrs: Optional[List[Instr]] = None):
        self.label = label
        self.instrs: List[Instr] = list(instrs) if instrs else []

    @property
    def terminator(self) -> Instr:
        if not self.instrs:
            raise IRError(f"block {self.label} is empty")
        term = self.instrs[-1]
        if not term.is_terminator:
            raise IRError(f"block {self.label} lacks a terminator")
        return term

    @property
    def body(self) -> List[Instr]:
        """All instructions except the terminator (if present)."""
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[:-1]
        return list(self.instrs)

    def successors(self) -> List[str]:
        """Labels this block can transfer control to."""
        term = self.instrs[-1] if self.instrs else None
        if isinstance(term, Jump):
            return [term.target]
        if isinstance(term, CondJump):
            if term.iftrue == term.iffalse:
                return [term.iftrue]
            return [term.iftrue, term.iffalse]
        self.terminator  # IRError for an empty or unterminated block
        return []  # Ret

    def retarget(self, old: str, new: str) -> None:
        """Replace every successor edge ``old`` with ``new``."""
        term = self.terminator
        if isinstance(term, Jump):
            if term.target == old:
                term.target = new
        elif isinstance(term, CondJump):
            if term.iftrue == old:
                term.iftrue = new
            if term.iffalse == old:
                term.iffalse = new

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label}: {len(self.instrs)} instrs>"


class Function:
    """A compiled function: parameters, frame slots, and basic blocks."""

    def __init__(self, name: str, params: Optional[List[Reg]] = None):
        self.name = name
        self.params: List[Reg] = list(params) if params else []
        self.blocks: List[BasicBlock] = []
        # Frame slots: name -> (size_bytes, align_bytes).  Used for local
        # arrays and address-taken locals.
        self.frame_slots: Dict[str, Tuple[int, int]] = {}
        self._next_reg = max((p.index for p in self.params), default=-1) + 1
        self._next_label = 0
        # (shape, {fact name: value}) of the last shape asked about.
        self._cfg_memo: Optional[Tuple[list, Dict[str, object]]] = None

    def __getstate__(self) -> dict:
        # Copies and pickles start without the memo: it is a cache.
        return dict(self.__dict__, _cfg_memo=None)

    # -- construction --------------------------------------------------------
    def new_reg(self, name: str = "") -> Reg:
        reg = Reg(self._next_reg, name)
        self._next_reg += 1
        return reg

    def reserve_reg_index(self, index: int) -> None:
        """Ensure future :meth:`new_reg` calls return indices above ``index``."""
        if index >= self._next_reg:
            self._next_reg = index + 1

    def new_label(self, hint: str = "L") -> str:
        label = f"{hint}{self._next_label}"
        self._next_label += 1
        while any(b.label == label for b in self.blocks):
            label = f"{hint}{self._next_label}"
            self._next_label += 1
        return label

    def add_block(
        self, label: str, instrs: Optional[List[Instr]] = None,
        after: Optional[str] = None,
    ) -> BasicBlock:
        if any(b.label == label for b in self.blocks):
            raise IRError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label, instrs)
        if after is None:
            self.blocks.append(block)
        else:
            index = self.block_index(after) + 1
            self.blocks.insert(index, block)
        return block

    def add_frame_slot(self, name: str, size: int, align: int = 8) -> str:
        """Register a stack slot; returns the (possibly uniquified) name."""
        base = name
        counter = 1
        while name in self.frame_slots:
            name = f"{base}.{counter}"
            counter += 1
        self.frame_slots[name] = (size, align)
        return name

    # -- lookup ---------------------------------------------------------------
    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise IRError(f"no block {label!r} in function {self.name}")

    def has_block(self, label: str) -> bool:
        return any(b.label == label for b in self.blocks)

    def block_index(self, label: str) -> int:
        for i, b in enumerate(self.blocks):
            if b.label == label:
                return i
        raise IRError(f"no block {label!r} in function {self.name}")

    def remove_block(self, label: str) -> None:
        self.blocks.pop(self.block_index(label))

    def iter_instrs(self) -> Iterator[Instr]:
        for block in self.blocks:
            yield from block.instrs

    def cfg_fact(self, name: str, build: Callable[["Function"], object]):
        """``build(self)``, computed once per CFG shape and then shared
        (so immutable): the shape is every block's label in layout order
        with its terminator's targets in order, all that CFG facts read.
        A block without a terminator enters it as a mark, so only a fact
        that reads the block raises.  Only the last shape is kept."""
        shape = []
        for block in self.blocks:
            term = block.instrs[-1] if block.instrs else None
            if isinstance(term, Jump):
                shape.append((block.label, term.target))
            elif isinstance(term, CondJump):
                shape.append((block.label, term.iftrue, term.iffalse))
            else:
                shape.append((block.label, isinstance(term, Ret)))
        memo = self._cfg_memo
        if memo is None or memo[0] != shape:
            memo = self._cfg_memo = (shape, {})
        facts = memo[1]
        if name not in facts:
            facts[name] = build(self)
        return facts[name]

    def forget_cfg_facts(self) -> None:
        """Drop the memoized CFG facts (they are rebuilt on demand)."""
        self._cfg_memo = None

    def max_reg_index(self) -> int:
        highest = max((p.index for p in self.params), default=-1)
        for block in self.blocks:
            for instr in block.instrs:
                for reg in instr.uses():
                    if reg.index > highest:
                        highest = reg.index
                for reg in instr.defs():
                    if reg.index > highest:
                        highest = reg.index
        return highest

    def __repr__(self) -> str:
        return f"<Function {self.name}: {len(self.blocks)} blocks>"


class GlobalVar:
    """A module-level variable.

    ``init`` is optional initial contents (bytes); uninitialized globals are
    zero-filled by the simulator, like BSS.
    """

    __slots__ = ("name", "size", "align", "init")

    def __init__(
        self, name: str, size: int, align: int = 8,
        init: Optional[bytes] = None,
    ):
        if size <= 0:
            raise IRError(f"global {name!r} must have positive size")
        if init is not None and len(init) > size:
            raise IRError(f"initializer for {name!r} larger than the var")
        self.name = name
        self.size = size
        self.align = align
        self.init = init

    def __repr__(self) -> str:
        return f"<GlobalVar {self.name}[{self.size}] align={self.align}>"


class Module:
    """A translation unit: functions plus globals."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise IRError(f"duplicate function {func.name!r}")
        self.functions[func.name] = func
        return func

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise IRError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function {name!r} in module") from None

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )


def clone_blocks(
    func: Function,
    labels: Iterable[str],
    label_map: Dict[str, str],
) -> List[BasicBlock]:
    """Deep-copy the blocks named in ``labels``.

    ``label_map`` maps old labels to the labels the copies should use;
    successor edges *within the copied set* are retargeted to the copies,
    edges that leave the set are preserved.  The copied blocks are returned
    but NOT added to the function; callers decide placement.
    """
    copies: List[BasicBlock] = []
    for label in labels:
        source = func.block(label)
        copy = BasicBlock(label_map[label], [i.clone() for i in source.instrs])
        copies.append(copy)
    for copy in copies:
        term = copy.terminator
        if isinstance(term, Jump):
            term.target = label_map.get(term.target, term.target)
        elif isinstance(term, CondJump):
            term.iftrue = label_map.get(term.iftrue, term.iftrue)
            term.iffalse = label_map.get(term.iffalse, term.iffalse)
    return copies
