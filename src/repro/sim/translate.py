"""RTL-to-Python translation: the simulator's ``compiled`` backend.

The simulator has two engines: the reference interpreter
(:class:`repro.sim.interp.Interpreter`, the ``interp`` backend), which
dispatches instruction objects, and :class:`CompiledEngine` here (the
``compiled`` backend), which instead *compiles* RTL into specialized
Python and lets CPython execute it.  Semantics are identical by
construction of the generated expressions — and by the differential
tests (and the CI ``sim-differential`` matrix) that run both engines
over the same programs.

:class:`CompiledEngine` lowers each *basic block* once into a
straight-line closure with operand accessors resolved and memory/cache
accounting inlined at translate time, caches the compiled closure by
structural key in :class:`repro.sim.cache.BlockCache`, and dispatches
block-to-block with a direct-threaded loop: each closure returns its
successor's closure, so the driver never consults a label table.

First entry: building an engine registers every block (its counter,
static mix and I-cache lines) and every closure, whose record stands in
for it until then.  A closure is keyed, fetched from the cache (or, on
a miss, emitted and compiled) and bound only when control first enters
it (or :meth:`CompiledEngine.block_source` asks for it), and is then
rebound wherever its stand-in was referenced, so loop versions, checks
and epilogues a run never enters cost nothing.  What registration and
keying derive from the module (mixes, line counts, loop chains,
register counts, closure keys) is kept in the
:class:`~repro.sim.facts.ModuleFacts` the engine is built on, so every
engine of one compiled program after the first derives none of it; a
closure is still keyed only once some engine enters it.

Structural key: a closure's :class:`~repro.sim.cache.BlockCache` key is
built from exactly what :class:`_BlockTranslator` reads (see
:meth:`CompiledEngine._closure_key`), so equal keys emit equal source
and a hit binds the cached code without emitting anything.

Loop chains: a loop header H that reaches itself through
H -> B1 -> ... -> Bk -> H, where every Bi's only predecessor is B(i-1)
and no block has an embedded jump or a call, compiles into *one*
closure whose ``while True`` keeps registers, block counts and the step
count in Python locals across iterations (:func:`loop_chains`; a
self-loop is the chain ``[H]``), written back at every exit.  Every
block of the chain still runs its own cancel probe and step guard
inline; only side exits spill registers and return to the driver.

Memory is one ``bytearray``.  Host-endian 2/4/8-byte accesses index a
word-sized ``memoryview`` cast; the others go through a
``struct.Struct`` bound in the closure's namespace.  Dynamic byte-field
positions (``Extract``/``Insert`` with a register ``pos``) compute their
shift inline; only a straddling field calls back into the interpreter's
:func:`~repro.sim.interp.field_parameters` to raise its error.

Dynamic counts: the generated code only increments a per-block execution
counter (plus cache probes when cache simulation is on); instruction,
load, store and call totals are recovered afterwards from the static
per-block mix, which is exact because block composition is static.

Signedness without branches: for a word ``v`` stored unsigned,
``(v ^ SIGN) - SIGN`` is its two's-complement value — used for signed
compares, arithmetic shifts and extensions.
"""

from __future__ import annotations

import struct
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.errors import AlignmentTrap, SimulationError, SimulationTimeout
from repro.ir.function import Function, Module
from repro.ir.rtl import (
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
from repro.machine.machine import MachineDescription
from repro.sim.cache import BlockCache, CellCountedCache, shared_block_cache
from repro.sim.facts import ModuleFacts
from repro.sim.interp import RunStats, field_parameters
from repro.sim.memory import GUARD_BYTES, SimMemory
from repro.timing import span

_SIGNED_RELS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_UNSIGNED_RELS = {
    "eq": "==", "ne": "!=", "ltu": "<", "leu": "<=", "gtu": ">",
    "geu": ">=",
}


def _runtime_helpers(machine: MachineDescription) -> Dict[str, object]:
    """Shared runtime bindings for generated code: division with machine
    semantics, trap/fault raisers, field-shift computation."""
    bits = machine.word_bits
    mask = machine.word_mask

    def _sdiv_base(a: int, b: int, want_rem: bool) -> int:
        sign = 1 << (bits - 1)
        sa = (a ^ sign) - sign
        sb = (b ^ sign) - sign
        if sb == 0:
            raise SimulationError("integer division by zero")
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        if want_rem:
            return (sa - quotient * sb) & mask
        return quotient & mask

    def _udiv_base(a: int, b: int, want_rem: bool) -> int:
        if b == 0:
            raise SimulationError("integer division by zero")
        return (a % b if want_rem else a // b) & mask

    def _fault(addr: int):
        raise SimulationError(f"bad address {addr:#x}")

    def _fieldshift(pos: int, width: int) -> int:
        """Straddling-field slow path: raises the interpreter's error."""
        shift, _ = field_parameters(machine, pos, width)
        return shift

    def _fell(func_name: str, label: str):
        raise SimulationError(
            f"block {func_name}/{label} fell off the end"
        )

    def _mg(addr: int, width: int):
        """Memory-guard slow path: the generated code folds alignment
        and bounds into one conditional; this re-distinguishes them in
        the interpreter's order (alignment trap first)."""
        if addr % width:
            raise AlignmentTrap(addr, width)
        raise SimulationError(f"bad address {addr:#x}")

    return {
        "_mg": _mg,
        "_div": lambda a, b: _sdiv_base(a, b, False),
        "_rem": lambda a, b: _sdiv_base(a, b, True),
        "_divu": lambda a, b: _udiv_base(a, b, False),
        "_remu": lambda a, b: _udiv_base(a, b, True),
        "_fault": _fault,
        "_fieldshift": _fieldshift,
        "_fell": _fell,
        "_Timeout": SimulationTimeout,
    }


def _static_block_mix(block) -> Tuple[int, int, int, int]:
    """(instructions, loads, stores, calls) — the static composition used
    to reconstruct dynamic totals from per-block execution counts."""
    loads = stores = calls = 0
    for instr in block.instrs:
        kind = type(instr)
        if kind is Load:
            loads += 1
        elif kind is Store:
            stores += 1
        elif kind is Call:
            calls += 1
    return (len(block.instrs), loads, stores, calls)


def _derive_stats(keys, counts, mixes) -> RunStats:
    stats = RunStats()
    for key, count, mix in zip(keys, counts, mixes):
        if count:
            stats.block_counts[key] = count
            stats.instr_count += count * mix[0]
            stats.load_count += count * mix[1]
            stats.store_count += count * mix[2]
            stats.call_count += count * mix[3]
    return stats


#: BinOp/UnOp operations whose emitted expression masks to, shifts
#: within or sign-extends over the machine word.
_WORD_OPS = frozenset({
    "add", "sub", "mul", "shl", "shrl", "shra",
    "neg", "not", "sext1", "sext2", "sext4",
})


class _KeyBuilder:
    """Builds one closure's BlockCache key from exactly what
    :class:`_BlockTranslator` reads (see
    :meth:`CompiledEngine._closure_key`).

    Per instruction: its class and fields, with registers by index,
    constants by their word-masked value (the text the translator
    emits; complemented, so never equal to a register index), branch
    targets and global names by their number in
    :attr:`labels`/:attr:`names` (numbered on first reference, the
    members' own labels first), frame slots by index and call targets by
    name.  A memory access also records whether its width has a
    memoryview.  The machine's word size, its endianness and the D-cache
    geometry enter the key only if some instruction's emission reads
    them (:attr:`word`, :attr:`endian`, :attr:`memory`), so a closure
    whose source is the same on every machine keys the same too."""

    def __init__(self, engine: "CompiledEngine", func: Function,
                 members: List):
        self.mask = engine.machine.word_mask
        self.word_bytes = engine.machine.word_bytes
        self.mviews = engine._mviews
        self.func = func
        self.labels = {member.label: j for j, member in enumerate(members)}
        self.names: Dict[str, int] = {}
        self.word = self.endian = self.memory = False

    def operand(self, op: Operand) -> int:
        """A register as its index, a constant as the complement of its
        word-masked value (negative, so never a register index)."""
        return op.index if type(op) is Reg else ~(op.value & self.mask)

    def label(self, label: str) -> int:
        labels = self.labels
        return labels.setdefault(label, len(labels))

    def instr(self, instr) -> tuple:
        operand = self.operand
        kind = type(instr)
        if kind is BinOp:
            self.word |= instr.op in _WORD_OPS
            return (kind, instr.op, instr.dst.index, operand(instr.a),
                    operand(instr.b))
        if kind is Load:
            width = instr.width
            narrow_signed = instr.signed and width < self.word_bytes
            self.word |= instr.unaligned or instr.disp != 0 or narrow_signed
            self.memory = True
            return (kind, instr.dst.index, instr.base.index, instr.disp,
                    width, narrow_signed, instr.unaligned,
                    width in self.mviews)
        if kind is Mov:
            return (kind, instr.dst.index, operand(instr.src))
        if kind is Store:
            width = instr.width
            self.word |= instr.unaligned or instr.disp != 0
            self.memory = True
            return (kind, instr.base.index, instr.disp, operand(instr.src),
                    width, width == self.word_bytes, instr.unaligned,
                    width in self.mviews)
        if kind is CondJump:
            self.word |= instr.rel in _SIGNED_RELS
            return (kind, instr.rel, operand(instr.a), operand(instr.b),
                    self.label(instr.iftrue), self.label(instr.iffalse))
        if kind is Jump:
            return (kind, self.label(instr.target))
        if kind is Extract:
            self.word = self.endian = True
            return (kind, instr.dst.index, instr.src.index,
                    operand(instr.pos), instr.width, instr.signed)
        if kind is Insert:
            self.word = self.endian = True
            return (kind, instr.dst.index, operand(instr.acc),
                    operand(instr.src), operand(instr.pos), instr.width)
        if kind is UnOp:
            self.word |= instr.op in _WORD_OPS
            return (kind, instr.op, instr.dst.index, operand(instr.a))
        if kind is Ret:
            value = instr.value
            return (kind, None if value is None else operand(value))
        if kind is GlobalAddr:
            names = self.names
            return (kind, instr.dst.index,
                    names.setdefault(instr.name, len(names)))
        if kind is FrameAddr:
            slots = {slot: i for i, slot in enumerate(self.func.frame_slots)}
            return (kind, instr.dst.index, slots.get(instr.slot, instr.slot))
        if kind is Call:
            self.word |= instr.dst is not None
            return (kind, None if instr.dst is None else instr.dst.index,
                    instr.func, tuple(operand(a) for a in instr.args))
        raise SimulationError(f"cannot translate {kind.__name__}")


def loop_chains(func: Function) -> Dict[str, List]:
    """The loop chains of ``func``: header label -> ``[H, B1, ..., Bk]``.

    A chain is a header H that reaches itself through
    H -> B1 -> ... -> Bk -> H, where each Bi's only predecessor is
    B(i-1), and every block ends in a jump and has no embedded jump and
    no call; a self-loop is the chain ``[H]``.  Where several such paths
    exist, the longest is taken (on a tie, the one a depth-first walk in
    branch-target order meets first).  The entry block counts the
    driver's call as a predecessor, so it is never an interior block.

    Single-predecessor edges form a forest whose roots are the blocks
    with any other predecessor count, so one walk down each candidate
    header's tree visits every block at most once: detection is one
    scan of the instructions plus a linear walk, with no dominator or
    loop analysis.
    """
    blocks = {block.label: block for block in func.blocks}
    preds = dict.fromkeys(blocks, 0)
    preds[func.entry.label] += 1  # the driver's call
    succs: Dict[str, List[str]] = {}
    chainable = set()
    for block in func.blocks:
        targets = []
        jumps = calls = 0
        for instr in block.instrs:
            kind = type(instr)
            if kind is Jump:
                jumps += 1
                targets.append(instr.target)
            elif kind is CondJump:
                jumps += 1
                targets += (instr.iftrue, instr.iffalse)
            elif kind is Call:
                calls += 1
        if jumps == 1 and not calls and type(block.instrs[-1]) in (
            Jump, CondJump
        ):
            chainable.add(block.label)
        succs[block.label] = list(dict.fromkeys(targets))
        for target in succs[block.label]:
            preds[target] += 1
    chains: Dict[str, List] = {}
    for block in func.blocks:
        header = block.label
        if preds[header] < 2 or header not in chainable:
            continue
        parent: Dict[str, Optional[str]] = {header: None}
        depth = {header: 0}
        last: Optional[str] = None  # deepest block that jumps to H
        stack = [header]
        while stack:
            label = stack.pop()
            if header in succs[label] and (
                last is None or depth[label] > depth[last]
            ):
                last = label
            for target in reversed(succs[label]):
                if preds[target] == 1 and target in chainable:
                    parent[target] = label
                    depth[target] = depth[label] + 1
                    stack.append(target)
        chain = []
        while last is not None:
            chain.append(blocks[last])
            last = parent[last]
        if chain:
            chains[header] = chain[::-1]
    return chains


class _Registration(NamedTuple):
    """What building a compiled engine registers, for every engine built
    on one :class:`~repro.sim.facts.ModuleFacts`: each block's static
    mix and I-cache line count, in the layout's block order, and per
    function its closures (head block, loop chain or None) and register
    count."""

    mixes: Tuple[Tuple[int, int, int, int], ...]
    line_counts: Tuple[int, ...]
    functions: Tuple[Tuple[Function, tuple, int], ...]


def _registration(facts: ModuleFacts) -> _Registration:
    """``facts``' registration, built on the first engine's ask."""
    registration = facts.registration
    if registration is not None:
        return registration
    mixes, line_counts, functions = [], [], []
    lines = facts.lines
    for func in facts.module:
        for block in func.blocks:
            mixes.append(_static_block_mix(block))
            line_counts.append(len(lines[func.name, block.label]))
        chains = loop_chains(func)
        interior = {
            block.label for chain in chains.values() for block in chain[1:]
        }
        closures = tuple(
            (block, chains.get(block.label)) for block in func.blocks
            if block.label not in interior  # runs inside its chain's closure
        )
        functions.append((func, closures, facts.frame(func.name)[0]))
    registration = facts.registration = _Registration(
        tuple(mixes), tuple(line_counts), tuple(functions)
    )
    return registration


class _BlockTranslator:
    """Emits one closure: a basic block, or a whole loop chain.

    The closure's signature is ``_blk(_r, _slots)``: ``_r`` is the
    activation's register file (a list), ``_slots`` the tuple of frame
    slot addresses.  A plain block pulls the registers it reads before
    writing into Python locals once on entry and writes the registers it
    defines back to ``_r`` once before handing off to a successor (a
    mid-block ``Ret`` skips the write-back — the activation is dead).
    The closure returns either the successor block's closure (direct
    threading) or a 1-tuple carrying the function's return value, which
    the driver distinguishes with a single ``type(x) is tuple`` check.

    A loop chain (``loop=True``, ``blocks`` from :func:`loop_chains`)
    runs its blocks in order inside one ``while True``.  It fills every
    register the chain mentions on entry — including each one it only
    defines, so a side exit taken before a block's definitions ran
    spills back the value the register file already held — and a side
    exit breaks out of the loop to one spill of every register it
    defines.  Its block counts
    (``_c{j}``) and step count (``_st``) are locals too, added back to
    the counter cells and ``_steps`` in a ``finally`` that every exit
    runs: a side exit, a fault, a timeout or a cancel.

    Everything that varies between instantiations of the same source —
    block ``j``'s execution-counter cell ``_n{j}``, label ``_BL{j}`` and
    I-cache lines ``_ln{j}_{i}``/``_li{j}_{i}``, global addresses
    ``_gN``, successor closures ``_sN``, the function name ``_FN`` — is
    bound through the exec namespace, so the emitted source is shared
    by every structurally identical closure.  What the emission does
    read is what :meth:`CompiledEngine._closure_key` puts in the
    :class:`~repro.sim.cache.BlockCache` key.
    """

    def __init__(self, blocks, func: Function, engine: "CompiledEngine",
                 loop: bool):
        self.func = func
        self.engine = engine
        self.machine = engine.machine
        self.lines: List[str] = []
        self.bits = self.machine.word_bits
        self.mask = self.machine.word_mask
        self.sign = 1 << (self.bits - 1)
        self.blocks = blocks
        self.loop = loop
        self.slot_index = {
            slot: i for i, slot in enumerate(func.frame_slots)
        }
        #: namespace var -> successor label, for post-compile patching
        self.successors: Dict[str, str] = {}
        self._succ_vars: Dict[str, str] = {}
        #: namespace var -> global name, resolved to addresses at bind time
        self.globals_used: Dict[str, str] = {}
        self._global_vars: Dict[str, str] = {}
        self._defined: List[int] = []

    # -- small emit helpers ---------------------------------------------------
    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def _reg(self, reg: Reg) -> str:
        return f"r{reg.index}"

    def _value(self, op: Operand) -> str:
        if isinstance(op, Reg):
            return self._reg(op)
        return str(op.value & self.mask)

    def _signed(self, expression: str) -> str:
        return f"(({expression} ^ {self.sign}) - {self.sign})"

    # -- instruction translation -------------------------------------------------
    def _binop(self, instr: BinOp) -> str:
        dst = self._reg(instr.dst)
        a = self._value(instr.a)
        b = self._value(instr.b)
        op = instr.op
        mask = self.mask
        if op in ("add", "sub", "mul"):
            sign = {"add": "+", "sub": "-", "mul": "*"}[op]
            return f"{dst} = ({a} {sign} {b}) & {mask}"
        if op in ("and", "or", "xor"):
            sign = {"and": "&", "or": "|", "xor": "^"}[op]
            return f"{dst} = {a} {sign} {b}"
        if op == "shl":
            return f"{dst} = ({a} << ({b} & {self.bits - 1})) & {mask}"
        if op == "shrl":
            return f"{dst} = {a} >> ({b} & {self.bits - 1})"
        if op == "shra":
            return (
                f"{dst} = ({self._signed(a)} >> ({b} & {self.bits - 1}))"
                f" & {mask}"
            )
        if op in ("div", "rem", "divu", "remu"):
            return f"{dst} = _{op}({a}, {b})"
        raise SimulationError(f"cannot translate op {op!r}")

    def _unop(self, instr: UnOp) -> str:
        dst = self._reg(instr.dst)
        a = self._value(instr.a)
        if instr.op == "neg":
            return f"{dst} = (-{a}) & {self.mask}"
        if instr.op == "not":
            return f"{dst} = (~{a}) & {self.mask}"
        width = int(instr.op[4:])
        low_mask = (1 << (8 * width)) - 1
        if instr.op[0] == "z":
            return f"{dst} = {a} & {low_mask}"
        field_sign = 1 << (8 * width - 1)
        return (
            f"{dst} = ((({a} & {low_mask}) ^ {field_sign}) - {field_sign})"
            f" & {self.mask}"
        )

    def _address(self, base: Reg, disp: int) -> str:
        if disp:
            return f"(({self._reg(base)} + {disp}) & {self.mask})"
        return self._reg(base)

    def _field_shift(self, depth: int, pos: str, width: int) -> str:
        """Emit the straddle check of a dynamic field position; returns
        the shift expression (``field_parameters`` inlined).  Widths and
        word sizes are powers of two, so ``(pos % word) % width`` is
        ``pos & straddle``; a straddling field calls ``_fieldshift``,
        which raises the interpreter's own error."""
        word = self.machine.word_bytes
        straddle = (word - 1) & (width - 1)
        if straddle:
            self.emit(
                depth, f"if {pos} & {straddle}: _fieldshift({pos}, {width})"
            )
        if self.machine.endian == "little":
            return f"(({pos} & {word - 1}) << 3)"
        return f"(({word - width} - ({pos} & {word - 1})) << 3)"

    def _extract(self, depth: int, instr: Extract) -> None:
        dst = self._reg(instr.dst)
        src = self._reg(instr.src)
        field_mask = (1 << (8 * instr.width)) - 1
        if isinstance(instr.pos, Const):
            shift, _ = field_parameters(
                self.machine, instr.pos.value, instr.width
            )
            if shift:
                expression = f"({src} >> {shift}) & {field_mask}"
            else:
                expression = f"{src} & {field_mask}"
        else:
            shift = self._field_shift(
                depth, self._value(instr.pos), instr.width
            )
            expression = f"({src} >> {shift}) & {field_mask}"
        if instr.signed:
            field_sign = 1 << (8 * instr.width - 1)
            self.emit(
                depth,
                f"{dst} = ((({expression}) ^ {field_sign}) - {field_sign})"
                f" & {self.mask}",
            )
        else:
            self.emit(depth, f"{dst} = {expression}")

    def _insert(self, depth: int, instr: Insert) -> None:
        dst = self._reg(instr.dst)
        acc = self._value(instr.acc)
        src = self._value(instr.src)
        field_mask = (1 << (8 * instr.width)) - 1
        if isinstance(instr.pos, Const):
            shift, _ = field_parameters(
                self.machine, instr.pos.value, instr.width
            )
            hole = ~(field_mask << shift) & self.mask
            field = f"({src} & {field_mask})"
            if shift:
                field = f"({field} << {shift})"
            if acc == "0":
                # Inserting into a zero accumulator: the hole term is
                # identically zero and folds away.
                self.emit(depth, f"{dst} = {field}")
            else:
                self.emit(depth, f"{dst} = ({acc} & {hole}) | {field}")
        else:
            shift = self._field_shift(
                depth, self._value(instr.pos), instr.width
            )
            self.emit(depth, f"_sh = {shift}")
            self.emit(
                depth,
                f"{dst} = ({acc} & ~({field_mask} << _sh) & {self.mask})"
                f" | (({src} & {field_mask}) << _sh)",
            )

    def _condition(self, instr: CondJump) -> str:
        a = self._value(instr.a)
        b = self._value(instr.b)
        if instr.rel in _UNSIGNED_RELS:
            return f"{a} {_UNSIGNED_RELS[instr.rel]} {b}"
        return (
            f"{self._signed(a)} {_SIGNED_RELS[instr.rel]} "
            f"{self._signed(b)}"
        )

    def _succ(self, label: str) -> str:
        var = self._succ_vars.get(label)
        if var is None:
            var = f"_s{len(self._succ_vars)}"
            self._succ_vars[label] = var
            self.successors[var] = label
        return var

    def _global(self, name: str) -> str:
        var = self._global_vars.get(name)
        if var is None:
            var = f"_g{len(self._global_vars)}"
            self._global_vars[name] = var
            self.globals_used[var] = name
        return var

    def _fill_registers(self) -> List[int]:
        """Registers to fill from ``_r`` on entry; also records the set
        written (spilled at every exit).  A plain block fills what it
        reads before writing; a loop chain also fills everything it
        writes, which makes it fill every register it mentions."""
        written: set = set()
        fill: set = set()
        for block in self.blocks:
            for instr in block.instrs:
                for reg in instr.uses():
                    if reg.index not in written:
                        fill.add(reg.index)
                for reg in instr.defs():
                    written.add(reg.index)
        self._defined = sorted(written)
        if self.loop:
            fill |= written
        return sorted(fill)

    def _emit_spill(self, depth: int) -> None:
        spill = [f"_r[{i}] = r{i}" for i in self._defined]
        for start in range(0, len(spill), 8):
            self.emit(depth, "; ".join(spill[start:start + 8]))

    def _addr_expr(self, depth: int, instr) -> str:
        """Emit (or inline) the effective-address computation; returns
        the expression that names the final, width-aligned address."""
        width = instr.width
        if instr.unaligned:
            base = self._address(instr.base, instr.disp)
            self.emit(
                depth, f"_a = {base} & {~(width - 1) & self.mask}"
            )
            return "_a"
        if instr.disp == 0:
            # A bare register is immutable for the rest of this
            # instruction's emission — reference it directly.
            return self._reg(instr.base)
        self.emit(depth, f"_a = {self._address(instr.base, instr.disp)}")
        return "_a"

    def _emit_guard_and_probe(self, depth: int, a: str, width: int,
                              unaligned: bool) -> None:
        """Alignment + bounds in one conditional (the slow path _mg
        re-raises in the interpreter's order), then the inlined D-cache
        tag probe.  By this point the address is width-aligned, so
        shifting by the line size reproduces access(addr & ~(width-1))
        exactly; hits are derived (probes - misses), so the hit path is
        the comparison alone."""
        # _mb{width} is MEMSIZE - width, precomputed in the namespace so
        # the upper-bound test is a single comparison.
        if unaligned or width == 1:
            self.emit(
                depth,
                f"if {a} < {GUARD_BYTES} or {a} > _mb{width}: "
                f"_fault({a})",
            )
        else:
            self.emit(
                depth,
                f"if {a} & {width - 1} or {a} < {GUARD_BYTES} or "
                f"{a} > _mb{width}: _mg({a}, {width})",
            )
        dcache = self.engine.dcache
        if dcache is not None:
            line_bytes = dcache.line_bytes
            lines = dcache.lines
            if line_bytes & (line_bytes - 1) == 0:
                line_expr = f"{a} >> {line_bytes.bit_length() - 1}"
            else:
                line_expr = f"{a} // {line_bytes}"
            if lines & (lines - 1) == 0:
                probe = f"(_lno := {line_expr}) & {lines - 1}"
                index = f"_lno & {lines - 1}"
            else:
                probe = f"(_lno := {line_expr}) % {lines}"
                index = f"_lno % {lines}"
            self.emit(
                depth,
                f"if _dt[{probe}] != _lno: "
                f"_dt[{index}] = _lno; _dm[0] += 1",
            )

    def _load(self, depth: int, instr: Load) -> None:
        a = self._addr_expr(depth, instr)
        self._emit_guard_and_probe(depth, a, instr.width, instr.unaligned)
        width = instr.width
        if width == 1:
            raw = f"_mem[{a}]"
        elif self.engine.mem_view(width) is not None:
            raw = f"_mv{width}[{a} >> {width.bit_length() - 1}]"
        else:
            raw = f"_u{width}(_mem, {a})[0]"
        dst = self._reg(instr.dst)
        if instr.signed and width < self.machine.word_bytes:
            field_sign = 1 << (8 * width - 1)
            self.emit(
                depth,
                f"{dst} = (({raw} ^ {field_sign}) - {field_sign}) & "
                f"{self.mask}",
            )
        else:
            self.emit(depth, f"{dst} = {raw}")

    def _store(self, depth: int, instr: Store) -> None:
        a = self._addr_expr(depth, instr)
        self._emit_guard_and_probe(depth, a, instr.width, instr.unaligned)
        width = instr.width
        width_mask = (1 << (8 * width)) - 1
        src = self._value(instr.src)
        # Register values are invariantly word-masked, so a full-word
        # store needs no truncation.
        if width == self.machine.word_bytes:
            value = f"({src})"
        else:
            value = f"({src}) & {width_mask}"
        if width == 1:
            self.emit(depth, f"_mem[{a}] = {value}")
        elif self.engine.mem_view(width) is not None:
            self.emit(
                depth,
                f"_mv{width}[{a} >> {width.bit_length() - 1}] = {value}",
            )
        else:
            self.emit(depth, f"_p{width}(_mem, {a}, {value})")

    def _line_count(self, j: int) -> int:
        return len(
            self.engine.block_lines(self.func.name, self.blocks[j].label)
        )

    def _emit_icache_probes(self, depth: int, j: int) -> None:
        """Inline direct-mapped I-cache probes of block ``j``: line
        number and tag index are per-block constants bound through the
        namespace; hits are derived (probes - misses), so a hit costs one
        comparison."""
        for i in range(self._line_count(j)):
            line, index = f"_ln{j}_{i}", f"_li{j}_{i}"
            self.emit(
                depth,
                f"if _it[{index}] != {line}: "
                f"_it[{index}] = {line}; _im[0] += 1",
            )

    def _emit_accounting(self, depth: int, j: int) -> None:
        """Block ``j``'s per-execution prologue, in the interpreter's
        exact order: block count, I-cache line probes, deadline probe,
        step guard.  (The interpreter's fault_hook slot is absent by
        construction — the runner falls back to the interpreter whenever
        a hook is installed.)"""
        engine = self.engine
        self.emit(depth, f"_n{j}[0] += 1")
        if engine.icache is not None:
            self._emit_icache_probes(depth, j)
        if engine.cancel is not None:
            self.emit(depth, "_cancel()")
        self.emit(depth, f"_steps[0] += {len(self.blocks[j].instrs)}")
        self.emit(
            depth,
            "if _steps[0] > _MAXSTEPS: "
            f"raise _Timeout(_steps[0], _MAXSTEPS, _FN, _BL{j})",
        )

    def _emit_fill(self, depth: int, fill: List[int]) -> None:
        init = [f"r{i} = _r[{i}]" for i in fill]
        for start in range(0, len(init), 8):
            self.emit(depth, "; ".join(init[start:start + 8]))

    def translate(self) -> str:
        self.emit(0, "def _blk(_r, _slots):")
        if self.loop:
            self._translate_chain()
        else:
            self._translate_block()
        return "\n".join(self.lines)

    def _translate_chain(self) -> None:
        """A loop chain as one ``while True``: registers, block counts
        and the step count stay in locals across iterations and the
        closure-call/fill/spill cost is paid once per loop entry, not
        once per block.  Accounting still runs for every block, in the
        interpreter's order, so all counts stay bit-identical."""
        count = len(self.blocks)
        self._emit_fill(1, self._fill_registers())
        resident = self.engine.resident_lines(self.func.name, self.blocks)
        if resident:
            # The header's first execution is the entry itself.
            self._emit_icache_probes(1, 0)
        self.emit(1, " = ".join(f"_c{j}" for j in range(count)) + " = 0")
        self.emit(1, "_st = _steps[0]")
        self.emit(1, "try:")
        self.emit(2, "while True:")
        header = self.blocks[0].label
        for j, block in enumerate(self.blocks):
            self._emit_chain_accounting(3, j, resident)
            for instr in block.instrs[:-1]:
                self._emit_block_instr(3, instr, direct_exit=False)
            stay = self.blocks[(j + 1) % count].label
            self._emit_chain_branch(3, block.instrs[-1], stay, header)
        self.emit(1, "finally:")
        self.emit(2, "; ".join(
            [f"_n{j}[0] += _c{j}" for j in range(count)] + ["_steps[0] = _st"]
        ))
        # Every side exit breaks out of the loop to here.
        self._emit_spill(1)
        self.emit(1, "return _nx")

    def _emit_chain_accounting(self, depth: int, j: int,
                               resident: bool) -> None:
        """:meth:`_emit_accounting` for chain block ``j``, on the
        locals; with resident lines only block ``j``'s first execution
        in this entry probes them (the header's are probed at entry)."""
        self.emit(depth, f"_c{j} += 1")
        if self.engine.icache is not None:
            if not resident:
                self._emit_icache_probes(depth, j)
            elif j and self._line_count(j):
                self.emit(depth, f"if _c{j} == 1:")
                self._emit_icache_probes(depth + 1, j)
        if self.engine.cancel is not None:
            self.emit(depth, "_cancel()")
        self.emit(depth, f"_st += {len(self.blocks[j].instrs)}")
        self.emit(
            depth,
            "if _st > _MAXSTEPS: "
            f"raise _Timeout(_st, _MAXSTEPS, _FN, _BL{j})",
        )

    def _emit_chain_branch(self, depth: int, terminator, stay: str,
                           header: str) -> None:
        """A chain block's terminator: fall through to ``stay`` (the next
        block, or around the loop to ``header``), jump back to the header
        with ``continue``, or leave the loop through a side exit, naming
        its successor in ``_nx``."""
        if type(terminator) is Jump or (
            terminator.iftrue == terminator.iffalse
        ):
            return
        condition = self._condition(terminator)
        if terminator.iftrue == stay:
            test, other = f"not ({condition})", terminator.iffalse
        else:
            test, other = f"({condition})", terminator.iftrue
        if other == header:
            self.emit(depth, f"if {test}: continue")
            return
        self.emit(depth, f"if {test}: _nx = {self._succ(other)}; break")

    def _translate_block(self) -> None:
        instrs = self.blocks[0].instrs
        self._emit_accounting(1, 0)
        self._emit_fill(1, self._fill_registers())
        # Control flow: with the terminator in canonical last position
        # (and no embedded jumps before it) the successor is returned
        # directly; otherwise pending targets accumulate in _nx with
        # last-assignment-wins, exactly like the interpreter's
        # next_label.
        embedded_jumps = any(
            isinstance(i, (Jump, CondJump)) for i in instrs[:-1]
        )
        direct = bool(instrs) and isinstance(
            instrs[-1], (Jump, CondJump, Ret)
        ) and not embedded_jumps
        has_nx = not direct and any(
            isinstance(i, (Jump, CondJump)) for i in instrs
        )
        if has_nx:
            self.emit(1, "_nx = None")
        terminated = False
        last_index = len(instrs) - 1
        for index, instr in enumerate(instrs):
            returned = self._emit_block_instr(
                1, instr, direct_exit=direct and index == last_index
            )
            terminated = returned and index == last_index
        if not terminated:
            self._emit_spill(1)
            if has_nx:
                self.emit(1, "if _nx is None: _fell(_FN, _BL0)")
                self.emit(1, "return _nx")
            else:
                self.emit(1, "_fell(_FN, _BL0)")

    def _emit_block_instr(self, depth: int, instr, direct_exit: bool) -> bool:
        """Emit one instruction; returns True when it emitted a return."""
        kind = type(instr)
        if kind is Mov:
            self.emit(
                depth, f"{self._reg(instr.dst)} = {self._value(instr.src)}"
            )
        elif kind is BinOp:
            self.emit(depth, self._binop(instr))
        elif kind is UnOp:
            self.emit(depth, self._unop(instr))
        elif kind is Load:
            self._load(depth, instr)
        elif kind is Store:
            self._store(depth, instr)
        elif kind is Extract:
            self._extract(depth, instr)
        elif kind is Insert:
            self._insert(depth, instr)
        elif kind is FrameAddr:
            self.emit(
                depth,
                f"{self._reg(instr.dst)} = "
                f"_slots[{self.slot_index[instr.slot]}]",
            )
        elif kind is GlobalAddr:
            self.emit(
                depth, f"{self._reg(instr.dst)} = {self._global(instr.name)}"
            )
        elif kind is Call:
            args = ", ".join(self._value(a) for a in instr.args)
            call = f"_D[{instr.func!r}]({args})"
            if instr.dst is None:
                self.emit(depth, call)
            else:
                self.emit(depth, f"_rv = {call}")
                self.emit(
                    depth,
                    f"{self._reg(instr.dst)} = 0 if _rv is None else "
                    f"_rv & {self.mask}",
                )
        elif kind is Jump:
            target = self._succ(instr.target)
            if direct_exit:
                self._emit_spill(depth)
                self.emit(depth, f"return {target}")
                return True
            self.emit(depth, f"_nx = {target}")
        elif kind is CondJump:
            expression = (
                f"{self._succ(instr.iftrue)} if ({self._condition(instr)}) "
                f"else {self._succ(instr.iffalse)}"
            )
            if direct_exit:
                self._emit_spill(depth)
                self.emit(depth, f"return {expression}")
                return True
            self.emit(depth, f"_nx = {expression}")
        elif kind is Ret:
            if instr.value is None:
                self.emit(depth, "return (None,)")
            else:
                self.emit(depth, f"return ({self._value(instr.value)},)")
            return True
        else:
            raise SimulationError(
                f"cannot translate {type(instr).__name__}"
            )
        return False


class _Closure:
    """One closure of a function, a block or a loop chain.

    Until control first enters it, this object stands in for the
    closure wherever the closure would be bound: calling it translates
    the closure (which rebinds every reference to this object) and runs
    it.  One object per closure is all that building an engine
    allocates for it."""

    __slots__ = ("engine", "func", "head", "chain", "table", "run",
                 "referrers")

    def __init__(self, engine: "CompiledEngine", func: Function, head,
                 chain: Optional[List], table: Dict[str, object]):
        self.engine = engine
        self.func = func
        self.head = head
        #: the loop chain this closure runs, or None for a plain block
        self.chain = chain
        #: the function's label -> closure (this object until translated)
        self.table = table
        #: the translated closure, or None
        self.run = None
        #: (namespace, variable) pairs still bound to this object
        self.referrers: Optional[List[Tuple[Dict, str]]] = None

    @property
    def members(self) -> List:
        return self.chain or [self.head]

    def __call__(self, _r, _slots):
        return self.engine._translate(self)(_r, _slots)


class CompiledEngine:
    """The ``compiled`` simulator backend: direct-threaded cached blocks.

    Each basic block is lowered once into a straight-line closure, and
    each loop chain (:func:`loop_chains`) into one looping closure (see
    :class:`_BlockTranslator`); compiled CPython code objects are cached
    process-wide by structural key (:meth:`_closure_key`) in a
    :class:`~repro.sim.cache.BlockCache`, and per-function drivers
    dispatch closure-to-closure by calling whatever closure the previous
    one returned — no label table, no per-instruction dispatch.  A
    closure is translated when control first enters it; until then its
    :class:`_Closure` record stands in for it.

    Parity contract with :class:`repro.sim.interp.Interpreter` (enforced
    by ``tests/test_sim_compiled.py`` and the CI ``sim-differential``
    job): identical simulated memory images and return values, identical
    ``RunStats`` block/instruction/load/store/call counts, identical
    I/D-cache hit/miss sequences, identical ``SimulationTimeout``
    attributes under the step watchdog, and identical ``cancel=``
    deadline probe cadence (once per block, after the I-cache probes).
    ``fault_hook``/``trace_hook`` are deliberately unsupported — the
    runner falls back to the interpreter when either is installed.

    The only tolerated divergence: after an *exception* aborts a block
    mid-flight, derived instruction/load/store totals still count the
    whole aborted block (the interpreter counts up to the faulting
    instruction).  Successful runs are exact.

    The translated closures, their namespaces and the closure tables
    refer to each other in cycles, so an engine left alone is freed by
    the cyclic GC.  :meth:`close` breaks the cycles; a :class:`~repro.sim.Simulator`
    calls it when it is dropped, and nothing an engine holds refers to
    its Simulator.
    """

    def __init__(
        self,
        module: Module,
        machine: MachineDescription,
        memory: Optional[SimMemory] = None,
        simulate_caches: bool = True,
        max_steps: int = 200_000_000,
        cancel=None,
        block_cache: Optional[BlockCache] = None,
        facts: Optional[ModuleFacts] = None,
    ):
        self.module = module
        self.machine = machine
        facts = facts or ModuleFacts(module, machine)
        self.memory = memory or SimMemory(endian=machine.endian)
        if self.memory.endian != machine.endian:
            raise SimulationError(
                "memory endianness does not match the machine"
            )
        self.max_steps = max_steps
        self.cancel = cancel
        self.icache: Optional[CellCountedCache] = None
        self.dcache: Optional[CellCountedCache] = None
        if simulate_caches:
            self.icache = CellCountedCache(machine.icache)
            self.dcache = CellCountedCache(machine.dcache)

        # Globals are allocated in module order, exactly as the
        # interpreter does, so every simulated address is identical.
        self.global_addrs: Dict[str, int] = {}
        for var in module.globals.values():
            addr = self.memory.alloc(var.size, var.align)
            if var.init:
                self.memory.write_bytes(addr, var.init)
            self.global_addrs[var.name] = addr

        self.block_cache = (
            block_cache if block_cache is not None else shared_block_cache()
        )
        # Word-sized memoryview casts give single-index loads/stores when
        # the target's byte order matches the host's (the views are
        # host-endian by definition); other targets go through the
        # machine-endian struct accessors bound in _environment.
        self._mviews: Dict[int, memoryview] = {}
        if machine.endian == sys.byteorder:
            flat = memoryview(self.memory.data)
            for width, code in ((2, "H"), (4, "I"), (8, "Q")):
                if self.memory.size % width == 0:
                    self._mviews[width] = flat.cast(code)
        self._lines = facts.lines
        self._steps = [0]
        registration = _registration(facts)
        self._block_mix = registration.mixes
        self._block_line_counts = registration.line_counts
        #: (function, label) -> the block's execution-counter cell, in
        #: the layout's order (parallel to the mix and line counts)
        self._cells: Dict[Tuple[str, str], List[int]] = {
            key: [0] for key in self._lines
        }
        #: closure (function, head label) -> its (key, labels, names),
        #: shared by every engine of the facts that keys alike
        self._keys = facts.closure_keys.setdefault(
            (self.icache is not None, cancel is not None,
             tuple(self._mviews)),
            {},
        )
        #: (function, label) -> the closure that runs the block
        self._closures: Dict[Tuple[str, str], _Closure] = {}
        self._drivers: Dict[str, object] = {}
        #: the exec namespace of every closure translated so far
        self._namespaces: List[Dict[str, object]] = []
        self._closed = False
        #: translation-cache traffic attributable to this engine
        self.blocks_translated = 0
        self.block_cache_hits = 0
        self._environment = self._shared_environment()
        for func, closures, nregs in registration.functions:
            table: Dict[str, object] = {}
            for head, chain in closures:
                closure = _Closure(self, func, head, chain, table)
                for member in chain or (head,):
                    self._closures[(func.name, member.label)] = closure
                table[head.label] = closure
            self._drivers[func.name] = self._make_driver(func, table, nregs)
        if self.icache is not None:
            # Closures over the tables, not bound methods: the caches
            # must not refer back to the engine.
            cells, line_counts = self._cells, self._block_line_counts
            mixes = self._block_mix
            self.icache.derive_hits = lambda: sum(
                cell[0] * lines
                for cell, lines in zip(cells.values(), line_counts)
            )
            self.dcache.derive_hits = lambda: sum(
                cell[0] * (mix[1] + mix[2])
                for cell, mix in zip(cells.values(), mixes)
            )

    # -- layout & registration ----------------------------------------------
    def block_lines(self, func_name: str, label: str) -> range:
        return self._lines[(func_name, label)]

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError(
                "compiled engine is closed: its Simulator was dropped"
            )

    def _closure_of(self, func_name: str, label: str) -> _Closure:
        self._check_open()
        return self._closures[(func_name, label)]

    def block_source(self, func_name: str, label: str) -> str:
        """Generated Python source of the closure that runs one block:
        its own, or its loop chain's (debugging/tests).  Translates the
        closure if control has not entered it yet, then emits its source
        afresh (a cache hit emits nothing)."""
        closure = self._closure_of(func_name, label)
        self._translate(closure)
        return _BlockTranslator(
            closure.members, closure.func, self,
            loop=closure.chain is not None,
        ).translate()

    def block_key(self, func_name: str, label: str) -> tuple:
        """The :class:`~repro.sim.cache.BlockCache` key of the closure
        that runs one block (see :meth:`_closure_key`)."""
        return self._keyed(self._closure_of(func_name, label))[0]

    def mem_view(self, width: int):
        """Host-endian memoryview cast for ``width``, or None."""
        return self._mviews.get(width)

    def resident_lines(self, func_name: str, blocks) -> bool:
        """Do a loop chain's I-cache lines stay resident for a whole
        entry?

        When its distinct lines map to distinct tag slots and nothing
        else runs between iterations (chains hold no calls), a line once
        probed in an entry stays in the cache until the entry ends, so
        every later probe of it is a hit, and hits are derived.  Each
        block then probes its lines only on its first execution per
        entry.  A chain whose lines collide in a slot (or that is bigger
        than the whole I-cache) probes every block every iteration."""
        icache = self.icache
        if icache is None:
            return False
        lines = set()
        for block in blocks:
            lines.update(self._lines[(func_name, block.label)])
        slots = {line // icache.line_bytes % icache.lines for line in lines}
        return len(slots) == len(lines)

    # -- compilation ---------------------------------------------------------
    def _shared_environment(self) -> Dict[str, object]:
        """The bindings every closure's namespace starts from."""
        environment = dict(_runtime_helpers(self.machine))
        environment.update({
            "_mem": self.memory.data,
            "_MEMSIZE": self.memory.size,
            "_MAXSTEPS": self.max_steps,
            "_steps": self._steps,
            "_D": self._drivers,
            "_cancel": self.cancel,
        })
        # Precomputed bounds checks: _mbW is the largest valid address
        # for a width-W access, so the guard is one comparison per side.
        for width in (1, 2, 4, 8):
            environment[f"_mb{width}"] = self.memory.size - width
        order = "<" if self.machine.endian == "little" else ">"
        for width, code in ((2, "H"), (4, "I"), (8, "Q")):
            view = self._mviews.get(width)
            if view is not None:
                environment[f"_mv{width}"] = view
            else:
                accessor = struct.Struct(order + code)
                environment[f"_u{width}"] = accessor.unpack_from
                environment[f"_p{width}"] = accessor.pack_into
        if self.icache is not None:
            environment.update({
                "_it": self.icache.tags,
                "_im": self.icache.miss_cell,
                "_dt": self.dcache.tags,
                "_dm": self.dcache.miss_cell,
            })
        return environment

    def _closure_key(self, func: Function, members: List,
                     loop: bool) -> Tuple[tuple, Dict[str, int],
                                          Dict[str, int]]:
        """The BlockCache key of one closure, with the numbering of its
        labels and global names: ``(key, labels, names)``.

        The key holds exactly what :class:`_BlockTranslator` reads, so
        two closures with equal keys emit equal source:

        * whether the I-cache probes and the cancel probe are emitted;
        * the loop flag and the resident-lines verdict;
        * per member block, its instruction count and (with the I-cache
          on) its I-cache line count;
        * per instruction, what :class:`_KeyBuilder` records;
        * the word size, endianness and D-cache geometry, each where an
          instruction's emission reads it.

        What the source leaves to the namespace (counter cells, labels,
        line numbers, addresses, successor closures) is left out, so
        structurally identical closures of different functions, modules
        and engines share one entry."""
        builder = _KeyBuilder(self, func, members)
        icache = self.icache is not None
        parts: List[object] = [
            icache, self.cancel is not None, loop,
            loop and self.resident_lines(func.name, members),
        ]
        for member in members:
            instrs = member.instrs
            parts.append(len(instrs))
            if icache:
                parts.append(len(self._lines[(func.name, member.label)]))
            for instr in instrs:
                parts.append(builder.instr(instr))
        machine = self.machine
        parts.append(machine.word_bytes if builder.word else None)
        parts.append(machine.endian if builder.endian else None)
        dcache = self.dcache
        parts.append(
            (dcache.line_bytes, dcache.lines)
            if builder.memory and dcache is not None else None
        )
        return tuple(parts), builder.labels, builder.names

    def _keyed(self, closure: _Closure) -> tuple:
        """``closure``'s :meth:`_closure_key`, computed by the first
        engine of the facts that enters it."""
        name = (closure.func.name, closure.head.label)
        keyed = self._keys.get(name)
        if keyed is None:
            keyed = self._keys[name] = self._closure_key(
                closure.func, closure.members, closure.chain is not None
            )
        return keyed

    def _translate(self, closure: _Closure):
        """Key ``closure``, fetch its code from the BlockCache (emitting
        and compiling it on a miss), bind it once, then rebind it
        wherever its record stood in for it; returns the translated
        closure."""
        if closure.run is not None:
            return closure.run
        with span("sim.translate"):
            func, members = closure.func, closure.members
            loop = closure.chain is not None
            key, labels, names = self._keyed(closure)
            entry = self.block_cache.get(key)
            if entry is None:
                translator = _BlockTranslator(members, func, self, loop=loop)
                code = compile(translator.translate(), "<rtl-block>", "exec")
                # The variables bind in emission order: _sI and _gI name
                # the labels and globals numbered here.
                entry = (
                    code,
                    tuple(labels[label]
                          for label in translator.successors.values()),
                    tuple(names[name]
                          for name in translator.globals_used.values()),
                )
                self.block_cache.put(key, entry)
                self.blocks_translated += len(members)
            else:
                self.block_cache_hits += len(members)
            code, successors, global_names = entry
            namespace = dict(self._environment)
            namespace["_FN"] = func.name
            for j, member in enumerate(members):
                namespace[f"_n{j}"] = self._cells[func.name, member.label]
                namespace[f"_BL{j}"] = member.label
                if self.icache is not None:
                    line_bytes = self.icache.line_bytes
                    cache_lines = self.icache.lines
                    lines = self.block_lines(func.name, member.label)
                    for i, line in enumerate(lines):
                        line_no = line // line_bytes
                        namespace[f"_ln{j}_{i}"] = line_no
                        namespace[f"_li{j}_{i}"] = line_no % cache_lines
            if global_names:
                by_number = list(names)
                for i, number in enumerate(global_names):
                    namespace[f"_g{i}"] = self.global_addrs[by_number[number]]
            exec(code, namespace)  # noqa: S102 - our own generated code
            self._namespaces.append(namespace)
            run = closure.run = namespace["_blk"]
            table = closure.table
            table[members[0].label] = run
            # Successors bind to whatever stands for them now; one not
            # yet translated is rebound when it is.
            by_number = list(labels)
            for i, number in enumerate(successors):
                var = f"_s{i}"
                namespace[var] = target = table[by_number[number]]
                if type(target) is _Closure:
                    if target.referrers is None:
                        target.referrers = []
                    target.referrers.append((namespace, var))
            for referrer, var in closure.referrers or ():
                referrer[var] = run
            closure.referrers = None
        return run

    def _make_driver(self, func: Function, table: Dict[str, object],
                     nregs: int):
        memory = self.memory
        entry_label = func.entry.label
        param_indices = tuple(p.index for p in func.params)
        slot_specs = tuple(func.frame_slots.values())

        def _driver(*args):
            regs = [0] * nregs
            for index, value in zip(param_indices, args):
                regs[index] = value
            mark = memory.brk
            slots = tuple(
                memory.alloc(size, align) for size, align in slot_specs
            )
            try:
                blk = table[entry_label]
                while True:
                    result = blk(regs, slots)
                    if type(result) is tuple:
                        return result[0]
                    blk = result
            finally:
                memory.reset_brk(mark)

        return _driver

    def close(self) -> None:
        """Break the engine's reference cycles and let go of its memory.

        Clears every translated closure's namespace, the closure tables
        and the per-function entry points, and releases the memoryview
        casts, so the arena is freed as soon as the last reference to its
        :class:`~repro.sim.memory.SimMemory` goes, without waiting for
        the cyclic GC.  The counts stay readable; running, translating
        or keying raises :class:`SimulationError` afterwards."""
        if self._closed:
            return
        self._closed = True
        for namespace in self._namespaces:
            namespace.clear()
        self._namespaces.clear()
        for closure in self._closures.values():
            closure.table.clear()
            closure.run = closure.referrers = None
        self._closures.clear()
        self._drivers.clear()
        self._environment.clear()
        for view in self._mviews.values():
            view.release()
        self._mviews.clear()
        self.memory = None

    # -- public API ----------------------------------------------------------
    @property
    def stats(self) -> RunStats:
        return _derive_stats(
            self._cells,
            [cell[0] for cell in self._cells.values()],
            self._block_mix,
        )

    def translation_stats(self) -> Dict[str, int]:
        """Blocks translated vs. reused from the process-wide cache, over
        the closures translated so far."""
        return {
            "blocks": len(self._cells),
            "translated": self.blocks_translated,
            "cache_hits": self.block_cache_hits,
        }

    def call(self, name: str, *args: int):
        driver = self._drivers.get(name)
        if driver is None:
            self._check_open()
            raise SimulationError(f"no function {name!r}")
        func = self.module.function(name)
        if len(args) != len(func.params):
            raise SimulationError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        mask = self.machine.word_mask
        return driver(*[a & mask for a in args])
