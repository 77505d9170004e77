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
accounting inlined at translate time, caches the compiled block by
fingerprint in :class:`repro.sim.cache.BlockCache`, and dispatches
block-to-block with a direct-threaded loop: each closure returns its
successor's closure, so the driver never consults a label table.

Dynamic counts: the generated code only increments a per-block execution
counter (plus cache probes when cache simulation is on); instruction,
load, store and call totals are recovered afterwards from the static
per-block mix, which is exact because block composition is static.

Signedness without branches: for a word ``v`` stored unsigned,
``(v ^ SIGN) - SIGN`` is its two's-complement value — used for signed
compares, arithmetic shifts and extensions.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

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
from repro.sim.interp import RunStats, field_parameters, layout_code
from repro.sim.memory import GUARD_BYTES, SimMemory

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


class _BlockTranslator:
    """Emits one basic block as a specialized straight-line closure.

    The closure's signature is ``_blk(_r, _slots)``: ``_r`` is the
    activation's register file (a list), ``_slots`` the tuple of frame
    slot addresses.  Registers the block reads before writing are pulled
    into Python locals once on entry; registers it defines are written
    back to ``_r`` once before handing off to a successor (a mid-block
    ``Ret`` skips the write-back — the activation is dead).  The closure
    returns either the successor block's closure (direct threading) or a
    1-tuple carrying the function's return value, which the driver
    distinguishes with a single ``type(x) is tuple`` check.

    Everything that varies between instantiations of the same source —
    the execution-counter cell ``_n``, I-cache line addresses ``_lN``,
    global addresses ``_gN``, successor closures ``_sN``, the
    function/label strings ``_FN``/``_BL`` — is bound through the exec
    namespace, so the emitted source (and therefore the
    :class:`~repro.sim.cache.BlockCache` fingerprint) is shared by every
    structurally identical block.
    """

    def __init__(self, block, func: Function, engine: "CompiledEngine"):
        self.func = func
        self.engine = engine
        self.machine = engine.machine
        self.lines: List[str] = []
        self.bits = self.machine.word_bits
        self.mask = self.machine.word_mask
        self.sign = 1 << (self.bits - 1)
        self.block = block
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
            self.emit(
                depth,
                f"_sh = _fieldshift({self._value(instr.pos)}, "
                f"{instr.width})",
            )
            expression = f"({src} >> _sh) & {field_mask}"
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
            self.emit(
                depth,
                f"_sh = _fieldshift({self._value(instr.pos)}, "
                f"{instr.width})",
            )
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
        """Registers read before any write in this block (need filling
        from ``_r``); also records the set written (need spilling)."""
        written: set = set()
        fill: set = set()
        for instr in self.block.instrs:
            for reg in instr.uses():
                if reg.index not in written:
                    fill.add(reg.index)
            for reg in instr.defs():
                written.add(reg.index)
        self._defined = sorted(written)
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
            endian = repr(self.machine.endian)
            raw = (
                f"int.from_bytes(_mem[{a}:{a} + {width}], {endian})"
            )
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
            endian = repr(self.machine.endian)
            self.emit(
                depth,
                f"_mem[{a}:{a} + {width}] = "
                f"({value}).to_bytes({width}, {endian})",
            )

    def _emit_icache_probes(self, depth: int) -> None:
        """Inline direct-mapped I-cache probes: line number and tag
        index are per-block constants bound through the namespace; hits
        are derived (probes - misses), so a hit costs one comparison."""
        line_count = len(
            self.engine.block_lines(self.func.name, self.block.label)
        )
        for i in range(line_count):
            self.emit(
                depth,
                f"if _it[_li{i}] != _ln{i}: "
                f"_it[_li{i}] = _ln{i}; _im[0] += 1",
            )

    def _emit_accounting(self, depth: int, icache: bool = True) -> None:
        """The per-execution prologue, in the interpreter's exact order:
        block count, I-cache line probes, deadline probe, step guard.
        (The interpreter's fault_hook slot is absent by construction —
        the runner falls back to the interpreter whenever a hook is
        installed.)"""
        engine = self.engine
        self.emit(depth, "_n[0] += 1")
        if engine.icache is not None and icache:
            self._emit_icache_probes(depth)
        if engine.cancel is not None:
            self.emit(depth, "_cancel()")
        self.emit(depth, f"_steps[0] += {len(self.block.instrs)}")
        self.emit(
            depth,
            "if _steps[0] > _MAXSTEPS: "
            "raise _Timeout(_steps[0], _MAXSTEPS, _FN, _BL)",
        )

    def _emit_fill(self, depth: int, fill: List[int]) -> None:
        init = [f"r{i} = _r[{i}]" for i in fill]
        for start in range(0, len(init), 8):
            self.emit(depth, "; ".join(init[start:start + 8]))

    def translate(self) -> str:
        block = self.block
        instrs = block.instrs
        terminator = instrs[-1] if instrs else None
        label = block.label
        # A block whose terminator loops straight back to itself runs as
        # an internal ``while True``: registers stay in locals across
        # iterations and the closure-call/fill/spill cost is paid once
        # per loop, not once per iteration.  Accounting still runs every
        # iteration, so all counts stay bit-identical.
        embedded_jumps = any(
            isinstance(i, (Jump, CondJump)) for i in instrs[:-1]
        )
        loop_mode = not embedded_jumps and (
            (isinstance(terminator, Jump) and terminator.target == label)
            or (
                isinstance(terminator, CondJump)
                and label in (terminator.iftrue, terminator.iffalse)
            )
        )
        self.emit(0, "def _blk(_r, _slots):")
        fill = self._fill_registers()
        if loop_mode:
            self._emit_fill(1, fill)
            # When this block's I-cache lines map to distinct tag slots,
            # nothing can evict them between iterations of the self-loop
            # — every probe after the first is a guaranteed hit, and
            # hits are derived, so the probes hoist out of the loop.
            # (Self-conflicting lines — a block bigger than the whole
            # I-cache — keep per-iteration probes.)
            # A Call in the body runs other blocks' probes mid-loop and
            # can evict our lines, so hoisting is only sound without one.
            hoist_icache = False
            has_call = any(isinstance(i, Call) for i in instrs)
            if self.engine.icache is not None and not has_call:
                line_nos = [
                    line // self.engine.icache.line_bytes
                    for line in self.engine.block_lines(
                        self.func.name, label
                    )
                ]
                indices = [n % self.engine.icache.lines for n in line_nos]
                hoist_icache = len(set(indices)) == len(indices)
                if hoist_icache:
                    self._emit_icache_probes(1)
            self.emit(1, "while True:")
            depth = 2
            self._emit_accounting(depth, icache=not hoist_icache)
            for instr in instrs[:-1]:
                self._emit_block_instr(depth, instr, direct_exit=False)
            if isinstance(terminator, Jump) or (
                terminator.iftrue == label and terminator.iffalse == label
            ):
                self.emit(depth, "continue")
            else:
                condition = self._condition(terminator)
                if terminator.iftrue == label:
                    self.emit(depth, f"if ({condition}): continue")
                    exit_label = terminator.iffalse
                else:
                    self.emit(depth, f"if not ({condition}): continue")
                    exit_label = terminator.iftrue
                self._emit_spill(depth)
                self.emit(depth, f"return {self._succ(exit_label)}")
            return "\n".join(self.lines)
        self._emit_accounting(1)
        self._emit_fill(1, fill)
        # Control flow: with the terminator in canonical last position
        # (and no embedded jumps before it) the successor is returned
        # directly; otherwise pending targets accumulate in _nx with
        # last-assignment-wins, exactly like the interpreter's
        # next_label.
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
                self.emit(1, "if _nx is None: _fell(_FN, _BL)")
                self.emit(1, "return _nx")
            else:
                self.emit(1, "_fell(_FN, _BL)")
        return "\n".join(self.lines)

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


class CompiledEngine:
    """The ``compiled`` simulator backend: direct-threaded cached blocks.

    Each basic block is lowered once into a straight-line closure (see
    :class:`_BlockTranslator`), compiled CPython code objects are cached
    process-wide by source fingerprint in a
    :class:`~repro.sim.cache.BlockCache`, and per-function drivers
    dispatch block-to-block by calling whatever closure the previous one
    returned — no label table, no per-instruction dispatch.

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
    ):
        self.module = module
        self.machine = machine
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
        # host-endian by definition); other targets fall back to
        # int.from_bytes/to_bytes on the byte arena.
        self._mviews: Dict[int, object] = {}
        if machine.endian == sys.byteorder:
            flat = memoryview(self.memory.data)
            for width, code in ((2, "H"), (4, "I"), (8, "Q")):
                if self.memory.size % width == 0:
                    self._mviews[width] = flat.cast(code)
        self._lines = layout_code(module, machine)
        self._steps = [0]
        self._block_keys: List[Tuple[str, str]] = []
        self._block_mix: List[Tuple[int, int, int, int]] = []
        self._block_line_counts: List[int] = []
        self._block_cells: List[List[int]] = []
        self._sources: Dict[Tuple[str, str], str] = {}
        self._fingerprints: Dict[Tuple[str, str], str] = {}
        self._drivers: Dict[str, object] = {}
        #: translation-cache traffic attributable to this engine
        self.blocks_translated = 0
        self.block_cache_hits = 0
        self._translate_all()
        if self.icache is not None:
            self.icache.derive_hits = self._icache_probe_total
            self.dcache.derive_hits = self._dcache_probe_total

    # -- layout & registration ----------------------------------------------
    def block_lines(self, func_name: str, label: str) -> List[int]:
        return self._lines[(func_name, label)]

    def block_source(self, func_name: str, label: str) -> str:
        """Generated Python source of one block (debugging/tests)."""
        return self._sources[(func_name, label)]

    def block_fingerprint(self, func_name: str, label: str) -> str:
        return self._fingerprints[(func_name, label)]

    def mem_view(self, width: int):
        """Host-endian memoryview cast for ``width``, or None."""
        return self._mviews.get(width)

    def _register_block(self, func_name: str, block) -> List[int]:
        cell = [0]
        self._block_keys.append((func_name, block.label))
        self._block_mix.append(_static_block_mix(block))
        self._block_line_counts.append(
            len(self._lines[(func_name, block.label)])
        )
        self._block_cells.append(cell)
        return cell

    def _icache_probe_total(self) -> int:
        """Probes issued so far: every execution touches every line."""
        return sum(
            cell[0] * lines
            for cell, lines in zip(
                self._block_cells, self._block_line_counts
            )
        )

    def _dcache_probe_total(self) -> int:
        """Probes issued so far: one per executed load or store."""
        return sum(
            cell[0] * (mix[1] + mix[2])
            for cell, mix in zip(self._block_cells, self._block_mix)
        )

    # -- compilation ---------------------------------------------------------
    def _translate_all(self) -> None:
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
        for width, view in self._mviews.items():
            environment[f"_mv{width}"] = view
        if self.icache is not None:
            environment.update({
                "_it": self.icache.tags,
                "_im": self.icache.miss_cell,
                "_dt": self.dcache.tags,
                "_dm": self.dcache.miss_cell,
            })
        for func in self.module:
            self._translate_function(func, environment)

    def _translate_function(self, func: Function, environment: Dict) -> None:
        closures: Dict[str, object] = {}
        patches = []
        for block in func.blocks:
            cell = self._register_block(func.name, block)
            translator = _BlockTranslator(block, func, self)
            source = translator.translate()
            key = (func.name, block.label)
            self._sources[key] = source
            fingerprint = BlockCache.fingerprint(source)
            self._fingerprints[key] = fingerprint
            code = self.block_cache.get(fingerprint)
            if code is None:
                code = compile(source, "<rtl-block>", "exec")
                self.block_cache.put(fingerprint, code)
                self.blocks_translated += 1
            else:
                self.block_cache_hits += 1
            namespace = dict(environment)
            namespace["_n"] = cell
            namespace["_FN"] = func.name
            namespace["_BL"] = block.label
            if self.icache is not None:
                line_bytes = self.icache.line_bytes
                cache_lines = self.icache.lines
                for i, line in enumerate(self.block_lines(*key)):
                    line_no = line // line_bytes
                    namespace[f"_ln{i}"] = line_no
                    namespace[f"_li{i}"] = line_no % cache_lines
            for var, name in translator.globals_used.items():
                namespace[var] = self.global_addrs[name]
            exec(code, namespace)  # noqa: S102 - our own generated code
            closures[block.label] = namespace["_blk"]
            patches.append((namespace, translator.successors))
        # Successor closures can only be bound once every block in the
        # function exists; patch them into each block's namespace now.
        for namespace, successors in patches:
            for var, label in successors.items():
                namespace[var] = closures[label]
        self._drivers[func.name] = self._make_driver(func, closures)

    def _make_driver(self, func: Function, closures: Dict[str, object]):
        memory = self.memory
        entry = closures[func.entry.label]
        param_indices = tuple(p.index for p in func.params)
        nregs = func.max_reg_index() + 1
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
                blk = entry
                while True:
                    result = blk(regs, slots)
                    if type(result) is tuple:
                        return result[0]
                    blk = result
            finally:
                memory.reset_brk(mark)

        return _driver

    # -- public API ----------------------------------------------------------
    @property
    def stats(self) -> RunStats:
        return _derive_stats(
            self._block_keys,
            [cell[0] for cell in self._block_cells],
            self._block_mix,
        )

    def translation_stats(self) -> Dict[str, int]:
        """Blocks translated vs. reused from the process-wide cache."""
        return {
            "blocks": len(self._block_keys),
            "translated": self.blocks_translated,
            "cache_hits": self.block_cache_hits,
        }

    def call(self, name: str, *args: int):
        driver = self._drivers.get(name)
        if driver is None:
            raise SimulationError(f"no function {name!r}")
        func = self.module.function(name)
        if len(args) != len(func.params):
            raise SimulationError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        mask = self.machine.word_mask
        return driver(*[a & mask for a in args])
