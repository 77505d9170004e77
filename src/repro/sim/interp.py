"""Reference interpreter for RTL modules.

The interpreter executes lowered (or generic) RTL with bit-exact machine
semantics — word-size wraparound, two's complement, endianness-sensitive
extract/insert, alignment traps — and collects the dynamic counts the cost
model needs: per-block execution counts, memory accesses, and cache hits
and misses.

It is the *reference* engine: slow, obvious, and heavily cross-checked
against the faster ``compiled`` backend (:mod:`repro.sim.translate`) by
the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError, SimulationTimeout
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
from repro.sim.cache import DirectMappedCache
from repro.sim.facts import ModuleFacts
from repro.sim.memory import SimMemory


class RunStats:
    """Dynamic counts collected over one or more calls."""

    def __init__(self) -> None:
        self.block_counts: Dict[Tuple[str, str], int] = {}
        self.instr_count = 0
        self.load_count = 0
        self.store_count = 0
        self.call_count = 0

    @property
    def memory_accesses(self) -> int:
        return self.load_count + self.store_count

    def count_for(self, func_name: str, label: str) -> int:
        return self.block_counts.get((func_name, label), 0)

    def __repr__(self) -> str:
        return (
            f"<RunStats instrs={self.instr_count} loads={self.load_count} "
            f"stores={self.store_count}>"
        )


def field_parameters(
    machine: MachineDescription, pos: int, width: int
) -> Tuple[int, int]:
    """Return ``(shift, mask)`` of a byte field within a word.

    ``pos`` is a byte address; its low bits select the byte within the
    word.  Raises when the field would straddle the word boundary (machine
    extract/insert instructions cannot address such a field either).
    """
    byte = pos % machine.word_bytes
    if byte % width:
        raise SimulationError(
            f"field at byte {byte} of width {width} is not naturally "
            f"aligned within the word"
        )
    if machine.endian == "little":
        shift = 8 * byte
    else:
        shift = 8 * (machine.word_bytes - byte - width)
    return shift, (1 << (8 * width)) - 1


class _Frame:
    """Activation record: register file plus frame-slot addresses."""

    __slots__ = ("regs", "slots", "saved_brk")

    def __init__(self, nregs: int, saved_brk: int):
        self.regs: List[int] = [0] * nregs
        self.slots: Dict[str, int] = {}
        self.saved_brk = saved_brk


class Interpreter:
    """Executes functions of one module on one machine model."""

    def __init__(
        self,
        module: Module,
        machine: MachineDescription,
        memory: Optional[SimMemory] = None,
        simulate_caches: bool = True,
        max_steps: int = 200_000_000,
        fault_hook=None,
        trace_hook=None,
        cancel=None,
        facts: Optional[ModuleFacts] = None,
    ):
        self.module = module
        self.machine = machine
        # Code layout and per-function frames: ``facts`` when a program
        # shares its own, else derived here on first use.
        self.facts = facts or ModuleFacts(module, machine)
        # Optional chaos hook called as hook(func_name, block_label) at
        # every block entry; FaultPlan.sim_hook() uses it to plant stalls.
        self.fault_hook = fault_hook
        # Optional zero-argument cancellation probe, also called at every
        # block entry (before the fault hook); the compile service
        # installs its per-request deadline check here, raising
        # DeadlineExceeded to abort a stuck simulation.
        self.cancel = cancel
        # Optional memory-trace hook called as
        # hook(func_name, instr, addr, frame_slots, global_addrs) at every
        # Load/Store; the alias-consistency checker cross-checks the
        # engine's static claims against these concrete addresses.
        self.trace_hook = trace_hook
        self.memory = memory or SimMemory(endian=machine.endian)
        if self.memory.endian != machine.endian:
            raise SimulationError(
                "memory endianness does not match the machine"
            )
        self.max_steps = max_steps
        self.stats = RunStats()
        self.icache: Optional[DirectMappedCache] = None
        self.dcache: Optional[DirectMappedCache] = None
        if simulate_caches:
            self.icache = DirectMappedCache(machine.icache)
            self.dcache = DirectMappedCache(machine.dcache)
        self.global_addrs: Dict[str, int] = {}
        self._alloc_globals()
        self._bits = machine.word_bits
        self._mask = machine.word_mask
        self._sign_bit = 1 << (self._bits - 1)
        self._steps = 0

    # -- set-up -------------------------------------------------------------
    def _alloc_globals(self) -> None:
        for var in self.module.globals.values():
            addr = self.memory.alloc(var.size, var.align)
            if var.init:
                self.memory.write_bytes(addr, var.init)
            self.global_addrs[var.name] = addr

    # -- value helpers -------------------------------------------------------
    def _signed(self, value: int) -> int:
        return value - (1 << self._bits) if value & self._sign_bit else value

    def _operand(self, frame: _Frame, op: Operand) -> int:
        if isinstance(op, Reg):
            return frame.regs[op.index]
        return op.value & self._mask

    # -- public API -----------------------------------------------------------
    def call(self, name: str, *args: int) -> Optional[int]:
        """Run function ``name`` with machine-word arguments."""
        func = self.module.function(name)
        if len(args) != len(func.params):
            raise SimulationError(
                f"{name} expects {len(func.params)} args, got {len(args)}"
            )
        return self._run(func, [a & self._mask for a in args])

    # -- the main loop ----------------------------------------------------------
    def _run(self, func: Function, args: List[int]) -> Optional[int]:
        nregs, blocks = self.facts.frame(func.name)
        frame = _Frame(nregs, self.memory.brk)
        for param, value in zip(func.params, args):
            frame.regs[param.index] = value
        for slot, (size, align) in func.frame_slots.items():
            frame.slots[slot] = self.memory.alloc(size, align)

        label = func.entry.label
        stats = self.stats
        machine = self.machine
        memory = self.memory
        regs = frame.regs
        lines = self.facts.lines if self.icache is not None else None

        try:
            while True:
                block = blocks[label]
                key = (func.name, block.label)
                stats.block_counts[key] = stats.block_counts.get(key, 0) + 1
                if lines is not None:
                    for line in lines[key]:
                        self.icache.access(line)
                if self.cancel is not None:
                    self.cancel()
                if self.fault_hook is not None:
                    self.fault_hook(func.name, block.label)
                self._steps += len(block.instrs)
                if self._steps > self.max_steps:
                    raise SimulationTimeout(
                        self._steps,
                        limit=self.max_steps,
                        function=func.name,
                        block=block.label,
                    )
                stats.instr_count += len(block.instrs)

                next_label: Optional[str] = None
                for instr in block.instrs:
                    kind = type(instr)
                    if kind is Mov:
                        regs[instr.dst.index] = self._operand(frame, instr.src)
                    elif kind is BinOp:
                        regs[instr.dst.index] = self._binop(
                            instr.op,
                            self._operand(frame, instr.a),
                            self._operand(frame, instr.b),
                        )
                    elif kind is UnOp:
                        regs[instr.dst.index] = self._unop(
                            instr.op, self._operand(frame, instr.a)
                        )
                    elif kind is Load:
                        addr = (regs[instr.base.index] + instr.disp) \
                            & self._mask
                        if self.trace_hook is not None:
                            self.trace_hook(
                                func.name, instr, addr, frame.slots,
                                self.global_addrs,
                            )
                        value = memory.load(
                            addr, instr.width, instr.signed, instr.unaligned
                        )
                        stats.load_count += 1
                        if self.dcache is not None:
                            self.dcache.access(addr & ~(instr.width - 1))
                        regs[instr.dst.index] = value & self._mask
                    elif kind is Store:
                        addr = (regs[instr.base.index] + instr.disp) \
                            & self._mask
                        if self.trace_hook is not None:
                            self.trace_hook(
                                func.name, instr, addr, frame.slots,
                                self.global_addrs,
                            )
                        memory.store(
                            addr,
                            instr.width,
                            self._operand(frame, instr.src),
                            instr.unaligned,
                        )
                        stats.store_count += 1
                        if self.dcache is not None:
                            self.dcache.access(addr & ~(instr.width - 1))
                    elif kind is Extract:
                        regs[instr.dst.index] = self._extract(frame, instr)
                    elif kind is Insert:
                        regs[instr.dst.index] = self._insert(frame, instr)
                    elif kind is FrameAddr:
                        regs[instr.dst.index] = frame.slots[instr.slot]
                    elif kind is GlobalAddr:
                        regs[instr.dst.index] = self.global_addrs[instr.name]
                    elif kind is Call:
                        stats.call_count += 1
                        callee = self.module.function(instr.func)
                        value = self._run(
                            callee,
                            [self._operand(frame, a) for a in instr.args],
                        )
                        if instr.dst is not None:
                            regs[instr.dst.index] = (
                                0 if value is None else value & self._mask
                            )
                    elif kind is Jump:
                        next_label = instr.target
                    elif kind is CondJump:
                        taken = self._relation(
                            instr.rel,
                            self._operand(frame, instr.a),
                            self._operand(frame, instr.b),
                        )
                        next_label = instr.iftrue if taken else instr.iffalse
                    elif kind is Ret:
                        if instr.value is None:
                            return None
                        return self._operand(frame, instr.value)
                    else:
                        raise SimulationError(
                            f"cannot execute {kind.__name__}"
                        )
                if next_label is None:
                    raise SimulationError(
                        f"block {func.name}/{block.label} fell off the end"
                    )
                label = next_label
        finally:
            self.memory.reset_brk(frame.saved_brk)

    # -- operators -----------------------------------------------------------
    def _binop(self, op: str, a: int, b: int) -> int:
        mask = self._mask
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
            return (a << (b & (self._bits - 1))) & mask
        if op == "shrl":
            return a >> (b & (self._bits - 1))
        if op == "shra":
            return (self._signed(a) >> (b & (self._bits - 1))) & mask
        if op in ("div", "rem"):
            sa, sb = self._signed(a), self._signed(b)
            if sb == 0:
                raise SimulationError("integer division by zero")
            quotient = abs(sa) // abs(sb)
            if (sa < 0) != (sb < 0):
                quotient = -quotient
            if op == "div":
                return quotient & mask
            return (sa - quotient * sb) & mask
        if op in ("divu", "remu"):
            if b == 0:
                raise SimulationError("integer division by zero")
            return (a // b if op == "divu" else a % b) & mask
        raise SimulationError(f"unknown binary op {op!r}")

    def _unop(self, op: str, a: int) -> int:
        mask = self._mask
        if op == "neg":
            return (-a) & mask
        if op == "not":
            return (~a) & mask
        if op[0] in "sz" and op[1:4] in ("ext",):
            width = int(op[4:])
            low = a & ((1 << (8 * width)) - 1)
            if op[0] == "s" and low & (1 << (8 * width - 1)):
                low -= 1 << (8 * width)
            return low & mask
        raise SimulationError(f"unknown unary op {op!r}")

    def _extract(self, frame: _Frame, instr: Extract) -> int:
        pos = self._operand(frame, instr.pos)
        shift, field_mask = field_parameters(self.machine, pos, instr.width)
        field = (frame.regs[instr.src.index] >> shift) & field_mask
        if instr.signed and field & (1 << (8 * instr.width - 1)):
            field -= 1 << (8 * instr.width)
        return field & self._mask

    def _insert(self, frame: _Frame, instr: Insert) -> int:
        pos = self._operand(frame, instr.pos)
        shift, field_mask = field_parameters(self.machine, pos, instr.width)
        acc = self._operand(frame, instr.acc)
        src = self._operand(frame, instr.src) & field_mask
        return (acc & ~(field_mask << shift) & self._mask) | (src << shift)

    def _relation(self, rel: str, a: int, b: int) -> bool:
        if rel == "eq":
            return a == b
        if rel == "ne":
            return a != b
        if rel in ("ltu", "leu", "gtu", "geu"):
            if rel == "ltu":
                return a < b
            if rel == "leu":
                return a <= b
            if rel == "gtu":
                return a > b
            return a >= b
        sa, sb = self._signed(a), self._signed(b)
        if rel == "lt":
            return sa < sb
        if rel == "le":
            return sa <= sb
        if rel == "gt":
            return sa > sb
        if rel == "ge":
            return sa >= sb
        raise SimulationError(f"unknown relation {rel!r}")
