"""Linear-scan register allocation (Poletto–Sarkar).

The rest of the pipeline works on unlimited virtual registers, as vpo's
RTL does before its allocator runs; this pass binds them to the target's
finite register file so register pressure becomes observable (spill code
is real loads and stores that the cycle model charges).

Intervals are conservative: one ``[first, last]`` position range per
virtual register over the linearized function, widened to block
boundaries wherever the register is live-in/live-out, which is safe for
any block layout including loops.  When the active set overflows, the
interval with the furthest end spills to a frame slot; spilled registers
are rewritten load-before-use / store-after-def through reserved scratch
registers.

Opt-in (``PipelineConfig.regalloc=True``): the paper's kernels fit the
32-register machines comfortably, and keeping virtual registers by
default makes the transformation tests independent of allocation noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.liveness import liveness
from repro.errors import PassError
from repro.ir.function import Function
from repro.ir.rtl import Instr, Load, Reg, Store
from repro.opt.pass_manager import PassContext, function_pass

# Registers reserved for spill-code temporaries (an instruction reads at
# most three registers).
SCRATCH_COUNT = 3


@dataclass
class Interval:
    reg_index: int
    start: int
    end: int

    def __repr__(self) -> str:
        return f"<Interval r{self.reg_index} [{self.start},{self.end}]>"


@dataclass
class AllocationResult:
    """What the allocator did — useful for tests and reports."""

    assignment: Dict[int, int]      # virtual index -> physical index
    spilled: Set[int]
    spill_loads: int = 0
    spill_stores: int = 0

    @property
    def registers_used(self) -> int:
        return len(set(self.assignment.values()))


def _build_intervals(func: Function) -> List[Interval]:
    info = liveness(func)
    first: Dict[int, int] = {}
    last: Dict[int, int] = {}

    def touch(reg_index: int, position: int) -> None:
        if reg_index not in first or position < first[reg_index]:
            first[reg_index] = position
        if reg_index not in last or position > last[reg_index]:
            last[reg_index] = position

    position = 0
    for param in func.params:
        touch(param.index, 0)
    for block in func.blocks:
        block_start = position
        for instr in block.instrs:
            for reg in instr.uses():
                touch(reg.index, position)
            for reg in instr.defs():
                touch(reg.index, position)
            position += 1
        block_end = position - 1 if position > block_start else block_start
        for reg_index in info.live_in[block.label]:
            touch(reg_index, block_start)
        for reg_index in info.live_out[block.label]:
            touch(reg_index, block_end)
    return sorted(
        (Interval(reg_index, first[reg_index], last[reg_index])
         for reg_index in first),
        key=lambda interval: (interval.start, interval.end),
    )


def _scan(
    intervals: List[Interval], available: int
) -> Tuple[Dict[int, int], Set[int]]:
    """Classic linear scan; returns (assignment, spilled set)."""
    free = list(range(available - 1, -1, -1))  # pop() yields r0 first
    active: List[Interval] = []
    assignment: Dict[int, int] = {}
    spilled: Set[int] = set()

    for interval in intervals:
        # Expire finished intervals.
        still_active = []
        for old in active:
            if old.end < interval.start:
                free.append(assignment[old.reg_index])
            else:
                still_active.append(old)
        active = still_active

        if free:
            assignment[interval.reg_index] = free.pop()
            active.append(interval)
            active.sort(key=lambda i: i.end)
            continue

        # Spill the interval that ends furthest away.
        victim = active[-1]
        if victim.end > interval.end:
            assignment[interval.reg_index] = assignment.pop(
                victim.reg_index
            )
            spilled.add(victim.reg_index)
            active[-1] = interval
            active.sort(key=lambda i: i.end)
        else:
            spilled.add(interval.reg_index)
    return assignment, spilled


@function_pass
def allocate_registers(
    func: Function,
    ctx: PassContext,
    num_registers: Optional[int] = None,
) -> AllocationResult:
    """Bind ``func``'s virtual registers to the machine's register file."""
    total = num_registers or ctx.machine.num_registers
    if total <= SCRATCH_COUNT + 1:
        raise PassError(
            f"cannot allocate with only {total} registers"
        )
    available = total - SCRATCH_COUNT
    scratch_base = available  # scratch regs live above the allocatable set

    intervals = _build_intervals(func)
    assignment, spilled = _scan(intervals, available)
    result = AllocationResult(assignment, spilled)

    # Frame slots for the spilled registers.
    slot_of: Dict[int, str] = {}
    word = ctx.machine.word_bytes
    for reg_index in sorted(spilled):
        slot_of[reg_index] = func.add_frame_slot(
            f"spill.r{reg_index}", word, word
        )

    def physical(reg: Reg) -> Reg:
        return Reg(assignment[reg.index], reg.name)

    for block in func.blocks:
        rewritten: List[Instr] = []
        for instr in block.instrs:
            prologue: List[Instr] = []
            epilogue: List[Instr] = []
            use_map: Dict[Reg, Reg] = {}
            scratch_next = 0
            for reg in instr.uses():
                if reg.index in spilled and reg not in use_map:
                    scratch = Reg(scratch_base + scratch_next,
                                  f"sp{reg.index}")
                    scratch_next += 1
                    prologue.extend(
                        _frame_load(func, slot_of[reg.index], scratch,
                                    word)
                    )
                    use_map[reg] = scratch
                    result.spill_loads += 1
                elif reg.index not in spilled:
                    use_map[reg] = physical(reg)
            if use_map:
                instr.substitute_uses(dict(use_map))
            def_map: Dict[Reg, Reg] = {}
            for reg in instr.defs():
                if reg.index in spilled:
                    scratch = Reg(scratch_base + SCRATCH_COUNT - 1,
                                  f"sp{reg.index}")
                    def_map[reg] = scratch
                    epilogue.extend(
                        _frame_store(
                            func, slot_of[reg.index], scratch,
                            Reg(scratch_base, "spaddr"), word,
                        )
                    )
                    result.spill_stores += 1
                else:
                    def_map[reg] = physical(reg)
            if def_map:
                instr.substitute_defs(def_map)
            rewritten.extend(prologue)
            rewritten.append(instr)
            rewritten.extend(epilogue)
        # Terminator must stay last: spill stores after a terminator are
        # impossible (terminators define nothing), but keep the invariant
        # explicit.
        block.instrs = rewritten

    # Parameters arrive in their virtual registers; rebind them.
    new_params: List[Reg] = []
    entry_prologue: List[Instr] = []
    spilled_param_count = sum(
        1 for p in func.params if p.index in spilled
    )
    if spilled_param_count >= SCRATCH_COUNT:
        raise PassError(
            f"{func.name}: too many spilled parameters "
            f"({spilled_param_count})"
        )
    next_incoming = 0
    for param in func.params:
        if param.index in spilled:
            # Land the incoming value in a scratch and store it; the
            # address goes through the last scratch register.
            incoming = Reg(scratch_base + next_incoming, param.name)
            next_incoming += 1
            entry_prologue.extend(
                _frame_store(
                    func, slot_of[param.index], incoming,
                    Reg(scratch_base + SCRATCH_COUNT - 1, "spaddr"),
                    word,
                )
            )
            new_params.append(incoming)
        else:
            new_params.append(physical(param))
    if entry_prologue:
        entry = func.entry
        entry.instrs = entry_prologue + entry.instrs
    func.params = new_params
    func.reserve_reg_index(total)
    return result


def _frame_load(func: Function, slot: str, dst: Reg, word: int) -> List[Instr]:
    """Reload a spilled value: materialize the slot address into ``dst``
    then load through it — two instructions, no extra scratch needed."""
    from repro.ir.rtl import FrameAddr

    return [
        FrameAddr(dst, slot),
        Load(dst, dst, 0, word, signed=False),
    ]


def _frame_store(
    func: Function, slot: str, src: Reg, addr_scratch: Reg, word: int
) -> List[Instr]:
    """Store a spilled definition back to its frame slot."""
    from repro.ir.rtl import FrameAddr

    return [
        FrameAddr(addr_scratch, slot),
        Store(addr_scratch, 0, src, word),
    ]
