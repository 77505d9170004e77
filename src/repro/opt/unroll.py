"""Loop unrolling with a remainder epilogue, plus IV compaction.

The paper unrolls loops to expose coalescible narrow references (Figure 2
line 7): "this routine, if necessary, produces code to execute the loop
body enough times so that the number of iterations of the main loop is a
multiple of the unrolling factor".  We place the remainder *after* the
main loop::

    preheader:   t = trip count                      (runtime arithmetic)
                 rem = t mod k
                 bound' = bound -/+ rem*step
    mainguard:   if iv REL bound' goto main else epiguard
    main:        <k body copies, IVs compacted>
                 if iv REL bound' goto main else epiguard
    epiguard:    if iv REL bound goto epilogue else exit
    epilogue:    <one body copy>; if iv REL bound goto epilogue else exit

Remainder-last rather than the remainder-first of the paper's Figure 5 for
a concrete reason: a leading remainder advances the pointers *off* the
wide alignment boundary, so the coalescer's run-time alignment check would
route every non-multiple trip count to the fallback loop.  With the
remainder trailing, the main loop starts at the (aligned) array bases and
the check passes whenever the data is aligned — the paper's measured
configuration gets the same effect from its ``n % 4`` versioning check
(§2.2), which remains available via ``versioned_divisibility``.

IV compaction implements the paper's ``CalculateRelativeOffsets`` +
``EliminateInductionVariables``: the k per-copy pointer increments are
deleted, memory displacements absorb the accumulated offsets
(``[p+0], [p+2], ..., [p+2(k-1)]``), and one combined increment remains at
the bottom — producing Figure 1c's address pattern.

The unrolling heuristic is the paper's: the unrolled body must still fit
in the instruction cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.induction import find_basic_ivs
from repro.analysis.loops import Loop, ensure_preheader, find_loops
from repro.analysis.tripcount import TripCount, analyze_trip_count
from repro.errors import PassError
from repro.ir.function import BasicBlock, Function
from repro.ir.rtl import (
    BinOp,
    CondJump,
    Const,
    Instr,
    Jump,
    Load,
    Reg,
    Store,
)
from repro.opt.pass_manager import PassContext, function_pass

_STRICT_RELS = frozenset({"lt", "gt", "ltu", "gtu"})
_EQUAL_RELS = frozenset({"le", "ge", "leu", "geu"})


@dataclass
class UnrollDecision:
    """Why a loop was (or was not) unrolled, and by how much."""

    factor: int
    reason: str


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


def _emit_udiv_const(
    func: Function, out: List[Instr], value: Reg, divisor: int
) -> Reg:
    result = func.new_reg("t")
    if _is_power_of_two(divisor):
        out.append(
            BinOp("shrl", result, value, Const(divisor.bit_length() - 1))
        )
    else:
        out.append(BinOp("divu", result, value, Const(divisor)))
    return result


def _emit_umod_const(
    func: Function, out: List[Instr], value: Reg, divisor: int
) -> Reg:
    result = func.new_reg("t")
    if _is_power_of_two(divisor):
        out.append(BinOp("and", result, value, Const(divisor - 1)))
    else:
        out.append(BinOp("remu", result, value, Const(divisor)))
    return result


def emit_trip_count(
    func: Function, out: List[Instr], trip: TripCount
) -> Reg:
    """Emit preheader code computing the number of remaining iterations.

    Valid only where the loop is known to execute at least once (our
    rotated loops guarantee this at the preheader).
    """
    step = abs(trip.step)
    span = func.new_reg("range")
    if trip.step > 0:
        out.append(BinOp("sub", span, trip.bound, trip.iv.reg))
    else:
        out.append(BinOp("sub", span, trip.iv.reg, trip.bound))
    if trip.rel in _STRICT_RELS:
        rounded = func.new_reg("t")
        out.append(BinOp("add", rounded, span, Const(step - 1)))
        return _emit_udiv_const(func, out, rounded, step)
    if trip.rel in _EQUAL_RELS:
        quotient = _emit_udiv_const(func, out, span, step)
        result = func.new_reg("trips")
        out.append(BinOp("add", result, quotient, Const(1)))
        return result
    # 'ne': tripcount analysis guarantees |step| == 1.
    return span if step == 1 else _emit_udiv_const(func, out, span, step)


def _upward_exposed(instrs: List[Instr]) -> Set[int]:
    """Registers read before being written within the sequence."""
    exposed: Set[int] = set()
    defined: Set[int] = set()
    for instr in instrs:
        for reg in instr.uses():
            if reg.index not in defined:
                exposed.add(reg.index)
        for reg in instr.defs():
            defined.add(reg.index)
    return exposed


def _clone_body_renamed(
    func: Function, body: List[Instr], exposed: Set[int]
) -> List[Instr]:
    """Clone a body copy, renaming iteration-local registers."""
    rename: Dict[Reg, Reg] = {}
    copies: List[Instr] = []
    for instr in body:
        clone = instr.clone()
        # Uses of previously renamed registers read this copy's values.
        clone.substitute_uses(dict(rename))
        for reg in clone.defs():
            if reg.index not in exposed:
                if reg not in rename:
                    rename[reg] = func.new_reg(reg.name)
        clone.substitute_defs(
            {old: new for old, new in rename.items()}
        )
        copies.append(clone)
    return copies


def compact_ivs(func: Function, block: BasicBlock) -> bool:
    """Fold repeated IV increments into displacements + one increment.

    Treats the block as a single-block loop body: registers whose only
    in-block definitions are ``r = r ± const`` are compactable.  Non-memory
    uses at a nonzero offset get a materialized add (rare; the loop-closing
    compare sits after the combined increment, at offset zero).
    """
    # Identify compactable registers and their per-def increments.
    increments: Dict[int, List[int]] = {}
    disqualified: Set[int] = set()
    for index, instr in enumerate(block.instrs):
        for reg in instr.defs():
            amount = _increment_pattern(instr, reg.index)
            if amount is None:
                disqualified.add(reg.index)
            else:
                increments.setdefault(reg.index, []).append(index)
    targets = {
        reg_index: sites
        for reg_index, sites in increments.items()
        if reg_index not in disqualified and len(sites) > 1
    }
    if not targets:
        return False

    offsets: Dict[int, int] = {reg_index: 0 for reg_index in targets}
    remaining: Dict[int, int] = {
        reg_index: len(sites) for reg_index, sites in targets.items()
    }
    new_instrs: List[Instr] = []
    for index, instr in enumerate(block.instrs):
        # Is this one of the increments being folded?
        folded = False
        for reg_index in targets:
            if index in targets[reg_index]:
                amount = _increment_pattern(instr, reg_index)
                offsets[reg_index] += amount
                remaining[reg_index] -= 1
                if remaining[reg_index] == 0:
                    # Last site: emit the combined increment here.
                    reg = instr.defs()[0]
                    new_instrs.append(
                        BinOp("add", reg, reg, Const(offsets[reg_index]))
                    )
                    offsets[reg_index] = 0
                folded = True
                break
        if folded:
            continue
        # Fold pending offsets into memory displacements.
        if isinstance(instr, (Load, Store)):
            base_offset = offsets.get(instr.base.index, 0)
            if base_offset:
                instr.disp += base_offset
            # Store value operands handled below like any other use.
        for reg in list(instr.uses()):
            pending = offsets.get(reg.index, 0)
            if pending == 0:
                continue
            if isinstance(instr, (Load, Store)) and (
                reg.index == instr.base.index
            ):
                continue  # already folded into disp
            shifted = func.new_reg("adj")
            new_instrs.append(BinOp("add", shifted, reg, Const(pending)))
            instr.substitute_uses({reg: shifted})
        new_instrs.append(instr)
    block.instrs = new_instrs
    return True


def _increment_pattern(instr: Instr, reg_index: int) -> Optional[int]:
    if not isinstance(instr, BinOp) or instr.dst.index != reg_index:
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


@function_pass
def unroll_counted_loop(
    func: Function,
    ctx: PassContext,
    loop: Loop,
    factor: int,
) -> bool:
    """Unroll a single-block counted loop by ``factor`` (remainder first).

    Returns False (leaving the function untouched) when the loop shape is
    unsupported.  Raises :class:`PassError` for nonsensical factors.
    """
    if factor < 2:
        raise PassError(f"unroll factor must be >= 2, got {factor}")
    if len(loop.blocks) != 1 or loop.header not in loop.latches:
        return False
    trip = analyze_trip_count(func, loop)
    if trip is None:
        return False
    header = func.block(loop.header)
    body = header.body
    terminator = header.terminator
    if not isinstance(terminator, CondJump):
        return False

    preheader = ensure_preheader(func, loop)

    # 1. Preheader arithmetic: trips, remainder, and the shifted bound the
    #    main loop runs against.
    setup: List[Instr] = []
    trips = emit_trip_count(func, setup, trip)
    remainder = _emit_umod_const(func, setup, trips, factor)
    magnitude = abs(trip.step)
    adjust: Reg = remainder
    if magnitude != 1:
        adjust = func.new_reg("adj")
        if _is_power_of_two(magnitude):
            setup.append(
                BinOp(
                    "shl", adjust, remainder,
                    Const(magnitude.bit_length() - 1),
                )
            )
        else:
            setup.append(BinOp("mul", adjust, remainder, Const(magnitude)))
    main_bound = func.new_reg("mbound")
    direction = "sub" if trip.step > 0 else "add"
    setup.append(BinOp(direction, main_bound, trip.bound, adjust))
    preheader.instrs = (
        preheader.instrs[:-1] + setup + [preheader.instrs[-1]]
    )

    entry_label = func.new_label("unentry")
    guard_label = func.new_label("unguard")
    epiguard_label = func.new_label("epiguard")
    epilogue_label = func.new_label("epilogue")

    preheader.retarget(loop.header, entry_label)

    # Post-tested (do-while style) loops can be entered with the continue
    # condition already false, yet must run once; the trip-count
    # arithmetic above is meaningless in that case.  Route such entries
    # straight to the epilogue, which preserves run-at-least-once
    # semantics exactly.
    entry_check = BasicBlock(
        entry_label,
        [
            CondJump(
                trip.rel, trip.iv.reg, trip.bound,
                guard_label, epilogue_label,
            )
        ],
    )
    guard = BasicBlock(
        guard_label,
        [
            CondJump(
                trip.rel, trip.iv.reg, main_bound,
                loop.header, epiguard_label,
            )
        ],
    )
    epiguard = BasicBlock(
        epiguard_label,
        [
            CondJump(
                trip.rel, trip.iv.reg, trip.bound,
                epilogue_label, trip.exit_label,
            )
        ],
    )
    epilogue_instrs = [i.clone() for i in body]
    epilogue_instrs.append(
        CondJump(
            trip.rel, trip.iv.reg, trip.bound,
            epilogue_label, trip.exit_label,
        )
    )
    epilogue = BasicBlock(epilogue_label, epilogue_instrs)

    func.blocks.insert(func.block_index(loop.header), entry_check)
    func.blocks.insert(func.block_index(loop.header), guard)
    after = func.block_index(loop.header) + 1
    func.blocks.insert(after, epiguard)
    func.blocks.insert(after + 1, epilogue)

    # 2. The unrolled main body: k copies, iteration-locals renamed; the
    #    loop-closing test now runs against the shifted bound.
    exposed = _upward_exposed(body)
    unrolled: List[Instr] = [i for i in body]
    for _ in range(factor - 1):
        unrolled.extend(_clone_body_renamed(func, body, exposed))
    header.instrs = unrolled + [
        CondJump(
            trip.rel, trip.iv.reg, main_bound,
            loop.header, epiguard_label,
        )
    ]

    # 3. Compact the now-repeated IV increments into displacements.
    compact_ivs(func, header)
    return True


def estimate_unrolled_footprint(
    body_instr_count: int, factor: int, ctx: PassContext
) -> int:
    """Estimated I-cache bytes of the unrolled, *lowered* loop body.

    Machines without narrow memory operations (the Alpha) roughly triple a
    narrow-reference body during lowering, so the estimate is generous.
    """
    machine = ctx.machine
    expansion = 3 if machine.load_widths != (1, 2, 4) else 2
    return body_instr_count * factor * expansion * machine.instr_bytes


def choose_unroll_factor(
    func: Function, ctx: PassContext, loop: Loop
) -> UnrollDecision:
    """The paper's heuristic: coalescing-sized factor, shrunk to fit the
    instruction cache."""
    machine = ctx.machine
    header = func.block(loop.header)
    narrow_widths = [
        i.width
        for i in header.instrs
        if isinstance(i, (Load, Store)) and i.width < machine.word_bytes
        and not i.unaligned
    ]
    if narrow_widths:
        factor = machine.word_bytes // min(narrow_widths)
        reason = "coalescing width"
    else:
        factor = 4
        reason = "default"
    body_count = len(header.instrs)
    while factor >= 2 and (
        estimate_unrolled_footprint(body_count, factor, ctx)
        > machine.icache.size_bytes
    ):
        factor //= 2
        reason = "shrunk to fit the instruction cache"
    if factor < 2:
        return UnrollDecision(1, "body too large for the instruction cache")
    return UnrollDecision(factor, reason)


@function_pass
def unroll_function(
    func: Function,
    ctx: PassContext,
    factor: Optional[int] = None,
) -> bool:
    """Unroll every eligible single-block counted loop of ``func``."""
    changed = False
    for loop in find_loops(func):
        if len(loop.blocks) != 1:
            continue
        if not func.has_block(loop.header):
            continue
        decision = (
            UnrollDecision(factor, "caller override")
            if factor is not None
            else choose_unroll_factor(func, ctx, loop)
        )
        if decision.factor < 2:
            continue
        if unroll_counted_loop(func, ctx, loop, decision.factor):
            changed = True
    return changed
