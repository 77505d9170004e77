"""Strength reduction of affine induction expressions + linear function
test replacement (LFTR).

Array addressing reaching this pass looks like::

    t1 = sub  y, 1            # loop-invariant pieces
    t2 = mul  t1, width
    t3 = add  x, 1            # x is the induction variable
    t4 = add  t2, t3
    a  = add  src, t4
    r  = load.1u [a]

The pass resolves each address register into a **linear form**
``c + Σ coef_i · inv_i + m · iv`` by walking single-definition chains
inside the loop body, then rewrites it into a pointer induction variable::

    preheader:  p = c + Σ coef_i·inv_i + m·iv     (iv holds its start here)
    loop:       ... M[p + d] ...
                p = p + m·step                    (after each iv increment)

LFTR afterwards replaces the loop-closing test ``iv REL bound`` with the
pointer test ``p REL' (p + m·(bound − iv))`` — computed in the preheader —
after which dead-code elimination retires the original counter.  ``REL'``
is the unsigned image of ``REL``, direction-flipped when ``m < 0`` (a
backwards-walking pointer, e.g. the mirror benchmark's ``dst[w-1-x]``).

The result is the canonical pointer-increment loop of the paper's
Figure 1b, the shape the unroller and the coalescer consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.induction import BasicIV, find_basic_ivs
from repro.analysis.loops import Loop, ensure_preheader, find_loops
from repro.analysis.tripcount import analyze_trip_count
from repro.ir.function import BasicBlock, Function
from repro.ir.rtl import BinOp, CondJump, Const, Instr, Load, Mov, Reg, Store
from repro.opt.pass_manager import PassContext, function_pass

_TO_UNSIGNED = {
    "lt": "ltu", "le": "leu", "gt": "gtu", "ge": "geu",
    "eq": "eq", "ne": "ne",
    "ltu": "ltu", "leu": "leu", "gtu": "gtu", "geu": "geu",
}
_FLIP = {
    "ltu": "gtu", "leu": "geu", "gtu": "ltu", "geu": "leu",
    "eq": "eq", "ne": "ne",
}


@dataclass
class LinearForm:
    """``constant + Σ coefs[reg_index]·reg + iv_coef·iv``."""

    constant: int = 0
    coefs: Dict[int, int] = field(default_factory=dict)  # invariant regs
    iv_index: Optional[int] = None
    iv_coef: int = 0

    def add(self, other: "LinearForm", sign: int) -> Optional["LinearForm"]:
        result = LinearForm(self.constant + sign * other.constant,
                            dict(self.coefs), self.iv_index, self.iv_coef)
        for reg_index, coef in other.coefs.items():
            result.coefs[reg_index] = (
                result.coefs.get(reg_index, 0) + sign * coef
            )
        if other.iv_index is not None:
            if result.iv_index is None:
                result.iv_index = other.iv_index
                result.iv_coef = sign * other.iv_coef
            elif result.iv_index == other.iv_index:
                result.iv_coef += sign * other.iv_coef
            else:
                return None  # two different IVs: out of scope
        result.coefs = {r: c for r, c in result.coefs.items() if c}
        if result.iv_coef == 0:
            result.iv_index = None
        return result

    def scale(self, factor: int) -> "LinearForm":
        return LinearForm(
            self.constant * factor,
            {r: c * factor for r, c in self.coefs.items() if c * factor},
            self.iv_index if self.iv_coef * factor else None,
            self.iv_coef * factor,
        )

    @property
    def is_constant(self) -> bool:
        return not self.coefs and self.iv_index is None


class _Resolver:
    """Resolve registers to linear forms inside one loop block."""

    def __init__(
        self,
        func: Function,
        block: BasicBlock,
        ivs: Dict[int, BasicIV],
        def_counts: Dict[int, int],
    ):
        self.func = func
        self.block = block
        self.ivs = ivs
        self.def_counts = def_counts
        # Single in-loop definition sites within this block.
        self.def_site: Dict[int, int] = {}
        for index, instr in enumerate(block.instrs):
            for reg in instr.defs():
                if def_counts.get(reg.index, 0) == 1:
                    self.def_site[reg.index] = index
        self.cache: Dict[int, Optional[LinearForm]] = {}

    def resolve_reg(self, reg_index: int, depth: int = 0) -> Optional[LinearForm]:
        if depth > 16:
            return None
        if reg_index in self.cache:
            return self.cache[reg_index]
        self.cache[reg_index] = None  # cycle guard
        result = self._resolve_uncached(reg_index, depth)
        self.cache[reg_index] = result
        return result

    def _resolve_uncached(
        self, reg_index: int, depth: int
    ) -> Optional[LinearForm]:
        if reg_index in self.ivs:
            return LinearForm(0, {}, reg_index, 1)
        if self.def_counts.get(reg_index, 0) == 0:
            return LinearForm(0, {reg_index: 1})  # loop-invariant
        site = self.def_site.get(reg_index)
        if site is None:
            return None
        instr = self.block.instrs[site]
        if isinstance(instr, Mov):
            return self.resolve_operand(instr.src, depth + 1)
        if not isinstance(instr, BinOp):
            return None
        a = self.resolve_operand(instr.a, depth + 1)
        b = self.resolve_operand(instr.b, depth + 1)
        if a is None or b is None:
            return None
        if instr.op == "add":
            return a.add(b, 1)
        if instr.op == "sub":
            return a.add(b, -1)
        if instr.op == "mul":
            if b.is_constant:
                return a.scale(b.constant)
            if a.is_constant:
                return b.scale(a.constant)
            return None
        if instr.op == "shl" and b.is_constant and 0 <= b.constant < 32:
            return a.scale(1 << b.constant)
        return None

    def resolve_operand(self, operand, depth: int) -> Optional[LinearForm]:
        if isinstance(operand, Const):
            return LinearForm(operand.value)
        return self.resolve_reg(operand.index, depth)


@dataclass
class _Candidate:
    loop: Loop
    iv: BasicIV
    block_label: str
    addr_index: int
    addr_reg: Reg
    form: LinearForm
    use_indices: List[int]

    def sharing_key(self) -> Tuple:
        """Two candidates with equal keys differ only by a constant, so
        they can share one pointer (``src[x-1]``/``src[x]``/``src[x+1]``
        all ride the same register, distinguished by displacement)."""
        return (
            self.form.iv_index,
            self.form.iv_coef,
            tuple(sorted(self.form.coefs.items())),
        )

    def only_memory_base_uses(self, block: BasicBlock) -> bool:
        """Whether every use is as a Load/Store base register (required
        for folding a constant delta into displacements)."""
        for index in self.use_indices:
            instr = block.instrs[index]
            if not isinstance(instr, (Load, Store)):
                return False
            if instr.base.index != self.addr_reg.index:
                return False
            if (
                isinstance(instr, Store)
                and isinstance(instr.src, Reg)
                and instr.src.index == self.addr_reg.index
            ):
                return False
        return True


def _loop_def_counts(func: Function, loop: Loop) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for label in loop.blocks:
        for instr in func.block(label).instrs:
            for reg in instr.defs():
                counts[reg.index] = counts.get(reg.index, 0) + 1
    return counts


def _find_candidate(
    func: Function, loop: Loop, ivs: Dict[int, BasicIV]
) -> Optional[_Candidate]:
    """Find an address register with an affine form worth reducing."""
    def_counts = _loop_def_counts(func, loop)
    # Layout order, not set order: which candidate comes first must not
    # depend on string hashing.
    for block in [b for b in func.blocks if b.label in loop.blocks]:
        label = block.label
        resolver = _Resolver(func, block, ivs, def_counts)
        # Candidate address registers: bases of memory references whose
        # defining instruction lives in this block.
        seen: Set[int] = set()
        for instr in block.instrs:
            if not isinstance(instr, (Load, Store)):
                continue
            base = instr.base
            if base.index in seen or base.index in ivs:
                continue
            seen.add(base.index)
            if def_counts.get(base.index, 0) != 1:
                continue
            site = resolver.def_site.get(base.index)
            if site is None:
                continue
            form = resolver.resolve_reg(base.index)
            if form is None or form.iv_index is None:
                continue
            candidate = _build_candidate(
                func, loop, ivs[form.iv_index], label, site,
                block.instrs[site].defs()[0], form,
            )
            if candidate is not None:
                return candidate
    return None


def _build_candidate(
    func: Function,
    loop: Loop,
    iv: BasicIV,
    label: str,
    addr_index: int,
    addr_reg: Reg,
    form: LinearForm,
) -> Optional[_Candidate]:
    """Validate the rewrite window for an address computation."""
    block = func.block(label)
    increment_indices = {
        index for (site_label, index) in iv.sites if site_label == label
    }
    window_end = len(block.instrs)
    for index in range(addr_index + 1, len(block.instrs)):
        if index in increment_indices:
            window_end = index
            break
        if any(
            r.index == addr_reg.index for r in block.instrs[index].defs()
        ):
            window_end = index
            break

    use_indices: List[int] = []
    for index in range(addr_index + 1, window_end):
        if any(
            r.index == addr_reg.index for r in block.instrs[index].uses()
        ):
            use_indices.append(index)

    # Any use of addr_reg outside the window makes the rewrite unsafe.
    for other_label in loop.blocks:
        other_block = func.block(other_label)
        for index, instr in enumerate(other_block.instrs):
            if not any(r.index == addr_reg.index for r in instr.uses()):
                continue
            if other_label == label and index in use_indices:
                continue
            return None
    if not use_indices:
        return None
    return _Candidate(loop, iv, label, addr_index, addr_reg, form,
                      use_indices)


def _emit_linear(
    func: Function, out: List[Instr], form: LinearForm, iv_value
) -> Reg:
    """Emit instructions computing ``form`` with ``iv`` = ``iv_value``."""
    terms: List = []
    for reg_index, coef in sorted(form.coefs.items()):
        terms.append((Reg(reg_index), coef))
    if form.iv_index is not None:
        terms.append((iv_value, form.iv_coef))

    acc: Optional[Reg] = None
    for value, coef in terms:
        scaled = value
        magnitude = abs(coef)
        if magnitude != 1:
            scaled = func.new_reg("t")
            if magnitude & (magnitude - 1) == 0:
                out.append(
                    BinOp("shl", scaled, value,
                          Const(magnitude.bit_length() - 1))
                )
            else:
                out.append(BinOp("mul", scaled, value, Const(magnitude)))
        if acc is None:
            if coef < 0:
                negated = func.new_reg("t")
                from repro.ir.rtl import UnOp

                out.append(UnOp("neg", negated, scaled))
                acc = negated
            else:
                acc = scaled if isinstance(scaled, Reg) else None
                if acc is None:
                    acc = func.new_reg("t")
                    out.append(Mov(acc, scaled))
        else:
            combined = func.new_reg("t")
            out.append(
                BinOp("sub" if coef < 0 else "add", combined, acc, scaled)
            )
            acc = combined
    if acc is None:
        acc = func.new_reg("t")
        out.append(Mov(acc, Const(form.constant)))
        return acc
    if form.constant:
        combined = func.new_reg("t")
        out.append(BinOp("add", combined, acc, Const(form.constant)))
        acc = combined
    return acc


def _apply_candidate(
    func: Function, candidate: _Candidate
) -> Tuple[Reg, int, int]:
    """Perform the rewrite; returns (pointer, iv_coef, iv index)."""
    loop = candidate.loop
    iv = candidate.iv
    preheader = ensure_preheader(func, loop)

    init: List[Instr] = []
    pointer = _emit_linear(func, init, candidate.form, iv.reg)
    preheader.instrs = preheader.instrs[:-1] + init + [preheader.instrs[-1]]

    block = func.block(candidate.block_label)
    mapping = {candidate.addr_reg: pointer}
    for index in candidate.use_indices:
        block.instrs[index].substitute_uses(mapping)

    # Advance the pointer wherever the IV advances.
    sites_by_block: Dict[str, List[int]] = {}
    for site_label, index in iv.sites:
        sites_by_block.setdefault(site_label, []).append(index)
    for site_label, indices in sites_by_block.items():
        site_block = func.block(site_label)
        for index in sorted(indices, reverse=True):
            increment = site_block.instrs[index]
            step = _increment_amount(increment, iv.reg.index)
            site_block.instrs.insert(
                index + 1,
                BinOp("add", pointer, pointer,
                      Const(step * candidate.form.iv_coef)),
            )
    return pointer, candidate.form.iv_coef, iv.reg.index


def _increment_amount(instr: Instr, reg_index: int) -> int:
    assert isinstance(instr, BinOp)
    if instr.op == "add":
        const = instr.b if isinstance(instr.b, Const) else instr.a
        return const.value
    return -instr.b.value  # sub


def _apply_lftr(
    func: Function,
    header: str,
    derived: Tuple[Reg, int, int],
) -> bool:
    """Replace the loop-closing IV test with the pointer test."""
    pointer, iv_coef, iv_index = derived
    loops = [l for l in find_loops(func) if l.header == header]
    if not loops:
        return False
    loop = loops[0]
    ivs = find_basic_ivs(func, loop)
    if iv_index not in ivs or pointer.index not in ivs:
        return False
    trip = analyze_trip_count(func, loop, ivs)
    if trip is None or trip.iv.reg.index != iv_index:
        return False
    if iv_coef == 0:
        return False

    # pend = p + iv_coef * (bound - iv), computed in the preheader where
    # both p and iv hold their start values.
    preheader = ensure_preheader(func, loop)
    init: List[Instr] = []
    distance = func.new_reg("t")
    init.append(BinOp("sub", distance, trip.bound, trip.iv.reg))
    scaled: Reg = distance
    magnitude = abs(iv_coef)
    if magnitude != 1:
        scaled = func.new_reg("t")
        if magnitude & (magnitude - 1) == 0:
            init.append(
                BinOp("shl", scaled, distance,
                      Const(magnitude.bit_length() - 1))
            )
        else:
            init.append(BinOp("mul", scaled, distance, Const(magnitude)))
    new_bound = func.new_reg("pend")
    init.append(
        BinOp("sub" if iv_coef < 0 else "add", new_bound, pointer, scaled)
    )
    preheader.instrs = preheader.instrs[:-1] + init + [preheader.instrs[-1]]

    rel = _TO_UNSIGNED[trip.rel]
    if iv_coef < 0:
        rel = _FLIP[rel]
    latch = func.block(trip.latch_label)
    latch.instrs[-1] = CondJump(
        rel, pointer, new_bound, loop.header, trip.exit_label
    )
    return True


def _reuse_pointer(
    func: Function,
    candidate: _Candidate,
    pointer: Reg,
    pointer_constant: int,
) -> None:
    """Rewrite a candidate onto an existing shared pointer.

    The delta between the two linear forms folds into the memory
    displacements (``src[x+1]`` becomes ``[p + 2]`` when ``p`` tracks
    ``src[x-1]``), so no new register or increment is needed.
    """
    delta = candidate.form.constant - pointer_constant
    block = func.block(candidate.block_label)
    for index in candidate.use_indices:
        instr = block.instrs[index]
        assert isinstance(instr, (Load, Store))
        instr.base = pointer
        instr.disp += delta


@function_pass
def strength_reduce(func: Function, ctx: PassContext) -> bool:
    """Run strength reduction + LFTR over every loop of ``func``."""
    changed = False
    derived_by_header: Dict[str, Tuple[Reg, int, int]] = {}
    # (header, sharing_key) -> (pointer reg, its form's constant)
    shared: Dict[Tuple, Tuple[Reg, int]] = {}

    for _ in range(100):
        applied = False
        for loop in find_loops(func):
            ivs = find_basic_ivs(func, loop)
            if not ivs:
                continue
            candidate = _find_candidate(func, loop, ivs)
            if candidate is None:
                continue
            share_key = (loop.header,) + candidate.sharing_key()
            block = func.block(candidate.block_label)
            memory_only = candidate.only_memory_base_uses(block)
            if share_key in shared and memory_only:
                pointer, constant = shared[share_key]
                _reuse_pointer(func, candidate, pointer, constant)
            else:
                derived = _apply_candidate(func, candidate)
                derived_by_header.setdefault(loop.header, derived)
                if memory_only:
                    shared[share_key] = (
                        derived[0], candidate.form.constant
                    )
            applied = changed = True
            break
        if not applied:
            break

    for header, derived in derived_by_header.items():
        if func.has_block(header):
            if _apply_lftr(func, header, derived):
                changed = True
    return changed
