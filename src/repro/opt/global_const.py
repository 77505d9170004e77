"""Global (cross-block) constant propagation.

Block-local propagation misses the common pattern where a counter is
zeroed in the entry block and consumed in a loop preheader; this pass
closes that gap: a use is replaced when *every* definition reaching it
moves the same constant.

The engine is a sparse worklist over def-use chains
(:mod:`repro.analysis.defuse`): constant-moving
definitions seed the worklist, each one visits only its recorded uses,
and a copy whose source collapses to a constant re-enters the worklist —
so a whole chain ``a = 3; b = a; c = b`` retires in one invocation
instead of one fixpoint round per link.  The old implementation re-solved
reaching definitions and re-walked a block prefix per use
(``O(instructions²)``); this one touches each use a constant number of
times.  A function that moves no constant gives the worklist no seed,
so the pass returns ``False`` without asking for the chains at all.

Only a few registers can ever receive a constant: the destinations of
constant ``Mov``s and, transitively, of register copies of them (a copy
is the only instruction this pass can turn into a new constant source).
The scan that looks for a seed collects them, and the chains are solved
for those registers alone.  Reaching definitions are per register, so
those chains are exactly the full chains' entries for them; they are
built per call and not cached.

When a merge of *conflicting* constants blocks propagation the pass
reports a note through ``ctx.sink`` (when the sanitizer is listening), so
a differential failure attributed to this pass comes with the merge
points that decided what it did and did not rewrite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set

from repro.analysis.defuse import def_use_chains
from repro.ir.function import Function
from repro.ir.rtl import Const, Mov, Reg
from repro.opt.pass_manager import PassContext, function_pass


def constant_reachable(func: Function) -> Set[int]:
    """Indices of the registers a constant can reach: constant ``Mov``
    destinations, closed over register-to-register ``Mov``s."""
    reached: List[int] = []
    copies_of: Dict[int, List[int]] = {}  # source -> copy destinations
    for block in func.blocks:
        for instr in block.instrs:
            if type(instr) is Mov:
                source = instr.src
                if type(source) is Const:
                    reached.append(instr.dst.index)
                else:
                    copies_of.setdefault(source.index, []).append(
                        instr.dst.index
                    )
    found = set(reached)
    while reached:
        for dst in copies_of.get(reached.pop(), ()):
            if dst not in found:
                found.add(dst)
                reached.append(dst)
    return found


# Rewrites operands in place: definition sites, the CFG, and therefore
# the reaching-definition solution all survive unchanged.  (The def-use
# chains do not — this pass consumes the uses it rewrites.)
@function_pass
def global_const_prop(func: Function, ctx: PassContext) -> bool:
    # No constant-moving definition, no seed: the worklist would start
    # empty, so skip the reaching definitions and chains it never reads.
    registers = constant_reachable(func)
    if not registers:
        return False
    chains = def_use_chains(func, registers)

    # Seed: every definition site that moves a constant.
    blocks = chains.reaching.blocks
    const_of: Dict[tuple, int] = {}
    worklist = deque()
    for site in chains.reaching.sites:
        label, index = site
        instr = blocks[label].instrs[index]
        if isinstance(instr, Mov) and isinstance(instr.src, Const):
            const_of[site] = instr.src.value
            worklist.append(site)

    changed = False
    rewritten: Set[tuple] = set()
    reported: Set[tuple] = set()
    while worklist:
        site = worklist.popleft()
        for use in chains.uses_of.get(site, ()):
            if use in rewritten:
                continue
            label, index, reg_index = use
            sites = chains.defs_for[use]
            if not sites:
                continue  # undefined (a parameter): leave alone
            values = []
            for def_site in sites:
                value = const_of.get(def_site)
                if value is None and def_site not in const_of:
                    break  # a non-constant definition reaches too
                values.append(value)
            else:
                if len(set(values)) != 1:
                    _report_conflict(
                        ctx, func, use, sorted(set(values)), reported
                    )
                    continue
                instr = blocks[label].instrs[index]
                if any(
                    reg.index == reg_index
                    for reg in instr.register_only_uses()
                ):
                    continue  # e.g. an address must stay in a register
                instr.substitute_uses(
                    {Reg(reg_index): Const(values[0])}
                )
                rewritten.add(use)
                changed = True
                # A copy that just collapsed to `dst = const` is a new
                # constant source: revisit its uses.
                if isinstance(instr, Mov) and isinstance(instr.src, Const):
                    own_site = (label, index)
                    if own_site not in const_of:
                        const_of[own_site] = instr.src.value
                        worklist.append(own_site)
    return changed


def _report_conflict(
    ctx: PassContext,
    func: Function,
    use: tuple,
    values,
    reported: Set[tuple],
) -> None:
    """Note a constant merge conflict through the sanitizer sink."""
    if ctx.sink is None or use in reported:
        return
    reported.add(use)
    from repro.sanitize.diagnostics import Location

    label, index, reg_index = use
    ctx.sink.note(
        "global-const-prop",
        f"r{reg_index} merges conflicting constants "
        f"({', '.join(str(v) for v in values)}); not propagated",
        location=Location(func.name, label, index),
        provenance="global_const_prop",
        hint="the register is a loop-carried or path-dependent value; "
             "propagation correctly stops at the merge",
    )
