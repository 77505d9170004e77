"""Global (cross-block) constant propagation.

Block-local propagation misses the common pattern where a counter is
zeroed in the entry block and consumed in a loop preheader; this pass
closes that gap: a use is replaced when *every* definition reaching it
moves the same constant.

The engine is a sparse worklist over the cached def-use chains
(:mod:`repro.analysis.defuse`, via the context's
:class:`repro.analysis.manager.AnalysisManager`): constant-moving
definitions seed the worklist, each one visits only its recorded uses,
and a copy whose source collapses to a constant re-enters the worklist —
so a whole chain ``a = 3; b = a; c = b`` retires in one invocation
instead of one fixpoint round per link.  The old implementation re-solved
reaching definitions and re-walked a block prefix per use
(``O(instructions²)``); this one touches each use a constant number of
times.  A function that moves no constant gives the worklist no seed,
so the pass returns ``False`` without asking for the chains at all.

When a merge of *conflicting* constants blocks propagation the pass
reports a note through ``ctx.sink`` (when the sanitizer is listening), so
a differential failure attributed to this pass comes with the merge
points that decided what it did and did not rewrite.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Set

from repro.analysis.defuse import DefUseChains, def_use_chains
from repro.ir.function import Function
from repro.ir.rtl import Const, Load, Mov, Reg, Store
from repro.opt.pass_manager import PassContext, function_pass


# Rewrites operands in place: definition sites, the CFG, and therefore
# the reaching-definition solution all survive unchanged.  (The def-use
# chains do not — this pass consumes the uses it rewrites.)
@function_pass(preserves={"reaching", "dominators"})
def global_const_prop(func: Function, ctx: PassContext) -> bool:
    # No constant-moving definition, no seed: the worklist would start
    # empty, so skip the reaching definitions and chains it never reads.
    if not any(
        isinstance(instr, Mov) and isinstance(instr.src, Const)
        for block in func.blocks
        for instr in block.instrs
    ):
        return False
    analyses = getattr(ctx, "analyses", None)
    chains: DefUseChains = (
        analyses.defuse(func) if analyses is not None
        else def_use_chains(func)
    )

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
                if (
                    isinstance(instr, (Load, Store))
                    and instr.base.index == reg_index
                ):
                    continue  # an address must stay in a register
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
