"""Def-use and use-def chains, derived from reaching definitions.

Sparse optimizers (the worklist form of global constant propagation, the
alias engine's symbolic address resolution) want to hop straight from a
definition to its uses and back, instead of re-scanning blocks.  One
linear sweep over the function produces both directions; a register a
block reads before defining it takes its incoming definitions from the
reaching solution.

A *use site* is ``(block_label, instr_index, reg_index)``; a *def site*
is the usual ``(block_label, instr_index)`` pair of
:mod:`repro.analysis.reaching`.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.analysis.reaching import DefSite, ReachingDefs, \
    reaching_definitions
from repro.ir.function import Function

UseSite = Tuple[str, int, int]


class DefUseChains:
    """Both directions of the def/use relation for one function."""

    def __init__(
        self,
        func: Function,
        reaching: ReachingDefs,
        uses_of: Dict[DefSite, List[UseSite]],
        defs_for: Dict[UseSite, Tuple[DefSite, ...]],
    ):
        self.func = func
        self.reaching = reaching
        self.uses_of = uses_of
        self.defs_for = defs_for


def def_use_chains(
    func: Function, registers: Optional[AbstractSet[int]] = None
) -> DefUseChains:
    """Build def-use and use-def chains in one pass over ``func``.

    Only the registers a block reads before defining them are looked up
    in the reaching solution; every other use is reached by the block's
    own latest definition.  With ``registers`` (a set of register
    indices) only their uses are recorded, over a reaching solve
    restricted to them: the result is the full chains restricted to
    those registers.
    """
    reaching = reaching_definitions(func, registers)
    uses_of: Dict[DefSite, List[UseSite]] = {}
    defs_for: Dict[UseSite, Tuple[DefSite, ...]] = {}
    for label in reaching.reach_in_bits:
        current: Dict[int, Tuple[DefSite, ...]] = {}
        for index, instr in enumerate(reaching.blocks[label].instrs):
            seen = set()
            for reg in instr.uses():
                if reg.index in seen or (
                    registers is not None and reg.index not in registers
                ):
                    continue
                seen.add(reg.index)
                sites = current.get(reg.index)
                if sites is None:
                    sites = current[reg.index] = reaching.incoming(
                        label, reg.index
                    )
                use = (label, index, reg.index)
                defs_for[use] = sites
                for site in sites:
                    uses_of.setdefault(site, []).append(use)
            for reg in instr.defs():
                current[reg.index] = ((label, index),)
    return DefUseChains(func, reaching, uses_of, defs_for)
