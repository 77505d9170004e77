"""Reaching definitions.

Definitions are identified as ``(block_label, instr_index)`` pairs.  Used
by global copy propagation and by the induction variable analysis (a basic
IV needs *all* its in-loop definitions to be increments).

The solver numbers every definition site and runs the classic bitvector
fixpoint over Python ints (``out = (in & ~kill) | gen``), which is orders
of magnitude cheaper than juggling sets of tuples.  The solution stays in
that form: the definitions of a register reaching a block's entry are
``reach_in_bits[label] & reg_mask[reg]``, decoded into sites only when a
query asks about that (block, register) pair, and memoized.  Queries are
sparse: :meth:`ReachingDefs.reaching_at` binary-searches the per-register
list of definition positions inside the block instead of walking the
block prefix, so a full-function sweep of queries is
``O(uses · log defs)`` rather than the old ``O(instructions²)``.

Site tuples come out in site-number order (reverse postorder of the
blocks, then instruction order); callers treat them as sets.

A solve may be restricted to a set of registers: only the sites that
define one of them are numbered, and only their masks are built.  The
problem is per register (a definition kills only definitions of its own
registers), so every answer about a register in the set is the full
solve's, and the sites keep their relative order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import AbstractSet, Dict, List, Optional, Set, Tuple

from repro.analysis.cfgutil import predecessors, reachable_labels, \
    reverse_postorder
from repro.ir.function import BasicBlock, Function

DefSite = Tuple[str, int]


class ReachingDefs:
    """Reaching-definition bitsets plus convenience queries."""

    def __init__(
        self,
        func: Function,
        blocks: Dict[str, BasicBlock],
        sites: List[DefSite],
        reach_in_bits: Dict[str, int],
        reg_mask: Dict[int, int],
        defs_of: Dict[int, Set[DefSite]],
    ):
        self.func = func
        #: label -> block, for every block of ``func``.
        self.blocks = blocks
        #: site number -> definition site.
        self.sites = sites
        #: reachable label (reverse postorder) -> bits of the sites
        #: reaching its entry.
        self.reach_in_bits = reach_in_bits
        #: register index -> bits of the sites defining it.
        self.reg_mask = reg_mask
        self.defs_of = defs_of
        # label -> reg index -> sorted instruction positions defining it
        # (built per block on its first query).
        self._block_defs: Dict[str, Dict[int, List[int]]] = {}
        # (label, reg index) -> decoded incoming sites.
        self._incoming: Dict[Tuple[str, int], Tuple[DefSite, ...]] = {}

    def incoming(self, label: str, reg_index: int) -> Tuple[DefSite, ...]:
        """Definitions of ``reg_index`` reaching the entry of ``label``."""
        key = (label, reg_index)
        sites = self._incoming.get(key)
        if sites is None:
            bits = self.reach_in_bits.get(label, 0) & self.reg_mask.get(
                reg_index, 0
            )
            sites = self._incoming[key] = _sites_from_mask(self.sites, bits)
        return sites

    def _positions(self, label: str) -> Dict[int, List[int]]:
        per_reg = self._block_defs.get(label)
        if per_reg is None:
            per_reg = {}
            if label in self.reach_in_bits:
                for index, instr in enumerate(self.blocks[label].instrs):
                    for reg in instr.defs():
                        per_reg.setdefault(reg.index, []).append(index)
            self._block_defs[label] = per_reg
        return per_reg

    def reaching_at(
        self, label: str, index: int, reg_index: int
    ) -> Set[DefSite]:
        """Definitions of ``reg_index`` reaching instruction ``index`` of
        block ``label``."""
        positions = self._positions(label).get(reg_index)
        if positions:
            at = bisect_left(positions, index) - 1
            if at >= 0:
                return {(label, positions[at])}
        return set(self.incoming(label, reg_index))

    def unique_def_at(
        self, label: str, index: int, reg_index: int
    ) -> Optional[DefSite]:
        sites = self.reaching_at(label, index, reg_index)
        if len(sites) == 1:
            return next(iter(sites))
        return None


def reaching_definitions(
    func: Function, registers: Optional[AbstractSet[int]] = None
) -> ReachingDefs:
    """Solve the forward reaching-definitions dataflow problem, for every
    register or only for the register indices in ``registers``."""
    blocks = {block.label: block for block in func.blocks}
    reachable = reachable_labels(func)
    order = [l for l in reverse_postorder(func) if l in reachable]
    labels_set = set(order)
    preds = predecessors(func)

    # Number every definition site; per-register masks give kill sets.
    sites: List[DefSite] = []
    defs_of: Dict[int, Set[DefSite]] = {}
    reg_mask: Dict[int, int] = {}
    gen_mask: Dict[str, int] = {}
    kill_regs: Dict[str, List[int]] = {}
    for label in order:
        last_def: Dict[int, int] = {}  # reg -> site number
        for index, instr in enumerate(blocks[label].instrs):
            regs = instr.defs()
            if registers is not None and regs:
                regs = [reg for reg in regs if reg.index in registers]
            if not regs:
                continue
            number = len(sites)
            sites.append((label, index))
            for reg in regs:
                defs_of.setdefault(reg.index, set()).add((label, index))
                reg_mask[reg.index] = reg_mask.get(reg.index, 0) | (
                    1 << number
                )
                last_def[reg.index] = number
        gen_mask[label] = 0
        for number in last_def.values():
            gen_mask[label] |= 1 << number
        kill_regs[label] = list(last_def)

    kill_mask: Dict[str, int] = {
        label: _union_masks(reg_mask, kill_regs[label])
        for label in order
    }

    reach_in_bits: Dict[str, int] = {label: 0 for label in order}
    reach_out_bits: Dict[str, int] = {label: 0 for label in order}
    changed = True
    while changed:
        changed = False
        for label in order:
            into = 0
            for pred in preds[label]:
                if pred in labels_set:
                    into |= reach_out_bits[pred]
            out = (into & ~kill_mask[label]) | gen_mask[label]
            if into != reach_in_bits[label] or out != reach_out_bits[label]:
                reach_in_bits[label] = into
                reach_out_bits[label] = out
                changed = True

    return ReachingDefs(
        func, blocks, sites, reach_in_bits, reg_mask, defs_of
    )


def _union_masks(reg_mask: Dict[int, int], regs: List[int]) -> int:
    mask = 0
    for reg in regs:
        mask |= reg_mask.get(reg, 0)
    return mask


def _sites_from_mask(sites: List[DefSite], bits: int) -> Tuple[DefSite, ...]:
    """The sites whose numbers are set in ``bits``, lowest first."""
    result = []
    while bits:
        low = bits & -bits
        result.append(sites[low.bit_length() - 1])
        bits ^= low
    return tuple(result)
