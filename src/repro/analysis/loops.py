"""Natural loop discovery and preheader insertion.

The coalescing algorithm (Figure 2) iterates over the loops of the current
function; this module finds them the classic way: back edges under the
dominator tree, each defining a natural loop, loops sharing a header merged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, NamedTuple, Set, Tuple

from repro.analysis.cfgutil import predecessors, reachable_labels
from repro.analysis.dominators import dominates, immediate_dominators
from repro.ir.function import BasicBlock, Function
from repro.ir.rtl import Jump


class Loop(NamedTuple):
    """One natural loop (immutable: loops are shared per CFG shape).

    Attributes:
        header: label of the loop header (the unique entry block).
        blocks: labels of all blocks in the loop, header included.
        latches: in-loop blocks with a back edge to the header.
    """

    header: str
    blocks: FrozenSet[str]
    latches: FrozenSet[str]

    def exits(self, func: Function) -> Set[str]:
        """Labels outside the loop that loop blocks branch to."""
        outside: Set[str] = set()
        for label in self.blocks:
            for succ in func.block(label).successors():
                if succ not in self.blocks:
                    outside.add(succ)
        return outside

    def body_instr_count(self, func: Function) -> int:
        return sum(len(func.block(label).instrs) for label in self.blocks)

    def contains(self, label: str) -> bool:
        return label in self.blocks

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={sorted(self.blocks)}>"


def find_loops(func: Function) -> Tuple[Loop, ...]:
    """All natural loops of ``func``, innermost first, memoized per CFG
    shape.

    "Innermost first" is approximated by sorting on block-set size, which
    is exact for properly nested loops.
    """
    return func.cfg_fact("find_loops", _find_loops)


def _find_loops(func: Function) -> Tuple[Loop, ...]:
    idom = immediate_dominators(func)
    reachable = reachable_labels(func)
    preds = predecessors(func)

    bodies: Dict[str, Set[str]] = {}
    latches: Dict[str, Set[str]] = {}
    for block in func.blocks:
        if block.label not in reachable:
            continue
        for succ in block.successors():
            if succ in reachable and dominates(idom, succ, block.label):
                # back edge block -> succ
                body = _natural_loop_body(succ, block.label, preds)
                bodies.setdefault(succ, set()).update(body)
                latches.setdefault(succ, set()).add(block.label)
    loops = [
        Loop(header, frozenset(body), frozenset(latches[header]))
        for header, body in bodies.items()
    ]
    return tuple(sorted(loops, key=lambda l: len(l.blocks)))


def _natural_loop_body(
    header: str, latch: str, preds: Mapping[str, Tuple[str, ...]]
) -> Set[str]:
    body = {header, latch}
    work = [latch]
    while work:
        label = work.pop()
        if label == header:
            continue
        for pred in preds[label]:
            if pred not in body:
                body.add(pred)
                work.append(pred)
    return body


def ensure_preheader(func: Function, loop: Loop) -> BasicBlock:
    """Return the loop's preheader, creating one if necessary.

    A preheader is a block outside the loop whose only successor is the
    header and which is the only outside predecessor of the header.  The
    coalescer inserts its run-time alias/alignment checks there (§2.2).
    """
    preds = predecessors(func)
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    if len(outside) == 1:
        candidate = func.block(outside[0])
        term = candidate.terminator
        if isinstance(term, Jump) and term.target == loop.header:
            return candidate

    label = func.new_label("preh")
    index = func.block_index(loop.header)
    preheader = BasicBlock(label, [Jump(loop.header)])
    func.blocks.insert(index, preheader)
    for pred_label in outside:
        func.block(pred_label).retarget(loop.header, label)
    return preheader
