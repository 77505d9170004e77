"""What the simulator derives from one module on one machine, derived once.

A finished program's RTL never changes, so neither does anything an
engine derives from it: the code layout (each block's I-cache lines),
each function's register count and label map, each block's static
cycles, and the compiled engine's registration and closure keys.
:class:`ModuleFacts` derives each of them on first use and keeps it.  A
:class:`~repro.pipeline.CompiledProgram` keeps one for every simulator
it builds, so a repeated simulation of one program registers and prices
nothing it has met before; a :class:`~repro.sim.Simulator` built from a
bare module builds its own.

A module is read-only once facts have been derived from it: the facts
are not re-derived when its blocks change.

Sharing: one program is measured by many requests at once (the compile
service's worker threads).  Every entry is computed whole from the
module and machine and then stored with one assignment, and a stored
entry is never changed, so two threads that race compute equal values
and either may win.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.ir.function import Module
from repro.machine.machine import MachineDescription
from repro.sched.block_cost import module_block_cycles

CODE_BASE = 0x10000


def layout_code(
    module: Module, machine: MachineDescription
) -> Dict[Tuple[str, str], range]:
    """Assign code addresses; returns the I-cache line addresses per
    block, in module order.

    Shared by every engine so instruction-cache behaviour is identical
    by construction: same module, same machine, same line footprint.
    """
    lines: Dict[Tuple[str, str], range] = {}
    addr = CODE_BASE
    line_bytes = machine.icache.line_bytes
    for func in module:
        for block in func.blocks:
            size = machine.block_footprint(len(block.instrs))
            first = addr // line_bytes
            last = (addr + max(size, 1) - 1) // line_bytes
            lines[(func.name, block.label)] = range(
                first * line_bytes, (last + 1) * line_bytes, line_bytes
            )
            addr += size
    return lines


class ModuleFacts:
    """The derived, immutable facts of ``module`` on ``machine``."""

    def __init__(self, module: Module, machine: MachineDescription):
        self.module = module
        self.machine = machine
        self._lines: Optional[Dict[Tuple[str, str], range]] = None
        self._frames: Dict[str, Tuple[int, Dict[str, object]]] = {}
        self._costs: Dict[Tuple[str, str], int] = {}
        #: The compiled engine's registration of the module, built by
        #: the first engine (:class:`repro.sim.translate.CompiledEngine`).
        self.registration = None
        #: Per (I-cache on, cancel probe on, memoryview widths): closure
        #: (function, head label) -> (BlockCache key, label numbering,
        #: global numbering), filled when an engine first enters it.
        self.closure_keys: Dict[tuple, Dict[Tuple[str, str], tuple]] = {}

    @property
    def lines(self) -> Dict[Tuple[str, str], range]:
        """:func:`layout_code` of the module."""
        lines = self._lines
        if lines is None:
            lines = self._lines = layout_code(self.module, self.machine)
        return lines

    def frame(self, name: str) -> Tuple[int, Dict[str, object]]:
        """Function ``name``'s register count and label -> block map."""
        frame = self._frames.get(name)
        if frame is None:
            func = self.module.function(name)
            frame = self._frames[name] = (
                func.max_reg_index() + 1,
                {block.label: block for block in func.blocks},
            )
        return frame

    def block_costs(
        self, keys: Iterable[Tuple[str, str]]
    ) -> Dict[Tuple[str, str], int]:
        """A table holding the static cycles of every ``(function,
        label)`` block in ``keys``: each block is priced on the first
        ask.  The table may hold other blocks too."""
        table = self._costs
        missing = [key for key in keys if key not in table]
        if missing:
            table.update(
                module_block_cycles(self.module, self.machine, missing)
            )
        return table
