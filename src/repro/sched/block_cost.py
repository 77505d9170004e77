"""Static per-block cycle costs.

Two cost views exist on purpose:

* :func:`block_cycles` — an **in-order issue model** of the block *as laid
  out*: instructions issue in program order, stalling on operand latency,
  the issue width, and the memory port's initiation interval.  This is
  what the simulator charges per block execution, so instruction order
  matters — which is precisely the difference between the ``cc`` (no
  scheduling) and ``vpo`` (scheduled) measurement columns.
* :func:`repro.sched.list_scheduler.list_schedule` — the scheduler's own
  best-case estimate, used by the coalescer's profitability analysis
  (Figure 3) and by :func:`schedule_function` to reorder code.

A scheduled block's in-order cost approaches its list-schedule estimate,
keeping the profitability prediction consistent with the measurement.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.ir.function import Function, Module
from repro.machine.machine import MachineDescription, classify_instr
from repro.sched.list_scheduler import apply_schedule, list_schedule

_MEMORY_CLASSES = frozenset({"load", "store"})


def block_cycles(block, machine: MachineDescription) -> int:
    """In-order cycles for one pass through ``block``, all cache hits."""
    latency_of = machine.latency
    if not machine.pipelined:
        total = sum(latency_of(i) for i in block.instrs)
        return max(total, 1)

    ready: Dict[int, int] = {}
    cycle = 0
    issued_this_cycle = 0
    port_free = 0
    for instr in block.body:
        earliest = 0
        for reg in instr.uses():
            earliest = max(earliest, ready.get(reg.index, 0))
        is_memory = classify_instr(instr) in _MEMORY_CLASSES
        while True:
            if earliest > cycle:
                cycle = earliest
                issued_this_cycle = 0
            if issued_this_cycle >= machine.issue_width:
                cycle += 1
                issued_this_cycle = 0
                continue
            if is_memory and port_free > cycle:
                cycle = port_free
                issued_this_cycle = 0
                continue
            break
        issued_this_cycle += 1
        if is_memory:
            port_free = cycle + machine.memory_interval
        for reg in instr.defs():
            ready[reg.index] = cycle + latency_of(instr)

    if block.instrs and block.instrs[-1].is_terminator:
        term = block.instrs[-1]
        earliest = cycle + 1
        for reg in term.uses():
            earliest = max(earliest, ready.get(reg.index, 0))
        return max(earliest + latency_of(term), 1)
    return max(cycle + 1, 1)


def function_cycles(
    func: Function, machine: MachineDescription
) -> Dict[str, int]:
    """Static cycles of every block of ``func``."""
    return {b.label: block_cycles(b, machine) for b in func.blocks}


def module_block_cycles(
    module: Module,
    machine: MachineDescription,
    keys: Optional[Iterable[Tuple[str, str]]] = None,
) -> Dict[Tuple[str, str], int]:
    """Static cycles of every block in ``module``, or only of the
    ``(function, label)`` blocks named in ``keys``."""
    table: Dict[Tuple[str, str], int] = {}
    if keys is None:
        for func in module:
            for block in func.blocks:
                table[(func.name, block.label)] = block_cycles(block, machine)
        return table
    blocks: Dict[str, Dict[str, object]] = {}
    for key in keys:
        func_name, label = key
        by_label = blocks.get(func_name)
        if by_label is None:
            by_label = blocks[func_name] = {
                block.label: block
                for block in module.function(func_name).blocks
            }
        table[key] = block_cycles(by_label[label], machine)
    return table


def schedule_function(func: Function, machine: MachineDescription) -> None:
    """Reorder every block of ``func`` into list-scheduled order."""
    for block in func.blocks:
        apply_schedule(block, machine)


def schedule_module(module: Module, machine: MachineDescription) -> None:
    """Reorder every block of every function of ``module``."""
    for func in module:
        schedule_function(func, machine)
