"""Trace-driven cycle accounting.

``cycles = Σ_blocks  executions(b) × static_cycles(b)
         + dcache_misses × dcache_penalty
         + icache_misses × icache_penalty``

Static block cycles come from the list scheduler (all-hit assumption);
cache misses add their penalties on top.  This is the standard trace-driven
decomposition and the substitute for the paper's wall-clock timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.function import Module
from repro.machine.machine import MachineDescription
from repro.sched.block_cost import module_block_cycles
from repro.sim.cache import DirectMappedCache
from repro.sim.interp import RunStats


@dataclass
class CycleReport:
    """Cycle totals for one simulated run."""

    machine: str
    base_cycles: int
    dcache_miss_cycles: int
    icache_miss_cycles: int
    instr_count: int
    load_count: int
    store_count: int
    dcache_misses: int = 0
    icache_misses: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.base_cycles
            + self.dcache_miss_cycles
            + self.icache_miss_cycles
        )

    @property
    def memory_accesses(self) -> int:
        return self.load_count + self.store_count

    def speedup_over(self, other: "CycleReport") -> float:
        """``other``'s cycles divided by ours (>1 means we are faster)."""
        return other.total_cycles / self.total_cycles

    def percent_savings_over(self, other: "CycleReport") -> float:
        """Percent of ``other``'s cycles we save: (other-self)/other*100."""
        return (
            (other.total_cycles - self.total_cycles)
            / other.total_cycles
            * 100.0
        )

    def __repr__(self) -> str:
        return (
            f"<CycleReport {self.machine}: {self.total_cycles} cycles "
            f"({self.instr_count} instrs, {self.memory_accesses} mem)>"
        )


def cycle_report(
    module: Module,
    machine: MachineDescription,
    stats: RunStats,
    icache: Optional[DirectMappedCache] = None,
    dcache: Optional[DirectMappedCache] = None,
    block_cycle_table: Optional[Dict[Tuple[str, str], int]] = None,
) -> CycleReport:
    """Convert dynamic counts into a :class:`CycleReport`.

    Without a ``block_cycle_table`` only the blocks that executed (the
    keys of ``stats.block_counts``) are priced."""
    table = block_cycle_table
    if table is None:
        table = module_block_cycles(module, machine, stats.block_counts)
    base = 0
    for key, count in stats.block_counts.items():
        base += count * table[key]
    dmisses = dcache.misses if dcache is not None else 0
    imisses = icache.misses if icache is not None else 0
    return CycleReport(
        machine=machine.name,
        base_cycles=base,
        dcache_miss_cycles=dmisses * machine.dcache.miss_penalty,
        icache_miss_cycles=imisses * machine.icache.miss_penalty,
        instr_count=stats.instr_count,
        load_count=stats.load_count,
        store_count=stats.store_count,
        dcache_misses=dmisses,
        icache_misses=imisses,
    )
