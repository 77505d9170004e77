"""Execution substrate: memory, caches, RTL interpreter, cost model.

The paper measured wall-clock time on real DEC Alpha, Motorola 88100 and
Motorola 68030 machines.  We have none of those, so this package provides
the substitute: RTL programs run on one of two engines — the
byte-accurate reference interpreter (``interp``) or the block-compiling
``compiled`` backend — that count block executions and memory traffic,
and a trace-driven cost model converts those counts into cycles using
each machine's latencies, issue width and caches.
"""

from repro.sim.memory import SimMemory
from repro.sim.cache import BlockCache, DirectMappedCache, shared_block_cache
from repro.sim.interp import Interpreter, RunStats, layout_code
from repro.sim.costs import CycleReport, cycle_report
from repro.sim.runner import (
    SIM_BACKENDS,
    Simulator,
    default_sim_backend,
)
from repro.sim.translate import CompiledEngine

__all__ = [
    "BlockCache",
    "CompiledEngine",
    "CycleReport",
    "DirectMappedCache",
    "Interpreter",
    "RunStats",
    "SIM_BACKENDS",
    "SimMemory",
    "Simulator",
    "cycle_report",
    "default_sim_backend",
    "layout_code",
    "shared_block_cache",
]
