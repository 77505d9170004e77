"""Memory Access Coalescing — a reproduction of Davidson & Jinturkar,
"Memory Access Coalescing: A Technique for Eliminating Redundant Memory
Accesses" (PLDI 1994).

The package is a complete retargetable optimizing back end in Python:

* :mod:`repro.frontend` — a C-subset (MiniC) front end;
* :mod:`repro.ir` — a vpo-style RTL intermediate representation;
* :mod:`repro.analysis`, :mod:`repro.opt` — dataflow analyses and the
  classic optimization repertoire (including strength reduction and
  unrolling, which produce the loop shape the coalescer needs);
* :mod:`repro.coalesce` — the paper's contribution: memory access
  coalescing with run-time alias and alignment checks;
* :mod:`repro.machine` — DEC Alpha, Motorola 88100 and Motorola 68030
  machine models with a legalization pass;
* :mod:`repro.sched` — the list scheduler used by the profitability
  analysis and the cost model;
* :mod:`repro.sim` — the execution substrate standing in for the paper's
  hardware: an RTL interpreter, an RTL-to-Python fast engine, caches and
  a trace-driven cycle model;
* :mod:`repro.bench` — the paper's benchmark programs and the harness
  that regenerates its tables.

Quickstart::

    from repro import compile_minic
    from repro.sim.plan import Plan

    program = compile_minic(source, machine="alpha", config="coalesce-all")
    call = Plan("kernel", [("dst", 1, [0] * 4096), ...], ["dst", ...])
    print(program.measure(call).cycles)
"""

from repro.errors import (
    AlignmentTrap,
    FaultInjected,
    IRError,
    LintError,
    LoweringError,
    ParseError,
    PassError,
    ReproError,
    SemanticError,
    SimulationError,
    SimulationTimeout,
)
from repro.machine import MACHINE_NAMES, get_machine
from repro.pipeline import (
    CompiledProgram,
    PRESETS,
    PipelineConfig,
    compile_and_run,
    compile_minic,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "AlignmentTrap",
    "CompiledProgram",
    "FaultInjected",
    "IRError",
    "LintError",
    "LoweringError",
    "MACHINE_NAMES",
    "PRESETS",
    "ParseError",
    "PassError",
    "PipelineConfig",
    "ReproError",
    "SemanticError",
    "SimulationError",
    "SimulationTimeout",
    "Simulator",
    "__version__",
    "compile_and_run",
    "compile_minic",
    "get_machine",
]
