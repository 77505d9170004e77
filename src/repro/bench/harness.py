"""Compile-and-measure harness for the paper's experiments.

One *column* of a paper table = one pipeline configuration:

=====================  =====================================================
``cc``                 native-compiler proxy (no scheduling)
``vpo``                full optimizer, loops unrolled (the baseline column)
``coalesce-loads``     loads coalesced — **forced**, as the paper measures
                       the transformation itself (col. 4)
``coalesce-all``       loads and stores coalesced — forced (col. 5)
=====================  =====================================================

The Motorola 68030 needs ``unroll_factor=4`` forced in every column: its
256-byte instruction cache makes the unrolling heuristic refuse, and the
paper's point there is precisely what happens when the transformation is
applied anyway.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.bench.programs import get_benchmark
from repro.bench import workloads
from repro.bench.cache import cached_compile_minic
from repro.pipeline import CompiledProgram
from repro.sim import instructions_per_second
from repro.sim.plan import check as check_plan, run_plan

COLUMN_CONFIGS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "cc": ("cc", {}),
    "vpo": ("vpo", {}),
    "coalesce-loads": ("coalesce-loads", {"force_coalesce": True}),
    "coalesce-all": ("coalesce-all", {"force_coalesce": True}),
}

COLUMNS = ("cc", "vpo", "coalesce-loads", "coalesce-all")


def machine_overrides(machine: str) -> Dict[str, object]:
    """Per-machine pipeline overrides used by every column."""
    if machine == "m68030":
        return {"unroll_factor": 4}
    return {}


@dataclass
class BenchResult:
    """Outcome of one (benchmark, machine, column) measurement."""

    benchmark: str
    machine: str
    column: str
    cycles: int
    base_cycles: int
    dcache_miss_cycles: int
    icache_miss_cycles: int
    instr_count: int
    memory_accesses: int
    output_ok: bool
    coalesced_loops: int
    # Figure 5 runtime checks the static alias engine discharged.
    checks_elided: int = 0
    # Accepted runs per access shape ('unit'/'strided'/'affine'/
    # 'indirect') summed over applied loops.
    coalesced_by_shape: Dict[str, int] = field(default_factory=dict)
    result: Optional[int] = None
    loads: int = 0
    stores: int = 0
    dcache_misses: int = 0
    icache_misses: int = 0
    compile_seconds: float = 0.0
    sim_seconds: float = 0.0
    compile_cache_hit: bool = False
    # Which simulator backend actually ran (after any fallback) and its
    # throughput in simulated instructions per host second (None when the
    # run was too short to time).
    sim_backend: str = "interp"
    sim_instrs_per_sec: Optional[float] = None
    # stage name -> seconds, from CompiledProgram.pass_stats (describes
    # the original compilation when compile_cache_hit is True)
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"<BenchResult {self.benchmark}/{self.machine}/{self.column}: "
            f"{self.cycles} cycles, ok={self.output_ok}>"
        )


@lru_cache(maxsize=256)
def _compile(
    name: str, machine: str, column: str, extra: Tuple[Tuple[str, object], ...]
) -> CompiledProgram:
    program = get_benchmark(name)
    preset, overrides = COLUMN_CONFIGS[column]
    merged = dict(machine_overrides(machine))
    merged.update(overrides)
    merged.update(dict(extra))
    return cached_compile_minic(program.source, machine, preset, **merged)


def compile_benchmark(
    name: str, machine: str, column: str, **extra
) -> CompiledProgram:
    """Compile one benchmark for one table column (cached)."""
    return _compile(name, machine, column, tuple(sorted(extra.items())))


def run_benchmark(
    name: str,
    machine: str,
    column: str,
    width: int = 64,
    height: int = 64,
    check: bool = True,
    sim_backend: Optional[str] = None,
    **extra,
) -> BenchResult:
    """Compile, stage inputs, simulate, verify and measure one benchmark.

    ``sim_backend`` picks the simulator backend (``interp`` or
    ``compiled``); None defers to ``REPRO_SIM_BACKEND``.  The result
    records the backend that actually ran — the compiled backend falls
    back to the interpreter under fault injection.
    """
    compile_started = time.perf_counter()
    compiled = compile_benchmark(name, machine, column, **extra)
    compile_seconds = time.perf_counter() - compile_started
    call = workloads.make_plan(name, width, height)
    sim_started = time.perf_counter()
    sim = compiled.simulator(backend=sim_backend)
    result = run_plan(sim, call)
    ok = not check or check_plan(sim, call, result)
    sim_seconds = time.perf_counter() - sim_started
    report = sim.report()
    return BenchResult(
        benchmark=name,
        machine=machine,
        column=column,
        cycles=report.total_cycles,
        base_cycles=report.base_cycles,
        dcache_miss_cycles=report.dcache_miss_cycles,
        icache_miss_cycles=report.icache_miss_cycles,
        instr_count=report.instr_count,
        memory_accesses=report.memory_accesses,
        output_ok=ok,
        coalesced_loops=compiled.coalesced_loops,
        checks_elided=compiled.checks_elided,
        coalesced_by_shape=compiled.coalesced_by_shape,
        result=result,
        loads=report.load_count,
        stores=report.store_count,
        dcache_misses=report.dcache_misses,
        icache_misses=report.icache_misses,
        compile_seconds=compile_seconds,
        sim_seconds=sim_seconds,
        compile_cache_hit=compiled.cache_hit,
        sim_backend=sim.backend,
        sim_instrs_per_sec=instructions_per_second(
            report.instr_count, sim.wall_seconds
        ),
        phase_seconds={
            stage: stats["seconds"]
            for stage, stats in compiled.pass_stats.items()
        },
    )
