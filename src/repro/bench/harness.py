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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro import timing
from repro.bench.programs import get_benchmark
from repro.bench import workloads
from repro.bench.cache import cached_compile_minic
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
    cycles: int = 0
    base_cycles: int = 0
    dcache_miss_cycles: int = 0
    icache_miss_cycles: int = 0
    instr_count: int = 0
    memory_accesses: int = 0
    output_ok: bool = False
    coalesced_loops: int = 0
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
    # Nothing was compiled for this measurement: the program was revived
    # from the disk compile cache.
    compile_cache_hit: bool = False
    # Which simulator backend actually ran (after any fallback) and its
    # throughput in simulated instructions per host second of the
    # sim.exec span, less the first-entry translation timed under it
    # (None when the run was too short to time).
    sim_backend: str = "interp"
    sim_instrs_per_sec: Optional[float] = None
    # This measurement's host time: a repro.timing tree in recorded form
    # (None when nothing was measured).
    timing: Optional[Dict[str, object]] = None

    def __repr__(self) -> str:
        return (
            f"<BenchResult {self.benchmark}/{self.machine}/{self.column}: "
            f"{self.cycles} cycles, ok={self.output_ok}>"
        )


def _execution_seconds(tree: dict) -> float:
    """Seconds of the outermost ``sim.exec`` spans in ``tree``, less the
    ``sim.translate`` spans under them (closures translated on first
    entry)."""
    if tree["name"] == "sim.exec":
        return tree["seconds"] - (timing.total(tree, "sim.translate") or 0.0)
    return sum(_execution_seconds(c) for c in tree.get("children", ()))


def run_benchmark(
    name: str,
    machine: str,
    column: str,
    width: int = 64,
    height: int = 64,
    sim_backend: Optional[str] = None,
    **extra,
) -> BenchResult:
    """Compile (through the disk cache), stage inputs, simulate, verify
    and time one benchmark, as one :mod:`repro.timing` tree (``cell``).

    ``sim_backend`` picks the simulator backend (``interp`` or
    ``compiled``); None defers to ``REPRO_SIM_BACKEND``.  The result
    records the backend that actually ran — the compiled backend falls
    back to the interpreter under fault injection.
    """
    preset, overrides = COLUMN_CONFIGS[column]
    overrides = {**machine_overrides(machine), **overrides, **extra}
    with timing.root("cell") as tree:
        compiled = cached_compile_minic(
            get_benchmark(name).source, machine, preset, **overrides
        )
        call = workloads.make_plan(name, width, height)
        sim = compiled.simulator(backend=sim_backend)
        result = run_plan(sim, call)
        ok = check_plan(sim, call, result)
        report = sim.report()
    recorded = tree.to_dict()
    exec_seconds = _execution_seconds(recorded)
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
        compile_cache_hit=compiled.cache_hit,
        sim_backend=sim.backend,
        sim_instrs_per_sec=(
            report.instr_count / exec_seconds
            if exec_seconds > 1e-6 and report.instr_count > 0 else None
        ),
        timing=recorded,
    )
