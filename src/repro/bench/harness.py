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
from repro.bench.programs import BENCHMARKS, get_benchmark
from repro.bench import workloads
from repro.bench.cache import cached_compile_minic
from repro.errors import ReproError
from repro.pipeline import Measurement
from repro.sim.plan import Plan

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


def cell_recipe(
    name: str, machine: str, column: str, width: int, height: int, **extra
) -> Tuple[str, str, Dict[str, object], Plan]:
    """What one cell compiles and calls: ``(source, preset, overrides,
    plan)``.  An unknown benchmark or column is a :class:`ReproError`,
    raised before anything compiles."""
    for what, value, known in (
        ("benchmark", name, BENCHMARKS), ("variant", column, COLUMNS)
    ):
        if value not in known:
            raise ReproError(
                f"unknown {what} {value!r}; known: {', '.join(known)}"
            )
    preset, overrides = COLUMN_CONFIGS[column]
    return (
        get_benchmark(name).source,
        preset,
        {**machine_overrides(machine), **overrides, **extra},
        workloads.make_plan(name, width, height),
    )


@dataclass
class BenchResult(Measurement):
    """One cell's measurement and its host time."""

    # Simulated instructions per host second of the sim.exec span, less
    # the first-entry translation timed under it (None when the run was
    # too short to time).
    sim_instrs_per_sec: Optional[float] = None
    # This measurement's host time: a repro.timing tree in recorded form
    # (None when nothing was measured).
    timing: Optional[Dict[str, object]] = field(default=None, repr=False)


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
    ``compiled``); None defers to ``REPRO_SIM_BACKEND``.
    """
    with timing.root("cell") as tree:
        source, preset, overrides, plan = cell_recipe(
            name, machine, column, width, height, **extra
        )
        measured = cached_compile_minic(
            source, machine, preset, **overrides
        ).measure(plan, backend=sim_backend)
    recorded = tree.to_dict()
    exec_seconds = _execution_seconds(recorded)
    return BenchResult(
        **vars(measured),
        sim_instrs_per_sec=(
            round(measured.instr_count / exec_seconds, 1)
            if exec_seconds > 1e-6 and measured.instr_count > 0 else None
        ),
        timing=recorded,
    )
