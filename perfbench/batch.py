"""The two in-process workloads: compile-cold and sim-large.

compile-cold
    Every cell of the quick matrix (13 programs x 3 machines x 4
    variants) at 16x16 with every compile cache off: ``compile_minic``
    is called directly (no disk cache, no in-process memo), each op's
    source carries a never-seen trailing comment, and the process-wide
    ``BlockCache`` is cleared at the start of every round.  One op is
    compile + translate + simulate + verify.
sim-large
    The ``vpo`` and ``coalesce-all`` cells at 128x128, compiled once
    during set-up, where every cell's blocks are also translated once so
    the ``BlockCache`` is warm.  One op builds a compiled-backend
    ``Simulator``, stages the inputs, calls the kernel, reads the result
    back and compares it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import cells
import measure
import spans
from measure import Sample

from repro import pipeline
from repro.sim import shared_block_cache

#: Rounds made ready in set-up; a run ends long before it uses them all.
MAX_ROUNDS = {"compile-cold": 16, "sim-large": 64}
#: Rounds in each phase of a traced run (untraced reference, then traced).
TRACE_ROUNDS = {"compile-cold": 1, "sim-large": 2}
SIZES = {"compile-cold": 16, "sim-large": 128}


def _shuffled_rounds(cell_list: List[cells.Cell], seed: int, count: int):
    order = random.Random(f"{seed}/order")
    rounds = []
    for _ in range(count):
        round_cells = list(cell_list)
        order.shuffle(round_cells)
        rounds.append(round_cells)
    return rounds


class CompileCold:
    def __init__(self, seed: int):
        self.plans = cells.make_plans(SIZES["compile-cold"], seed)
        self.rounds = [
            [(cell, f"perfbench {seed}.{number}") for cell in round_cells]
            for number, round_cells in enumerate(_shuffled_rounds(
                cells.matrix(), seed, MAX_ROUNDS["compile-cold"]))
        ]
        shared_block_cache().clear()

    @staticmethod
    def on_round() -> None:
        shared_block_cache().clear()

    def op(self, item: Tuple[cells.Cell, str]) -> Sample:
        cell, tag = item
        preset, overrides = cells.compile_args(cell)
        program = pipeline.compile_minic(
            cells.source_of(cell, tag), cell.machine, preset, **overrides
        )
        sim = program.simulator(backend="compiled")
        ok, cycles = cells.run_plan(sim, self.plans[cell.program])
        return Sample(cell, 0.0, ok, cycles,
                      code=cells.static_instrs(program.module))

    def code_instrs(self, samples: List[Sample]) -> int:
        return sum(measure.per_cell(samples, "code").values())


class SimLarge:
    def __init__(self, seed: int):
        shared_block_cache().clear()
        self.plans = cells.make_plans(SIZES["sim-large"], seed)
        self.programs = {}
        for cell in cells.matrix(("vpo", "coalesce-all")):
            preset, overrides = cells.compile_args(cell)
            program = pipeline.compile_minic(
                cells.source_of(cell), cell.machine, preset, **overrides
            )
            program.simulator(backend="compiled")  # warms the BlockCache
            self.programs[cell] = program
        self.rounds = _shuffled_rounds(
            list(self.programs), seed, MAX_ROUNDS["sim-large"])

    on_round = None

    def op(self, cell: cells.Cell) -> Sample:
        sim = self.programs[cell].simulator(backend="compiled")
        ok, cycles = cells.run_plan(sim, self.plans[cell.program])
        return Sample(cell, 0.0, ok, cycles, repeated=True)

    def code_instrs(self, samples: List[Sample]) -> int:
        return sum(cells.static_instrs(program.module)
                   for program in self.programs.values())


WORKLOADS = {"compile-cold": CompileCold, "sim-large": SimLarge}


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Tuple[List[Sample], Dict]:
    """Run one batch workload; returns (all samples, metrics)."""
    kind = WORKLOADS[workload]
    if trace:
        return _trace(workload, seed, kind(seed), out_dir)
    state, setup_s = measure.timed_setup("batch", lambda: kind(seed))
    samples, phase_s, _ = measure.run_rounds(
        state.rounds, state.op, seconds, state.on_round)
    return samples, measure.end_to_end(
        samples, phase_s, setup_s, measure.own_peak_rss_mb(),
        state.code_instrs(samples))


def _trace(workload, seed, state, out_dir):
    """``TRACE_ROUNDS`` rounds untraced, then as many traced."""
    count = TRACE_ROUNDS[workload]
    reference, reference_s, _ = measure.run_rounds(
        state.rounds[:count], state.op, None, state.on_round)
    recorder = spans.Recorder()
    spans.install(recorder)
    started = spans.clock()
    samples, phase_s, speed = measure.run_rounds(
        state.rounds[count:2 * count], state.op, None, state.on_round,
        recorder)
    window = (started, spans.clock())
    path = out_dir / f"{workload}-seed{seed}.spans.jsonl"
    recorder.write(path)
    print(f"perfbench: spans written to {path}", file=sys.stderr)
    records = spans.load(path)
    metrics = spans.layer_metrics(records, window, speed.at)
    layers, op_time = spans.layer_time(records, window)
    metrics.update(batch_trace_metrics(
        workload, records, window, samples, phase_s,
        len(reference) / reference_s, layers, op_time))
    return reference + samples, metrics


def batch_trace_metrics(workload, records, window, samples, phase_s,
                        reference_ops_per_s, layers, op_time) -> Dict:
    """The trace.* and inputs.* metrics, plus service.* zeros: the batch
    workloads never reach the service."""
    stressed = "pipeline" if workload == "compile-cold" else "sim.exec"
    lo, hi = window
    stressed_s = sum(
        r["end"] - r["start"] for r in records
        if r["kind"] == "span" and r["name"] == stressed
        and lo <= r["start"] and r["end"] <= hi
    )
    return {
        "bench.cache.publishes": 0,
        "service.wait_ms_p50": 0.0,
        "service.server_ms_p50": 0.0,
        "service.hit_ms_p50": 0.0,
        "service.cold_ms_p50": 0.0,
        "service.single_flight_shared": 0,
        "service.rejected": 0,
        "inputs.repeated_ratio": measure.repeated_ratio(samples),
        "trace.ops": len(samples),
        "trace.overhead_ratio": (len(samples) / phase_s)
        / reference_ops_per_s,
        "trace.unattributed_ratio": 1.0 - layers / op_time,
        "trace.stress_share": stressed_s / op_time,
    }
