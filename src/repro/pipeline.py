"""End-to-end compilation driver.

``compile_minic`` takes MiniC source through the whole stack::

    front end -> cleanup -> LICM -> strength reduction -> unroll
              -> memory access coalescing -> machine lowering
              -> cleanup -> list scheduling

The stage order is declared once, in :data:`STAGES`, and every stage
runs through :meth:`repro.resilience.transaction.PassGuard.stage`.

Four preset configurations reproduce the paper's measurement columns:

=================  ==========================================================
``cc``             the native-compiler proxy: everything except scheduling
``vpo``            the full optimizer, loops unrolled (Table II/III col. 3)
``coalesce-loads`` ``vpo`` + coalescing of loads only (col. 4)
``coalesce-all``   ``vpo`` + coalescing of loads and stores (col. 5)
=================  ==========================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.alias import annotate_memory_roots
from repro.coalesce import CoalesceReport, coalesce_function
from repro.errors import ReproError
from repro.frontend import compile_source
from repro.ir.function import Function, Module
from repro.ir.verifier import verify_module
from repro.machine import MachineDescription, get_machine, lower_module
from repro.opt import loop_invariant_code_motion, strength_reduce, unroll_function
from repro.opt.pass_manager import PassContext, cleanup
from repro.opt.regalloc import allocate_registers
from repro.resilience.transaction import (
    PASS_FAILURE_POLICIES,
    PassFailure,
    PassGuard,
)
from repro.sched.block_cost import schedule_module
from repro.sim import Simulator
from repro.sim.facts import ModuleFacts
from repro.sim.plan import Plan, check, dump as dump_arrays, run_plan
from repro.timing import span


#: Every step of ``compile_minic`` in run order, with the config test
#: that turns it on.  A step runs on each function unless it is one of
#: ``MODULE_STAGES``; consecutive function steps run as a group, all of
#: them on one function before the next function starts.  A named step
#: is a stage: it runs through :meth:`PassGuard.stage` under its name,
#: which is also its ``pass_stats`` key, fault-injection site and
#: bisect candidate.  The unnamed step tags memory references for the
#: alias-consistency checker; it runs outside the guard, unrecorded,
#: and no fault is injected into it.
STAGES = (
    ("cleanup", lambda c: c.optimize),
    ("licm", lambda c: c.optimize),
    ("cleanup", lambda c: c.optimize),
    ("strength_reduce", lambda c: c.optimize),
    ("cleanup", lambda c: c.optimize),
    ("unroll", lambda c: c.unroll),
    ("cleanup", lambda c: c.unroll),
    (None, lambda c: c.sanitize or c.differential),
    ("coalesce", lambda c: c.coalesce != "none"),
    ("cleanup", lambda c: c.coalesce != "none" and c.optimize),
    ("lower", lambda c: True),
    ("cleanup", lambda c: c.optimize),
    ("schedule", lambda c: c.schedule),
    ("regalloc", lambda c: c.regalloc),
)

#: Stages that run once over the whole module.
MODULE_STAGES = ("lower", "schedule")


def stage_names(config: Optional["PipelineConfig"] = None) -> Tuple[str, ...]:
    """The stages ``config`` runs (every stage when ``None``), each named
    once, in first-run order."""
    return tuple(dict.fromkeys(
        name for name, when in STAGES
        if name is not None and (config is None or when(config))
    ))


STAGE_NAMES = stage_names()


@dataclass
class PipelineConfig:
    """Knobs of the compilation pipeline."""

    name: str = "custom"
    optimize: bool = True
    unroll: bool = True
    unroll_factor: Optional[int] = None
    coalesce: str = "none"           # 'none' | 'loads' | 'all'
    force_coalesce: bool = False
    # Let the static alias engine discharge Figure 5 run-time checks it
    # can prove (overlap, alignment, divisibility).  Automatically
    # disabled when faults are being injected: the chaos path must
    # exercise the full check chain and the original-loop fallback.
    elide_checks: bool = True
    schedule: bool = True
    # Add the paper's "n % k" preheader check instead of relying on the
    # remainder prologue (mainly for demonstrating Figure 5's exact shape).
    versioned_divisibility: bool = False
    # Rewrite load runs with unaligned wide accesses (Figure 3's
    # UnAlignedWideType): ldq_u pairs + shifts, no alignment check needed.
    # Only effective on machines with unaligned wide loads (the Alpha).
    unaligned_loads: bool = False
    # Bind virtual registers to the machine's register file (linear scan
    # with spilling).  Off by default: the paper's kernels fit 32
    # registers, and virtual registers keep tests allocation-independent.
    regalloc: bool = False
    # Run the sanitizer checkers over the final module; findings land in
    # CompiledProgram.diagnostics instead of raising.
    sanitize: bool = False
    # Differential pass-sanitizer: snapshot each function before every
    # stage, re-execute both versions on auto-generated fixtures, and
    # report the offending stage on any behaviour divergence.  Expensive;
    # off by default.
    differential: bool = False
    # What to do when a pass raises, breaks the IR verifier, or
    # miscompiles (differential mode): 'raise' propagates (legacy),
    # 'skip' rolls the module back to the pre-pass snapshot and keeps
    # going, 'fallback' additionally disables the pass for the rest of
    # the compilation — the compile-time mirror of the paper's Fig. 5
    # run-time fallback loop.
    on_pass_failure: str = "raise"
    # Stage names never run at all (bisection uses this to pin failures).
    disabled_passes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.coalesce not in ("none", "loads", "all"):
            raise ReproError(f"bad coalesce mode {self.coalesce!r}")
        if self.on_pass_failure not in PASS_FAILURE_POLICIES:
            raise ReproError(
                f"bad on_pass_failure {self.on_pass_failure!r}; known: "
                f"{', '.join(PASS_FAILURE_POLICIES)}"
            )
        if not isinstance(self.disabled_passes, tuple):
            object.__setattr__(  # tolerate lists from JSON manifests
                self, "disabled_passes", tuple(self.disabled_passes)
            )
        unknown = [p for p in self.disabled_passes if p not in STAGE_NAMES]
        if unknown:
            raise ReproError(
                f"unknown stage(s) in disabled_passes: "
                f"{', '.join(map(repr, unknown))}; known: "
                f"{', '.join(STAGE_NAMES)}"
            )


PRESETS: Dict[str, PipelineConfig] = {
    "naive": PipelineConfig(
        name="naive", optimize=False, unroll=False, schedule=False
    ),
    "cc": PipelineConfig(name="cc", schedule=False),
    "vpo": PipelineConfig(name="vpo"),
    "coalesce-loads": PipelineConfig(name="coalesce-loads",
                                     coalesce="loads"),
    "coalesce-all": PipelineConfig(name="coalesce-all", coalesce="all"),
}


def get_config(
    config: Union[str, PipelineConfig, None], **overrides
) -> PipelineConfig:
    if config is None:
        config = "vpo"
    if isinstance(config, str):
        try:
            config = PRESETS[config]
        except KeyError:
            raise ReproError(
                f"unknown pipeline preset {config!r}; known: "
                f"{', '.join(sorted(PRESETS))}"
            ) from None
    if overrides:
        config = replace(config, **overrides)
    return config


@dataclass
class Measurement:
    """One simulated call of a compiled program
    (:meth:`CompiledProgram.measure`): what ``repro run`` prints, the
    bench harness records and the service's simulate answers carry."""

    cycles: int = 0
    base_cycles: int = 0
    dcache_miss_cycles: int = 0
    icache_miss_cycles: int = 0
    instr_count: int = 0
    memory_accesses: int = 0
    # The call returned the plan's result and left its outputs.
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
    # Nothing was compiled for this program: it was revived from the
    # disk compile cache.
    compile_cache_hit: bool = False
    # The simulator backend that actually ran (after any fallback).
    sim_backend: str = "interp"
    # The first ``dump`` elements of each staged array (None: no dump).
    arrays: Optional[Dict[str, List[int]]] = None


@dataclass
class CompiledProgram:
    """A lowered, scheduled module plus everything learned on the way.

    The module is finished: once the program has simulated it is
    read-only.  What the simulator derives from it (code layout,
    registration, closure keys, the static cycles of the blocks a run
    executed) is derived once and kept in :attr:`facts`, which every
    :meth:`simulator` shares, so a program held by many threads (the
    compile cache's revive memo) is shared read-only.
    """

    module: Module
    machine: MachineDescription
    config: PipelineConfig
    coalesce_reports: List[CoalesceReport] = field(default_factory=list)
    # Sanitizer findings (repro.sanitize.Diagnostic), populated when the
    # config enables sanitize/differential.
    diagnostics: List[object] = field(default_factory=list)
    # pass/stage name -> {"runs", "changed"}; empty on a cache hit
    pass_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # True when this program was revived from the compile-session cache
    # (repro.bench.cache) instead of being compiled in this process.
    cache_hit: bool = False
    # Recovered pass failures (repro.resilience.PassFailure), populated
    # when on_pass_failure is 'skip'/'fallback' or faults were injected.
    # Non-empty means the program is correct but less optimized than the
    # configuration asked for.
    pass_failures: List[PassFailure] = field(default_factory=list)
    facts: ModuleFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.facts = ModuleFacts(self.module, self.machine)

    def simulator(self, **kwargs) -> Simulator:
        return Simulator(self.module, self.machine, facts=self.facts,
                         **kwargs)

    def measure(self, plan: Plan, dump: int = 0, **options) -> Measurement:
        """Run ``plan`` on a new :class:`Simulator` built with
        ``options``, check it against the plan's references, price it,
        and read back up to ``dump`` elements of each staged array."""
        sim = self.simulator(**options)
        result = run_plan(sim, plan)
        ok = check(sim, plan, result)
        report = sim.report()
        return Measurement(
            cycles=report.total_cycles,
            base_cycles=report.base_cycles,
            dcache_miss_cycles=report.dcache_miss_cycles,
            icache_miss_cycles=report.icache_miss_cycles,
            instr_count=report.instr_count,
            memory_accesses=report.memory_accesses,
            output_ok=ok,
            coalesced_loops=self.coalesced_loops,
            checks_elided=self.checks_elided,
            coalesced_by_shape=self.coalesced_by_shape,
            result=result,
            loads=report.load_count,
            stores=report.store_count,
            dcache_misses=report.dcache_misses,
            icache_misses=report.icache_misses,
            compile_cache_hit=self.cache_hit,
            sim_backend=sim.backend,
            arrays=dump_arrays(sim, plan, dump) if dump else None,
        )

    @property
    def coalesced_loops(self) -> int:
        return sum(1 for r in self.coalesce_reports if r.applied)

    @property
    def checks_elided(self) -> int:
        """Figure 5 run-time checks the alias engine discharged."""
        return sum(
            getattr(r, "checks_elided", 0) for r in self.coalesce_reports
        )

    @property
    def coalesced_by_shape(self) -> Dict[str, int]:
        """Applied runs per access-shape lattice kind (unit/strided/...)."""
        totals: Dict[str, int] = {}
        for report in self.coalesce_reports:
            if not report.applied:
                continue
            for kind, wins in getattr(report, "shape_wins", {}).items():
                totals[kind] = totals.get(kind, 0) + wins
        return totals

    @property
    def degraded(self) -> bool:
        """Did any pass fail and get rolled back during compilation?"""
        return bool(self.pass_failures)

    @property
    def lint_errors(self) -> List[object]:
        return [d for d in self.diagnostics if d.severity == "error"]


def compile_minic(
    source: str,
    machine: Union[str, MachineDescription] = "alpha",
    config: Union[str, PipelineConfig, None] = None,
    faults=None,
    crash_dir: Optional[str] = None,
    cancel=None,
    max_bundles: Optional[int] = None,
    **overrides,
) -> CompiledProgram:
    """Compile MiniC ``source`` for ``machine`` under ``config``.

    ``faults`` is an optional :class:`repro.resilience.FaultPlan`
    (defaulting to ``REPRO_FAULTS`` from the environment) used to
    chaos-test the recovery machinery.  ``crash_dir`` (default
    ``REPRO_CRASH_DIR``) enables reproducer-bundle serialization for
    every recovered pass failure; ``max_bundles`` caps how many bundles
    the directory keeps (default ``REPRO_MAX_BUNDLES`` or 20).

    ``cancel`` is an optional zero-argument callable invoked at every
    stage boundary (a *cancellation point*); raising from it — the
    compile service raises :class:`repro.errors.DeadlineExceeded` —
    aborts the compilation between passes without being mistaken for a
    pass failure.  It is also installed as the fault plan's
    ``cancel_check`` so an injected ``sleep`` stall is cut short.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    config = get_config(config, **overrides)
    if faults is None:
        from repro.resilience.faults import FaultPlan

        faults = FaultPlan.from_env()
    if faults is not None and cancel is not None:
        faults.cancel_check = cancel
    if crash_dir is None:
        crash_dir = os.environ.get("REPRO_CRASH_DIR") or None

    with span("compile"):
        if cancel is not None:
            cancel()
        with span("frontend"):
            module = compile_source(source, word_bytes=machine.word_bytes)
        verify_module(module)

        sink = None
        sanitizer = None
        if (
            config.sanitize or config.differential
            or config.on_pass_failure != "raise" or faults
        ):
            from repro.sanitize import DiagnosticSink

            sink = DiagnosticSink()
        if config.differential:
            from repro.sanitize.differential import DifferentialSanitizer

            sanitizer = DifferentialSanitizer(module, machine, sink)

        ctx = PassContext(machine, sink=sink)
        reports: List[CoalesceReport] = []

        guard = PassGuard(
            module, machine,
            policy=config.on_pass_failure,
            faults=faults,
            sink=sink,
            sanitizer=sanitizer,
            source=source,
            config=config,
            crash_dir=crash_dir,
            disabled=config.disabled_passes,
            max_bundles=max_bundles,
        )

        # Each stage's body.  The callees are looked up in this module
        # when a stage runs, so a wrapper installed on
        # ``repro.pipeline.<callee>`` sees every call.
        def coalesce(func: Function):
            divisibility = None
            if config.versioned_divisibility:
                divisibility = config.unroll_factor or machine.word_bytes
            return coalesce_function(
                func,
                ctx,
                include_stores=config.coalesce == "all",
                force=config.force_coalesce,
                divisibility_factor=divisibility,
                unaligned_loads=config.unaligned_loads,
                elide_checks=config.elide_checks and not faults,
            )

        def lower(_) -> None:
            lower_module(module, machine)
            verify_module(module)

        bodies = {
            "cleanup": lambda func: cleanup(func, ctx),
            "licm": lambda func: loop_invariant_code_motion(func, ctx),
            "strength_reduce": lambda func: strength_reduce(func, ctx),
            "unroll": lambda func: unroll_function(
                func, ctx, factor=config.unroll_factor),
            "coalesce": coalesce,
            "lower": lower,
            "schedule": lambda _: schedule_module(module, machine),
            "regalloc": lambda func: allocate_registers(func, ctx),
        }

        def run(name: str, func: Optional[Function] = None):
            # The cancel probe runs *outside* the guard: a deadline abort
            # must propagate, never be rolled back as a pass failure.
            if cancel is not None:
                cancel()
            return guard.stage(
                ctx, name, lambda: bodies[name](func), func=func
            )

        steps = [name for name, when in STAGES if when(config)]
        for per_module, group in groupby(
            steps, key=lambda name: name in MODULE_STAGES
        ):
            if per_module:
                for name in group:
                    run(name)
                continue
            group = list(group)
            for func in module:
                for name in group:
                    if name is None:
                        # Pre-lowering, while the IR is still analyzable; the
                        # alias-consistency checker validates the claims.
                        annotate_memory_roots(func, ctx.analyses.memdep(func))
                    elif name == "coalesce":
                        reports.extend(run(name, func) or [])
                    else:
                        run(name, func)
        verify_module(module)

        if config.sanitize:
            from repro.sanitize import lint_module

            lint_module(module, machine, sink=sink)
        for func in module:
            func.forget_cfg_facts()  # a held program keeps no facts

        return CompiledProgram(
            module, machine, config, reports,
            diagnostics=list(sink) if sink is not None else [],
            pass_stats=dict(ctx.stats),
            pass_failures=list(guard.failures),
        )


def compile_and_run(
    source: str,
    entry: str,
    args: Sequence[Union[str, int]],
    machine: Union[str, MachineDescription] = "alpha",
    config: Union[str, PipelineConfig, None] = None,
    sim_backend: Optional[str] = None,
    arrays: Optional[Sequence[Tuple[str, int, List[int]]]] = None,
    **overrides,
) -> Tuple[Optional[int], Simulator]:
    """One-call convenience: compile ``source``, stage ``arrays`` and
    call ``entry``.

    ``arrays`` holds ``(name, width, values)`` staged in order; a string
    in ``args`` passes the address of the array it names.  Returns the
    signed result (None for a void entry) and the :class:`Simulator`.
    ``sim_backend`` picks ``interp`` or ``compiled``; None defers to
    ``REPRO_SIM_BACKEND``.
    """
    call = Plan(entry, arrays or [], args)
    program = compile_minic(source, machine, config, **overrides)
    sim = program.simulator(backend=sim_backend)
    return run_plan(sim, call), sim
