"""Pass context and the cleanup fixpoint.

A pass is a callable ``pass_fn(func, ctx) -> bool`` returning whether it
changed anything.  Pipeline stages and standalone passes run through
:meth:`repro.resilience.transaction.PassGuard.stage`, which records
their statistics, verifies, runs the differential sanitizer and rolls
back a failed stage.  Inside a stage, :func:`run_to_fixpoint` iterates
a pass bundle (``cleanup``) until nothing changes, verifying the IR
after every pass that changed it so a transformation bug is caught at
its source.

The context carries what every pass may need: the target machine, the
sanitizer's diagnostic ``sink``, per-pass ``stats`` (changed/unchanged
and wall-clock timing for every invocation) and the analysis cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.manager import AnalysisManager, invalidate_after
from repro.ir.function import Function
from repro.ir.verifier import verify_function
from repro.machine.machine import MachineDescription

PassFn = Callable[[Function, "PassContext"], bool]


@dataclass
class PassContext:
    """Target information and sanitizer hooks every pass may need."""

    machine: MachineDescription
    verify: bool = True
    # Sanitizer integration: diagnostics land in the sink.
    sink: Optional[object] = None
    # pass name -> {"runs": int, "changed": int, "seconds": float}
    stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    # Cached dataflow (repro.analysis.manager).  A pass that changes a
    # function must let the manager know; declaring a ``preserves`` set
    # on the pass callable keeps the named analyses alive across it.
    analyses: AnalysisManager = field(default_factory=AnalysisManager)

    @property
    def word_bytes(self) -> int:
        return self.machine.word_bytes

    @property
    def word_mask(self) -> int:
        return self.machine.word_mask

    def record_pass(self, name: str, changed: bool, seconds: float) -> None:
        entry = self.stats.setdefault(
            name, {"runs": 0, "changed": 0, "seconds": 0.0}
        )
        entry["runs"] += 1
        entry["changed"] += 1 if changed else 0
        entry["seconds"] += seconds


def run_to_fixpoint(
    func: Function,
    ctx: PassContext,
    passes: List[PassFn],
    max_rounds: int = 20,
) -> bool:
    """Iterate ``passes`` until none of them changes the function."""
    ever_changed = False
    for _ in range(max_rounds):
        changed = False
        for pass_fn in passes:
            name = getattr(pass_fn, "__name__", str(pass_fn))
            started = time.perf_counter()
            pass_changed = bool(pass_fn(func, ctx))
            ctx.record_pass(
                name, pass_changed, time.perf_counter() - started
            )
            invalidate_after(pass_fn, ctx.analyses, func, pass_changed)
            if pass_changed:
                changed = True
                if ctx.verify:
                    verify_function(func)
        ever_changed = ever_changed or changed
        if not changed:
            return ever_changed
    return ever_changed


def cleanup(func: Function, ctx: PassContext) -> bool:
    """The standard scalar cleanup bundle, run to a fixpoint."""
    from repro.opt.constant_fold import constant_fold
    from repro.opt.copy_prop import copy_propagate
    from repro.opt.cse import local_cse
    from repro.opt.dce import dead_code_elimination
    from repro.opt.global_const import global_const_prop
    from repro.opt.peephole import peephole
    from repro.opt.simplify_cfg import simplify_cfg

    return run_to_fixpoint(
        func,
        ctx,
        [
            simplify_cfg,
            constant_fold,
            copy_propagate,
            global_const_prop,
            local_cse,
            peephole,
            dead_code_elimination,
        ],
    )

