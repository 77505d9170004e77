"""Pass context, pass declaration and the cleanup fixpoint.

A pass is a callable ``pass_fn(func, ctx, ...)`` declared with
:func:`function_pass`, returning whether it changed the function: a
bool, a list of reports (a change when any report ``applied``), or any
other result, which counts as a change (:func:`reported_change`).  The
declaration is how cached facts stay current: when the pass reports a
change, it retires the function's entries on ``ctx.analyses``.  So a
pass called directly, outside any pipeline stage, leaves no stale
analysis behind.

Pipeline stages and standalone passes run through
:meth:`repro.resilience.transaction.PassGuard.stage`, which times them
as a span, records their statistics, verifies, runs the differential
sanitizer and rolls back a failed stage.  Inside a stage,
:func:`run_to_fixpoint` iterates a pass bundle (``cleanup``) until
nothing changes, timing each pass as a span nested under the stage's
and verifying the IR after every pass that changed it so a
transformation bug is caught at its source.  A pass whose last run on
the function's current IR changed nothing is *settled* there: the
fixpoint skips it until some pass changes the function again, so a
``cleanup`` on a function nothing touched since the last one runs no
pass at all.

The context carries what every pass may need: the target machine, the
sanitizer's diagnostic ``sink``, per-pass ``stats`` (how often each pass
ran and how often it changed the IR) and the analysis cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.manager import AnalysisManager
from repro.ir.function import Function
from repro.ir.verifier import verify_function
from repro.machine.machine import MachineDescription
from repro.timing import span

PassFn = Callable[[Function, "PassContext"], bool]


@dataclass
class PassContext:
    """Target information and sanitizer hooks every pass may need."""

    machine: MachineDescription
    # Sanitizer integration: diagnostics land in the sink.
    sink: Optional[object] = None
    # pass name -> {"runs": int, "changed": int}
    stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # ``memdep`` and settled passes (repro.analysis.manager).  A pass
    # declared with ``function_pass`` retires them when it changes IR.
    analyses: AnalysisManager = field(default_factory=AnalysisManager)

    @property
    def word_bytes(self) -> int:
        return self.machine.word_bytes

    @property
    def word_mask(self) -> int:
        return self.machine.word_mask

    def record_pass(self, name: str, changed: bool) -> None:
        entry = self.stats.setdefault(name, {"runs": 0, "changed": 0})
        entry["runs"] += 1
        entry["changed"] += 1 if changed else 0


def reported_change(result) -> bool:
    """Whether a pass or stage result reports a change to the IR."""
    if isinstance(result, bool):
        return result
    if isinstance(result, list):
        return any(getattr(r, "applied", True) for r in result)
    return True


def function_pass(pass_fn):
    """Declare a pass: when a call reports a change, the function's
    ``memdep`` and the record of which passes are settled on it are
    dropped from ``ctx.analyses``.  The pass keeps its name and
    signature."""

    @functools.wraps(pass_fn)
    def run(func, ctx=None, *args, **kwargs):
        result = pass_fn(func, ctx, *args, **kwargs)
        analyses = getattr(ctx, "analyses", None)
        if analyses is not None and reported_change(result):
            analyses.invalidate(func)
        return result

    return run


def run_to_fixpoint(
    func: Function,
    ctx: PassContext,
    passes: List[PassFn],
    max_rounds: int = 20,
) -> bool:
    """Iterate ``passes`` until none of them changes the function.

    A pass settled on ``func`` is skipped, neither run nor recorded; a
    pass that ran and changed nothing becomes settled.  The passes must
    be declared with :func:`function_pass`, whose invalidation on a
    change is what unsettles them.
    """
    analyses = ctx.analyses
    ever_changed = False
    for _ in range(max_rounds):
        changed = False
        for pass_fn in passes:
            name = pass_fn.__name__
            if analyses.is_settled(func, name):
                continue
            with span(name):
                pass_changed = reported_change(pass_fn(func, ctx))
            ctx.record_pass(name, pass_changed)
            if pass_changed:
                changed = True
                verify_function(func)
            else:
                analyses.settle(func, name)
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
