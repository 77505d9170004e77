"""Transactional pass execution: snapshot, verify, roll back, record.

Mirrors the paper's run-time fallback (Fig. 5) at compile time: just as
the coalesced loop is entered only after preheader checks pass — with
control falling back to the original safe loop otherwise — every
optimization pass here runs against a snapshot and commits only if the
result survives the IR verifier (and, when enabled, the differential
pass-sanitizer).  A pass that throws, corrupts the IR, or miscompiles is
rolled back and compilation degrades gracefully to a still-correct, if
less optimized, program.

Snapshots are the RTL-text round trip (``format_module`` /
``parse_module``) already proven bit-exact by the compile-session cache;
restoring swaps block lists back into the *live* ``Function`` objects so
iteration order and object identity survive the rollback.

The policy knob (``PipelineConfig.on_pass_failure``):

==========  ============================================================
``raise``   legacy behaviour — the failure propagates (default)
``skip``    roll back this pass invocation and keep going
``fallback``  roll back *and* disable the pass for the rest of the
            compilation, like the paper's safe-loop fallback
==========  ============================================================
"""

from __future__ import annotations

import traceback as _traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.ir.function import Function, Module
from repro.ir.parser import parse_module
from repro.ir.printer import format_module
from repro.ir.verifier import verify_function, verify_module
from repro.opt.pass_manager import reported_change
from repro.timing import span

PASS_FAILURE_POLICIES = ("raise", "skip", "fallback")


@dataclass
class PassFailure:
    """One recovered (or about-to-propagate) pass failure."""

    pass_name: str
    function: str                 # '' for module-level stages
    kind: str                     # 'exception' | 'verify' | 'differential'
    error_type: str
    message: str
    traceback: str
    pre_pass_rtl: str             # module RTL text before the pass ran
    invocation: int               # nth arrival at this pass site
    injected: str = ""            # the FaultSpec that fired, if any
    bundle: str = ""              # path of the written crash bundle, if any

    @property
    def signature(self) -> tuple:
        """What bisect/replay match on to call two failures 'the same'."""
        return (self.pass_name, self.kind, self.error_type)

    def describe(self) -> str:
        where = f" on {self.function}" if self.function else ""
        return (
            f"pass '{self.pass_name}'{where} failed "
            f"({self.kind}: {self.error_type}: {self.message})"
        )


def snapshot_module_text(module: Module) -> str:
    """The module's RTL text — the rollback point for one pass."""
    return format_module(module)


def _adopt_function(live: Function, saved: Function) -> None:
    """Copy ``saved``'s body into ``live`` without changing identity.

    ``_next_reg``/``_next_label`` are left at the live (higher) values:
    both counters are monotone, so keeping them can only waste names,
    never collide.
    """
    live.params = list(saved.params)
    live.blocks = saved.blocks
    live.frame_slots = dict(saved.frame_slots)
    live.reserve_reg_index(saved.max_reg_index())


def restore_module_text(module: Module, text: str) -> None:
    """Roll every function of ``module`` back to the snapshot ``text``.

    Globals are structural (no pass mutates them) and functions are never
    added or removed mid-pipeline, so restoring bodies in place suffices.
    """
    saved = parse_module(text, name=module.name)
    for name, live in module.functions.items():
        replacement = saved.functions.get(name)
        if replacement is not None:
            _adopt_function(live, replacement)


class PassGuard:
    """Runs pipeline stages as transactions against a module snapshot.

    The one driver for passes: every pipeline stage and every standalone
    pass runs through :meth:`stage`.  One guard serves one compilation.
    It is *armed* (snapshots, per-pass verification, rollback) whenever
    the policy is not ``raise`` or a fault plan is present; otherwise
    every stage runs on the legacy fast path — no snapshot, failures
    propagate — so default compilations are byte-for-byte unchanged.
    """

    def __init__(
        self,
        module: Module,
        machine=None,
        policy: str = "raise",
        faults=None,
        sink=None,
        sanitizer=None,
        source: str = "",
        config=None,
        crash_dir: Optional[str] = None,
        disabled: tuple = (),
        max_bundles: Optional[int] = None,
    ):
        if policy not in PASS_FAILURE_POLICIES:
            from repro.errors import ReproError

            raise ReproError(
                f"unknown on_pass_failure policy {policy!r}; known: "
                f"{', '.join(PASS_FAILURE_POLICIES)}"
            )
        self.module = module
        self.machine = machine
        self.policy = policy
        self.faults = faults
        self.sink = sink
        self.sanitizer = sanitizer
        self.source = source
        self.config = config
        self.crash_dir = crash_dir
        self.max_bundles = max_bundles
        self.disabled: Set[str] = set(disabled)
        self.armed = policy != "raise" or bool(faults)
        self.failures: List[PassFailure] = []
        self._arrivals: Dict[str, int] = {}

    # -- the transaction ----------------------------------------------------
    def stage(self, ctx, name: str, thunk, func: Optional[Function] = None):
        """Run one stage; returns its result, or ``None`` when skipped or
        rolled back.  ``func`` names the function for per-function stages
        (``None`` for module-level ones like lowering/scheduling).

        A stage that completes leaves ``ctx.analyses`` to its passes:
        each one is declared with
        :func:`repro.opt.pass_manager.function_pass` and retires the
        analyses its own changes invalidate, so a stage that changed
        nothing keeps everything cached and settled.  The guard retires
        them itself only where it, not a pass, decided what the IR now
        is: after a module stage, a disabled stage or a rollback (which
        restores every function's blocks) it clears the whole cache,
        and after a stage in which a fault fired it drops the
        function's entry.  The whole call is one span named ``name``.
        """
        with span(name):
            if name in self.disabled:
                ctx.record_pass(name, False)
                result, spec = None, None
            else:
                aliases = (f"{name}:{func.name}",) if func is not None else ()
                spec = self.faults.draw(name, aliases) if self.faults else None
                result = self._transact(ctx, name, thunk, func, spec)
            if func is None or result is None:
                ctx.analyses.clear()
            elif spec is not None:
                ctx.analyses.invalidate(func)
        return result

    def _transact(self, ctx, name: str, thunk, func: Optional[Function],
                  spec):
        invocation = self._arrivals[name] = self._arrivals.get(name, 0) + 1

        snapshot = snapshot_module_text(self.module) if self.armed else None
        behavior = None
        if self.sanitizer is not None:
            if func is not None:
                behavior = self.sanitizer.snapshot(func)
            else:
                behavior = {
                    f.name: self.sanitizer.snapshot(f) for f in self.module
                }

        error: Optional[BaseException] = None
        error_tb = ""
        failure_kind = "exception"
        result = None
        try:
            if spec is not None and spec.kind in ("raise", "stall", "sleep"):
                self.faults.execute(spec)
            result = thunk()
            if spec is not None and spec.kind == "corrupt":
                target = func if func is not None else next(
                    iter(self.module), None
                )
                self.faults.corrupt(spec, target)
            if self.armed:
                failure_kind = "verify"
                if func is not None:
                    verify_function(func)
                else:
                    verify_module(self.module)
        except Exception as exc:  # noqa: BLE001 — any pass bug must be containable
            error = exc
            error_tb = _traceback.format_exc()

        if error is None:
            changed = reported_change(result)
            agreed = True
            if self.sanitizer is not None:
                if func is not None:
                    if changed:
                        agreed = self.sanitizer.compare(behavior, func, name)
                else:
                    for f in self.module:
                        if not self.sanitizer.compare(
                            behavior[f.name], f, name
                        ):
                            agreed = False
            if agreed or not self.armed:
                ctx.record_pass(name, changed)
                return result
            failure_kind = "differential"

        ctx.record_pass(name, False)
        if not self.armed:
            raise error  # legacy 'raise' path: propagate unchanged
        if self.policy == "raise" and error is not None:
            raise error

        restore_module_text(self.module, snapshot)
        failure = PassFailure(
            pass_name=name,
            function=func.name if func is not None else "",
            kind=failure_kind,
            error_type=(
                type(error).__name__ if error is not None else "Miscompile"
            ),
            message=(
                str(error) if error is not None
                else "differential sanitizer observed a behaviour change"
            ),
            traceback=error_tb,
            pre_pass_rtl=snapshot,
            invocation=invocation,
            injected=str(spec) if spec is not None else "",
        )
        self.failures.append(failure)
        self._report(failure)
        self._write_bundle(failure)
        if self.policy == "fallback":
            self.disabled.add(name)
        if self.policy == "raise":
            # Differential miscompile under the raise policy: surface it
            # as a hard error carrying the sink's findings.
            from repro.errors import LintError

            raise LintError(
                self.sink.errors if self.sink is not None else []
            )
        return None

    # -- reporting ----------------------------------------------------------
    def _report(self, failure: PassFailure) -> None:
        if self.sink is None:
            return
        from repro.sanitize.diagnostics import Location

        self.sink.warning(
            "pass-recovery",
            f"{failure.describe()}; rolled back to the last good module",
            location=(
                Location(failure.function) if failure.function else None
            ),
            provenance=failure.pass_name,
            hint="replay with 'python -m repro replay <bundle>' or pin "
                 "the pass with 'python -m repro bisect <bundle>'",
        )

    def _write_bundle(self, failure: PassFailure) -> None:
        if self.crash_dir is None:
            return
        from repro.resilience.bundle import write_bundle

        try:
            failure.bundle = write_bundle(
                failure,
                source=self.source,
                machine_name=getattr(self.machine, "name", str(self.machine)),
                config=self.config,
                directory=self.crash_dir,
                faults=str(self.faults) if self.faults else "",
                max_bundles=self.max_bundles,
            )
        except OSError:
            pass  # bundle writing must never turn recovery into a crash
