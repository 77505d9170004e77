"""The differential pass-sanitizer.

Static checks prove properties; this module *observes* them.  In
differential mode the stage driver (``PassGuard.stage``) snapshots a
function before each stage, runs both versions through the
reference interpreter on auto-generated argument/memory fixtures, and
emits an error diagnostic **naming the offending pass** the moment
observable behaviour diverges — return value, memory written through
pointer arguments, or global contents.  A future miscompile therefore
surfaces as a pinpointed lint finding instead of a wrong number three
stages later.

Fixture generation is deliberately deterministic (no randomness): pointer
parameters get small filled buffers, integer parameters get a spread of
trip-count-ish values, and one fixture deliberately misaligns the buffers
to drive the run-time-check fallback path.  A fixture whose *baseline*
run faults is inconclusive and skipped; a fixture where only the
transformed function faults is a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError, SimulationError
from repro.ir.function import Function, Module
from repro.ir.rtl import Load, Reg, Store
from repro.sanitize.diagnostics import DiagnosticSink, Location

BUFFER_BYTES = 96
MAX_FIXTURE_STEPS = 2_000_000

# (alignment nudge for pointer buffers, integer argument value)
_DEFAULT_VARIANTS: Tuple[Tuple[int, int], ...] = (
    (0, 8),   # aligned, trip count a multiple of every unroll factor
    (0, 5),   # aligned, odd trip count: exercises remainder handling
    (2, 6),   # misaligned buffers: exercises the fallback loop
)


def clone_function(func: Function) -> Function:
    """Deep-copy ``func``: fresh blocks and instructions, shared regs."""
    copy = Function(func.name, list(func.params))
    for block in func.blocks:
        copy.add_block(block.label, [i.clone() for i in block.instrs])
    copy.frame_slots = dict(func.frame_slots)
    copy._next_reg = func._next_reg
    copy._next_label = func._next_label
    if hasattr(func, "param_kinds"):
        copy.param_kinds = list(func.param_kinds)
    return copy


def param_kinds(func: Function) -> List[str]:
    """``'ptr'``/``'int'`` per parameter.

    The MiniC front end records the declared kinds on the function
    (``param_kinds``); for hand-built IR we fall back to a flow-
    insensitive taint pass: a parameter whose value can flow into a
    load/store base register is pointer-like.
    """
    declared = getattr(func, "param_kinds", None)
    if declared is not None and len(declared) == len(func.params):
        return list(declared)

    derives: Dict[int, set] = {
        p.index: {p.index} for p in func.params
    }
    changed = True
    while changed:
        changed = False
        for instr in func.iter_instrs():
            sources: set = set()
            for reg in instr.uses():
                sources |= derives.get(reg.index, set())
            if not sources:
                continue
            for reg in instr.defs():
                known = derives.setdefault(reg.index, set())
                if not sources <= known:
                    known |= sources
                    changed = True
    pointer_params: set = set()
    for instr in func.iter_instrs():
        if isinstance(instr, (Load, Store)):
            pointer_params |= derives.get(instr.base.index, set())
    return [
        "ptr" if p.index in pointer_params else "int"
        for p in func.params
    ]


@dataclass
class Fixture:
    """One auto-generated call: argument kinds plus variant knobs."""

    kinds: List[str]
    offset: int
    int_value: int

    def describe(self) -> str:
        args = ", ".join(
            f"buf(offset={self.offset})" if kind == "ptr"
            else str(self.int_value)
            for kind in self.kinds
        )
        return f"({args})"


def make_fixtures(
    func: Function,
    variants: Sequence[Tuple[int, int]] = _DEFAULT_VARIANTS,
) -> List[Fixture]:
    kinds = param_kinds(func)
    return [
        Fixture(kinds, offset, int_value)
        for offset, int_value in variants
    ]


@dataclass
class Outcome:
    """Observable behaviour of one fixture run."""

    status: str                       # 'ok' | exception class name
    value: Optional[int] = None
    buffers: Tuple[bytes, ...] = ()
    globals_: Tuple[Tuple[str, bytes], ...] = ()

    def diverges_from(self, other: "Outcome") -> Optional[str]:
        """Human description of the first difference, or ``None``."""
        if self.status != other.status:
            return f"status {self.status} vs {other.status}"
        if self.value != other.value:
            return f"return value {self.value} vs {other.value}"
        for position, (mine, theirs) in enumerate(
            zip(self.buffers, other.buffers)
        ):
            if mine != theirs:
                byte = next(
                    i for i, (x, y) in enumerate(zip(mine, theirs))
                    if x != y
                )
                return (
                    f"pointer argument #{position} differs at byte "
                    f"{byte} ({mine[byte]:#04x} vs {theirs[byte]:#04x})"
                )
        for (name, mine), (_, theirs) in zip(
            self.globals_, other.globals_
        ):
            if mine != theirs:
                return f"global {name!r} contents differ"
        return None


def run_fixture(
    module: Module,
    func_name: str,
    machine,
    fixture: Fixture,
    trace_hook=None,
) -> Outcome:
    """Execute one fixture in a fresh interpreter; never raises for
    simulation faults (they become the outcome's status).

    ``trace_hook`` is forwarded to the interpreter (one call per
    executed Load/Store); the alias-consistency checker uses it to
    audit the static engine's claims against concrete addresses.
    """
    from repro.sim.interp import Interpreter

    interp = Interpreter(
        module, machine, simulate_caches=False,
        max_steps=MAX_FIXTURE_STEPS,
        trace_hook=trace_hook,
    )
    buffers: List[Tuple[int, int]] = []  # (address, size)
    args: List[int] = []
    for position, kind in enumerate(fixture.kinds):
        if kind == "ptr":
            addr = interp.memory.alloc(
                BUFFER_BYTES, align=8, offset=fixture.offset
            )
            fill = bytes(
                (13 + 7 * position + 3 * i) & 0xFF
                for i in range(BUFFER_BYTES)
            )
            interp.memory.write_bytes(addr, fill)
            buffers.append((addr, BUFFER_BYTES))
            args.append(addr)
        else:
            args.append(fixture.int_value)
    try:
        value = interp.call(func_name, *args)
    except SimulationError as exc:
        return Outcome(status=type(exc).__name__)
    except ReproError as exc:
        return Outcome(status=type(exc).__name__)
    return Outcome(
        status="ok",
        value=value,
        buffers=tuple(
            interp.memory.read_bytes(addr, size)
            for addr, size in buffers
        ),
        globals_=tuple(
            (name, interp.memory.read_bytes(
                interp.global_addrs[name], var.size
            ))
            for name, var in module.globals.items()
        ),
    )


def _module_with(module: Module, func: Function) -> Module:
    """A view of ``module`` with ``func`` substituted in."""
    view = Module(module.name)
    view.functions = dict(module.functions)
    view.functions[func.name] = func
    view.globals = module.globals
    return view


class DifferentialSanitizer:
    """Snapshot/compare driver used by ``PassGuard.stage``."""

    def __init__(
        self,
        module: Module,
        machine,
        sink: DiagnosticSink,
        variants: Sequence[Tuple[int, int]] = _DEFAULT_VARIANTS,
    ):
        self.module = module
        self.machine = machine
        self.sink = sink
        self.variants = variants
        # Fixtures and baselines are keyed by function name; fixtures
        # are derived once from the *first* snapshot so both versions
        # run identical inputs.
        self._fixtures: Dict[str, List[Fixture]] = {}

    def snapshot(self, func: Function) -> Function:
        if func.name not in self._fixtures:
            self._fixtures[func.name] = make_fixtures(
                func, self.variants
            )
        return clone_function(func)

    def compare(
        self, snapshot: Function, func: Function, pass_name: str
    ) -> bool:
        """Run both versions; emit a diagnostic on divergence.

        Returns ``True`` when behaviour matched on every conclusive
        fixture.
        """
        agreed = True
        before_module = _module_with(self.module, snapshot)
        after_module = _module_with(self.module, func)
        for fixture in self._fixtures[func.name]:
            before = run_fixture(
                before_module, func.name, self.machine, fixture
            )
            if before.status != "ok":
                continue  # inconclusive: no baseline behaviour
            after = run_fixture(
                after_module, func.name, self.machine, fixture
            )
            difference = before.diverges_from(after)
            if difference is not None:
                agreed = False
                self.sink.error(
                    "differential",
                    f"pass changed observable behaviour on fixture "
                    f"{fixture.describe()}: {difference}",
                    location=Location(func.name),
                    provenance=pass_name,
                    hint="the named pass miscompiled this function; "
                         "re-run with the pass disabled to confirm",
                )
        return agreed
