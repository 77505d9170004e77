"""The differential pass-sanitizer.

Static checks prove properties; this module *observes* them.  In
differential mode the stage driver (``PassGuard.stage``) snapshots a
function before each stage, runs both versions through the
reference interpreter on generated fixtures, and emits an error
diagnostic **naming the offending pass** the moment observable
behaviour diverges — return value, the staged arrays, or global
contents.  A future miscompile therefore surfaces as a pinpointed lint
finding instead of a wrong number three stages later.

Fixtures are plans (:mod:`repro.sim.plan`), made by
:func:`fixture_plans` and run by :func:`observe` through ``run_plan``,
the staging path of every other kernel call; the ``alias-consistency``
checker and ``repro chaos`` run the same plans.  They are deterministic
(no randomness): pointer parameters get small filled arrays, integer
parameters a spread of trip-count-ish values; one fixture misaligns the
pointers and two pass every pointer into one array, which drives the
Fig. 5 alignment and overlap checks to the safe loop.  A fixture whose
*baseline* run faults is inconclusive and skipped; a fixture where only
the transformed function faults is a divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.ir.function import Function, Module
from repro.ir.rtl import Load, Store
from repro.sanitize.diagnostics import DiagnosticSink, Location
from repro.sim.facts import ModuleFacts
from repro.sim.plan import Plan, run_plan
from repro.sim.runner import Simulator
from repro.timing import root

FIXTURE_BYTES = 96
MAX_FIXTURE_STEPS = 2_000_000

# (misalignment of every pointer argument, integer argument value)
DEFAULT_VARIANTS: Tuple[Tuple[int, int], ...] = (
    (0, 8),   # aligned, trip count a multiple of every unroll factor
    (0, 5),   # aligned, odd trip count: exercises remainder handling
    (2, 6),   # misaligned pointers: exercises the fallback loop
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


def fixture_plans(
    func: Function,
    variants: Sequence[Tuple[int, int]] = DEFAULT_VARIANTS,
) -> List[Plan]:
    """The calls the checkers run ``func`` on, as plans.

    Pointer parameter ``k`` (at parameter ``position``) gets array
    ``p{k}``: ``FIXTURE_BYTES`` bytes filled with
    ``(13 + 7*position + 3*i) & 0xFF``.  Each ``(misalignment, integer)``
    variant passes every pointer at ``[p{k}, misalignment]`` and every
    integer parameter the integer.  A function with two or more pointer
    parameters gets two more plans, with integer 8, whose pointers all
    point into ``p0``: in place (``[p0, 0]`` each), and pointer ``k`` at
    ``[p0, 4*k]``.
    """
    kinds = param_kinds(func)
    positions = [pos for pos, kind in enumerate(kinds) if kind == "ptr"]
    arrays = [
        (f"p{k}", 1, [(13 + 7 * pos + 3 * i) & 0xFF
                      for i in range(FIXTURE_BYTES)])
        for k, pos in enumerate(positions)
    ]

    def call(staged, pointers, integer) -> Plan:
        pointers = iter(pointers)
        return Plan(func.name, staged, [
            next(pointers) if kind == "ptr" else integer for kind in kinds
        ])

    plans = [
        call(arrays, [[name, misalignment] for name, _, _ in arrays],
             integer)
        for misalignment, integer in variants
    ]
    if len(arrays) > 1:
        plans.append(call(arrays[:1], [["p0", 0] for _ in arrays], 8))
        plans.append(call(arrays[:1],
                          [["p0", 4 * k] for k in range(len(arrays))], 8))
    return plans


def describe(plan: Plan) -> str:
    """``entry(p0+2, p1+2, 6)``: a fixture plan's call."""
    return plan.entry + "(" + ", ".join(
        f"{arg[0]}+{arg[1]}" if isinstance(arg, (list, tuple))
        else str(arg)
        for arg in plan.args
    ) + ")"


@dataclass
class Outcome:
    """Observable behaviour of one fixture run."""

    status: str                       # 'ok' | exception class name
    value: Optional[int] = None
    # ("array 'p0'" | "global 'g'", contents after the call)
    memory: Tuple[Tuple[str, bytes], ...] = ()

    def diverges_from(self, other: "Outcome") -> Optional[str]:
        """Human description of the first difference, or ``None``."""
        if self.status != other.status:
            return f"status {self.status} vs {other.status}"
        if self.value != other.value:
            return f"return value {self.value} vs {other.value}"
        for (what, mine), (_, theirs) in zip(self.memory, other.memory):
            if mine != theirs:
                byte = next(
                    i for i, (x, y) in enumerate(zip(mine, theirs))
                    if x != y
                )
                return (
                    f"{what} differs at byte {byte} "
                    f"({mine[byte]:#04x} vs {theirs[byte]:#04x})"
                )
        return None


def fixture_sim(module: Module, machine, trace_hook=None,
                facts: Optional[ModuleFacts] = None) -> Simulator:
    """A reference-interpreter simulator for fixture runs: caches off,
    ``MAX_FIXTURE_STEPS``.  ``trace_hook`` gets one call per executed
    Load/Store; the alias-consistency checker audits the static
    engine's claims against those concrete addresses.  Pass one
    ``facts`` of ``module`` to every fixture run on it, so register
    counts and label maps are derived once, not once per run."""
    return Simulator(
        module, machine, simulate_caches=False,
        max_steps=MAX_FIXTURE_STEPS, trace_hook=trace_hook,
        backend="interp", facts=facts,
    )


def observe(sim: Simulator, plan: Plan) -> Outcome:
    """Run ``plan`` on ``sim`` and read back every staged array and
    global; a simulation fault becomes the outcome's status.

    ``run_plan``'s ``sim.*`` spans go to a tree of their own, so a
    checker's fixture runs stay self time of the stage or command that
    checks, not simulation layers inside it."""
    status, value = "ok", None
    try:
        with root("fixture"):
            value = run_plan(sim, plan)
    except ReproError as exc:
        status = type(exc).__name__
    memory = [
        (f"array {name!r}",
         sim.memory.read_bytes(sim.array_addr(name), width * len(values)))
        for name, width, values in plan.arrays
    ]
    memory += [
        (f"global {name!r}",
         sim.memory.read_bytes(sim.engine.global_addrs[name], var.size))
        for name, var in sim.module.globals.items()
    ]
    return Outcome(status, value, tuple(memory))


def _module_with(module: Module, func: Function) -> Module:
    """A view of ``module`` with ``func`` substituted in."""
    view = Module(module.name)
    view.functions = dict(module.functions)
    view.functions[func.name] = func
    view.globals = module.globals
    return view


class DifferentialSanitizer:
    """Snapshot/compare driver used by ``PassGuard.stage``."""

    def __init__(self, module: Module, machine, sink: DiagnosticSink):
        self.module = module
        self.machine = machine
        self.sink = sink
        # Plans are keyed by function name and derived once from the
        # *first* snapshot, so both versions run identical inputs.
        self._plans: Dict[str, List[Plan]] = {}

    def snapshot(self, func: Function) -> Function:
        if func.name not in self._plans:
            self._plans[func.name] = fixture_plans(func)
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
        before_facts = ModuleFacts(before_module, self.machine)
        after_facts = ModuleFacts(after_module, self.machine)
        for plan in self._plans[func.name]:
            before = observe(fixture_sim(
                before_module, self.machine, facts=before_facts), plan)
            if before.status != "ok":
                continue  # inconclusive: no baseline behaviour
            after = observe(fixture_sim(
                after_module, self.machine, facts=after_facts), plan)
            difference = before.diverges_from(after)
            if difference is not None:
                agreed = False
                self.sink.error(
                    "differential",
                    f"pass changed observable behaviour on fixture "
                    f"{describe(plan)}: {difference}",
                    location=Location(func.name),
                    provenance=pass_name,
                    hint="the named pass miscompiled this function; "
                         "re-run with the pass disabled to confirm",
                )
        return agreed
