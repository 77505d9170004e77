"""Checkers auditing the static alias engine (``repro.analysis.alias``).

Two checkers guard the engine's two failure modes:

* ``alias-consistency`` — an *unsound engine*.  The pipeline tags every
  load/store whose base the engine resolved to a named object (frame
  slot or global) with ``notes['memdep_root']``; those whole-object
  claims are what no-alias verdicts between distinct roots rest on.
  This checker re-executes the function on the differential sanitizer's
  fixture plans with an interpreter trace hook and reports any annotated
  access whose concrete address leaves the claimed object's storage.
  It audits whatever the compiled module carries — modules compiled
  without ``sanitize``/``differential`` have no annotations and pass
  vacuously.

* ``redundant-runtime-check`` — a *wasteful pipeline*.  Every emitted
  Figure 5 check branch carries ``notes['runtime_check']`` with the
  engine's verdict; ``dischargeable: True`` means the engine proved the
  check unnecessary but it was emitted anyway (check elision disabled,
  e.g. under fault injection — or a pipeline bug dropping the elision).
  This checker flags those branches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir.function import Function, Module
from repro.ir.rtl import CondJump, Instr, Load, Store
from repro.sanitize.diagnostics import DiagnosticSink, Location
from repro.sanitize.differential import (
    DEFAULT_VARIANTS,
    fixture_plans,
    fixture_sim,
    observe,
)
from repro.sanitize.registry import checker

#: Fixture variants for the consistency audit: the differential
#: sanitizer's defaults plus large trip counts, because tiled kernels
#: (blockstage-style) never enter their outer loop — and so never touch
#: an annotated reference — unless ``n`` covers at least one whole tile.
#: A misaligned large variant drives the run-time-check fallback loop,
#: whose (RMW-widened) references carry their own annotations.
_AUDIT_VARIANTS = DEFAULT_VARIANTS + ((0, 64), (0, 96), (2, 96))


def _locate(func: Function, target: Instr) -> Location:
    for block in func.blocks:
        for index, instr in enumerate(block.instrs):
            if instr is target:
                return Location(func.name, block.label, index)
    return Location(func.name)


def _annotated_refs(func: Function) -> List[Instr]:
    return [
        instr
        for block in func.blocks
        for instr in block.instrs
        if isinstance(instr, (Load, Store))
        and "memdep_root" in instr.notes
    ]


@checker(
    "alias-consistency",
    "no-alias claims of the static alias engine hold on concrete runs",
)
def check_alias_consistency(
    func: Function,
    module: Optional[Module],
    machine,
    sink: DiagnosticSink,
) -> None:
    if module is None or not _annotated_refs(func):
        return

    # One finding per instruction: (instr, observed addr, lo, hi, note).
    violations: Dict[int, Tuple[Instr, int, int, int, Dict]] = {}

    def audit(name: str, instr, addr: int, slots, global_addrs) -> None:
        if name != func.name or id(instr) in violations:
            return
        note = instr.notes.get("memdep_root")
        if note is None:
            return
        if note["kind"] == "frame":
            base = slots.get(note["name"])
            size = func.frame_slots.get(note["name"], (0, 0))[0]
        else:  # 'global'
            base = global_addrs.get(note["name"])
            var = module.globals.get(note["name"])
            size = var.size if var is not None else 0
        if base is None or not size:
            return
        # Unaligned wide loads (ldq_u-style) legitimately read the whole
        # aligned word *containing* the addressed byte, which may start
        # before a mid-word object — audit just the addressed byte.
        # Widened instructions keep the pre-lowering width in the note.
        span = 1 if instr.unaligned else min(
            instr.width, note.get("width", instr.width)
        )
        if addr < base or addr + span > base + size:
            violations[id(instr)] = (instr, addr, base, base + size, note)

    for plan in fixture_plans(func, _AUDIT_VARIANTS):
        observe(fixture_sim(module, machine, trace_hook=audit), plan)

    for instr, addr, lo, hi, note in violations.values():
        sink.error(
            "alias-consistency",
            f"access claimed to stay inside {note['kind']} object "
            f"{note['name']!r} [{lo:#x}, {hi:#x}) touched {addr:#x} "
            f"(loop {note['loop']}) — the alias engine's whole-object "
            "claim is wrong and any no-alias verdict built on it is "
            "unsound",
            location=_locate(func, instr),
            hint="suspect repro.analysis.alias address resolution for "
                 "this base register",
        )


@checker(
    "redundant-runtime-check",
    "runtime checks the alias engine proved unnecessary are not emitted",
)
def check_redundant_runtime_check(
    func: Function,
    module: Optional[Module],
    machine,
    sink: DiagnosticSink,
) -> None:
    for block in func.blocks:
        for index, instr in enumerate(block.instrs):
            if not isinstance(instr, CondJump):
                continue
            note = instr.notes.get("runtime_check")
            if not note or not note.get("dischargeable"):
                continue
            sink.warning(
                "redundant-runtime-check",
                f"{note['kind']} check for loop {note['loop']} was "
                "emitted although the alias engine discharged it "
                "statically",
                location=Location(func.name, block.label, index),
                hint="compile with check elision enabled "
                     "(PipelineConfig.elide_checks; it is disabled "
                     "automatically under fault injection)",
            )
