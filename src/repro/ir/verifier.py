"""Structural well-formedness checks for RTL functions.

The verifier is intentionally strict; the pipeline runs it after every pass
so a transformation bug fails fast instead of surfacing as wrong simulator
output three stages later.

Two consumption modes:

* the classic raising mode (:func:`verify_function` /
  :func:`verify_module` with no sink) raises :class:`IRError` — on the
  *first* problem for a function, on the joined set for a module — which
  is what the pass drivers want;
* sanitizer mode: pass a :class:`repro.sanitize.diagnostics.DiagnosticSink`
  and every problem is reported as one :class:`Diagnostic` with a
  structured location, nothing is raised, and the caller decides.

Either way the problems themselves come from one generator, so the two
modes can never drift apart.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.function import Function, Module
from repro.ir.rtl import Call, FrameAddr, GlobalAddr

# (block label or None, instruction index or None, message)
Problem = Tuple[Optional[str], Optional[int], str]


def _function_problems(
    func: Function, module: Optional[Module] = None
) -> Iterator[Problem]:
    """Yield every structural problem of ``func``.

    Checks:
      * at least one block; unique labels;
      * every block non-empty and terminated exactly once (no terminator in
        a body position);
      * all jump targets exist;
      * frame slots referenced by :class:`FrameAddr` exist;
      * globals/functions referenced exist when a module is supplied;
      * no block other than the entry is completely unreachable *and*
        jumped to from nowhere (dead blocks are allowed only if a pass has
        not yet cleaned them; they must still be well-formed).
    """
    if not func.blocks:
        yield None, None, "function has no blocks"
        return

    labels = [b.label for b in func.blocks]
    if len(set(labels)) != len(labels):
        duplicate = next(x for x in labels if labels.count(x) > 1)
        yield None, None, f"duplicate block label {duplicate!r}"
    label_set = set(labels)

    for block in func.blocks:
        if not block.instrs:
            yield block.label, None, "empty block"
            continue
        for position, instr in enumerate(block.instrs):
            is_last = position == len(block.instrs) - 1
            if instr.is_terminator and not is_last:
                yield (
                    block.label, position,
                    f"terminator {instr!r} not at block end",
                )
            if is_last and not instr.is_terminator:
                yield (
                    block.label, position,
                    "block does not end in a terminator "
                    f"(ends with {instr!r})",
                )
            if isinstance(instr, FrameAddr):
                if instr.slot not in func.frame_slots:
                    yield (
                        block.label, position,
                        f"unknown frame slot {instr.slot!r}",
                    )
            if module is not None:
                if isinstance(instr, GlobalAddr):
                    if instr.name not in module.globals:
                        yield (
                            block.label, position,
                            f"unknown global {instr.name!r}",
                        )
                if isinstance(instr, Call):
                    if instr.func not in module.functions:
                        yield (
                            block.label, position,
                            f"call to unknown function {instr.func!r}",
                        )
        if block.instrs and block.instrs[-1].is_terminator:
            for successor in block.successors():
                if successor not in label_set:
                    yield (
                        block.label, None,
                        f"jump to unknown label {successor!r}",
                    )


def _format(func: Function, problem: Problem) -> str:
    block, _, message = problem
    prefix = func.name if block is None else f"{func.name}/{block}"
    return f"{prefix}: {message}"


def _diagnostic(func: Function, problem: Problem):
    from repro.sanitize.diagnostics import Diagnostic, ERROR, Location

    block, index, message = problem
    return Diagnostic(
        ERROR,
        "verify",
        message,
        location=Location(func.name, block, index),
    )


def verify_function(
    func: Function, module: Optional[Module] = None, sink=None
) -> None:
    """Check ``func``; raise :class:`IRError` on the first problem.

    With a ``sink``, collect *all* problems as diagnostics instead of
    raising.
    """
    if sink is not None:
        for problem in _function_problems(func, module):
            sink.emit(_diagnostic(func, problem))
        return
    for problem in _function_problems(func, module):
        from repro.sanitize.diagnostics import Location

        block, index, _ = problem
        raise IRError(
            _format(func, problem),
            location=Location(func.name, block, index),
        )


def verify_module(module: Module, sink=None) -> None:
    """Verify every function of ``module``.

    Without a sink, raises one :class:`IRError` whose message joins every
    per-function problem and whose ``diagnostics`` attribute carries the
    structured findings.  With a sink, collects and returns.
    """
    if sink is not None:
        for func in module:
            verify_function(func, module, sink=sink)
        return
    problems: List[str] = []
    diagnostics = []
    for func in module:
        for problem in _function_problems(func, module):
            problems.append(_format(func, problem))
            diagnostics.append(_diagnostic(func, problem))
    if problems:
        error = IRError("; ".join(problems))
        error.diagnostics = diagnostics
        raise error
