"""Static-analysis sanitizer suite for RTL.

Three layers above the raise-on-first-error verifier:

* :mod:`repro.sanitize.diagnostics` — findings as values (severity,
  check id, location, pass provenance, fix hint) collected by a
  :class:`DiagnosticSink` instead of raised;
* a checker registry (:mod:`repro.sanitize.registry`) with the built-in
  checkers of :mod:`repro.sanitize.checkers` and
  :mod:`repro.sanitize.coalesce_safety`;
* the differential pass-sanitizer (:mod:`repro.sanitize.differential`),
  which compares snapshots of a function before and after each pass on
  generated fixture plans and names the offending pass on divergence.

Entry point::

    from repro.sanitize import lint_module

    sink = lint_module(program.module, program.machine)
    print(sink.render_grouped())
    sink.raise_if_errors()
"""

from repro.sanitize.diagnostics import (
    Diagnostic,
    DiagnosticSink,
    ERROR,
    Location,
    NOTE,
    SEVERITIES,
    WARNING,
)
from repro.sanitize.registry import (
    checker,
    checker_ids,
    get_checkers,
    run_checkers,
)

# Importing the checker modules registers them.
from repro.sanitize import checkers as _checkers  # noqa: F401
from repro.sanitize import coalesce_safety as _coalesce_safety  # noqa: F401
from repro.sanitize import alias_checks as _alias_checks  # noqa: F401

from repro.sanitize.differential import DifferentialSanitizer, clone_function

from typing import Optional, Sequence

from repro.ir.function import Module


def lint_module(
    module: Module,
    machine,
    checks: Optional[Sequence[str]] = None,
    sink: Optional[DiagnosticSink] = None,
) -> DiagnosticSink:
    """Run the (selected) checkers over ``module``; returns the sink."""
    return run_checkers(module, machine, checks=checks, sink=sink)


__all__ = [
    "Diagnostic",
    "DiagnosticSink",
    "DifferentialSanitizer",
    "ERROR",
    "Location",
    "NOTE",
    "SEVERITIES",
    "WARNING",
    "checker",
    "checker_ids",
    "clone_function",
    "get_checkers",
    "lint_module",
    "run_checkers",
]
