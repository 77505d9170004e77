"""Shared test-support helpers for the unit and benchmark suites.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both import their
fixtures from here, so the two suites cannot drift: one definition of
the evaluation-machine fixtures, the bench image size and the
benchmark-report recorder (snippets run through ``compile_and_run``).

This module is the only part of the package that imports pytest; it is
never imported by library code.
"""

from __future__ import annotations

import os

import pytest

from repro.machine import get_machine

#: The three evaluation machines of the paper, in table order.
MACHINE_NAMES = ("alpha", "m88100", "m68030")

#: Benchmark image width/height.  Default 48×48 (the paper used 500×500;
#: percentages are size independent once the loop dominates, which
#: tests/test_paper_claims.py verifies).  REPRO_BENCH_SIZE overrides.
BENCH_SIZE = int(os.environ.get("REPRO_BENCH_SIZE", "48"))


@pytest.fixture(params=MACHINE_NAMES)
def machine(request):
    """Each of the three evaluation machines."""
    return get_machine(request.param)


@pytest.fixture
def alpha():
    return get_machine("alpha")


@pytest.fixture
def m88100():
    return get_machine("m88100")


@pytest.fixture
def m68030():
    return get_machine("m68030")


@pytest.fixture(scope="session")
def bench_size():
    return {"width": BENCH_SIZE, "height": BENCH_SIZE}


def record_columns(benchmark, rows_or_row, extra=None):
    """Attach column cycles + savings to a pytest-benchmark report."""
    row = rows_or_row
    benchmark.extra_info.update(
        {
            "cc_cycles": row.cc,
            "vpo_cycles": row.vpo,
            "coalesce_loads_cycles": row.coalesce_loads,
            "coalesce_all_cycles": row.coalesce_all,
            "percent_savings_paper_formula": round(
                row.percent_savings_paper, 2
            ),
            "percent_savings_vs_vpo": round(row.percent_savings_best, 2),
        }
    )
    if extra:
        benchmark.extra_info.update(extra)
