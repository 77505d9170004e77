"""Shared fixtures and helpers for the test suite.

Everything is defined once in :mod:`repro.testing` and shared with
``benchmarks/conftest.py`` so the two suites cannot drift.
"""

from __future__ import annotations

from repro.testing import (  # noqa: F401  (re-exported fixtures/helpers)
    MACHINE_NAMES,
    alpha,
    bench_size,
    m68030,
    m88100,
    machine,
)
