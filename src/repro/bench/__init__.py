"""Benchmarks and the experiment harness.

``programs`` holds the MiniC sources of the paper's Table I benchmark set
(plus the Figure 1 dot product), ``workloads`` generates inputs and golden
outputs, ``harness`` compiles/runs one benchmark under one configuration,
``tables`` regenerates the paper's tables, ``cache`` keys, serializes
and revives finished compilations in the shared artifact store
(``cached_compile_minic``; the store is ``ArtifactStore`` from
``repro/service/artifacts.py``, imported only once a cache is opened),
and ``runner`` fans the measurement matrix out over worker processes,
stores ``BENCH_<tag>.json`` baselines and diffs two runs' records, for
the CI anchor gate and the backend differential.
"""

from repro.bench.programs import BENCHMARKS, BenchmarkProgram, get_benchmark
from repro.bench.cache import cached_compile_minic
from repro.bench.harness import (
    BenchResult,
    COLUMN_CONFIGS,
    run_benchmark,
    machine_overrides,
)
from repro.bench.runner import (
    BenchSpec,
    CellDiff,
    diff_runs,
    load_run,
    make_run_document,
    run_matrix,
    save_run,
)
from repro.bench.tables import (
    TableRow,
    format_table,
    table1_rows,
    table_rows,
)

__all__ = [
    "BENCHMARKS",
    "BenchResult",
    "BenchSpec",
    "BenchmarkProgram",
    "COLUMN_CONFIGS",
    "CellDiff",
    "TableRow",
    "cached_compile_minic",
    "diff_runs",
    "format_table",
    "get_benchmark",
    "load_run",
    "machine_overrides",
    "make_run_document",
    "run_benchmark",
    "run_matrix",
    "save_run",
    "table1_rows",
    "table_rows",
]
