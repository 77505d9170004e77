"""Parallel benchmark runner, persisted baselines, and the comparison of runs.

Three layers on top of :mod:`repro.bench.harness`:

* :func:`run_matrix` fans the program × machine × variant simulation
  matrix out over a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``--jobs N`` / ``BENCH_JOBS``).  Results are merged deterministically
  (sorted by program, machine, variant), so the measured cycle counts of
  a ``--jobs 4`` run are identical to a ``--jobs 1`` run — only the
  wall-clock fields differ.
* :func:`save_run` / :func:`load_run` persist a run to ``BENCH_<tag>.json``
  with a versioned schema (see :data:`RUN_SCHEMA`): per-record program,
  machine, variant, simulated cycles, loads/stores (and how many the
  variant eliminated vs ``vpo``), cache misses, the cell's host-time
  span tree (:mod:`repro.timing`), plus run-level metadata (git SHA,
  image size, jobs).
* :func:`diff_runs` compares two record sets cell by cell, exactly, on
  every field that is neither the cell's name nor a host measurement.
  Both the anchor gate (``bench --compare``) and the backend
  differential (``simdiff``) call it; each decides which outcomes fail.

Workers share the on-disk compile-session cache (:mod:`repro.bench.cache`),
so a warm matrix run spends its time simulating, not recompiling.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import timing
from repro.bench.harness import COLUMNS, BenchResult, run_benchmark
from repro.bench.programs import BENCHMARKS, TABLE_ORDER
from repro.sim import default_sim_backend

RUN_SCHEMA = 2

#: Record fields that describe the *host measurement*, not the simulated
#: program: they differ run-to-run and backend-to-backend by design and
#: are never compared (:func:`diff_runs`).
HOST_METRIC_FIELDS = (
    "timing",
    "sim_instrs_per_sec",
    "sim_backend",
    "compile_cache_hit",
)

#: The quick tier CI smokes on: every program, the Alpha only, small
#: images.  The full tier covers all three machines at 48×48.
QUICK_SIZE = 16
QUICK_MACHINES = ("alpha",)
FULL_SIZE = 48
ALL_MACHINES = ("alpha", "m88100", "m68030")

#: Default program set: the Table II/III programs plus Figure 1's
#: dotproduct (every program the harness can stage).
ALL_PROGRAMS = tuple(TABLE_ORDER) + tuple(
    name for name in sorted(BENCHMARKS) if name not in TABLE_ORDER
)


def default_jobs() -> int:
    """``BENCH_JOBS`` or 1 (serial)."""
    try:
        return max(1, int(os.environ.get("BENCH_JOBS", "1")))
    except ValueError:
        return 1


#: Per-cell wall-clock budget (seconds) before a parallel run gives up on
#: a worker and marks the cell failed; BENCH_CELL_TIMEOUT overrides.
DEFAULT_CELL_TIMEOUT = 600.0


def default_cell_timeout() -> float:
    try:
        return max(
            1.0,
            float(os.environ.get(
                "BENCH_CELL_TIMEOUT", DEFAULT_CELL_TIMEOUT
            )),
        )
    except ValueError:
        return DEFAULT_CELL_TIMEOUT


@dataclass(frozen=True, order=True)
class BenchSpec:
    """One cell of the measurement matrix."""

    program: str
    machine: str
    variant: str
    width: int
    height: int
    sim_backend: str = "interp"


def build_matrix(
    programs: Sequence[str],
    machines: Sequence[str],
    variants: Sequence[str],
    width: int,
    height: int,
    sim_backend: str = "interp",
) -> List[BenchSpec]:
    """Every (program, machine, variant) cell, in deterministic order."""
    return sorted(
        BenchSpec(p, m, v, width, height, sim_backend)
        for p in programs for m in machines for v in variants
    )


def _record(
    spec: BenchSpec, result: BenchResult, status: str = "ok", error: str = ""
) -> Dict[str, object]:
    """One cell's record: ``spec``'s fields, then ``result``'s."""
    return {**asdict(spec), **asdict(result), "status": status,
            "error": error}


def _run_spec(spec: BenchSpec) -> Dict[str, object]:
    """Measure one cell; must stay module-level (pickled to workers)."""
    return _record(spec, run_benchmark(
        spec.program, spec.machine, spec.variant,
        width=spec.width, height=spec.height,
        sim_backend=spec.sim_backend,
    ))


def _failed_record(spec: BenchSpec, error: str) -> Dict[str, object]:
    """The record shape for a cell whose measurement died or timed out."""
    return _record(spec, BenchResult(sim_backend=spec.sim_backend),
                   "failed", error)


def _run_spec_safe(spec: BenchSpec) -> Dict[str, object]:
    """Worker entry point: one crashed cell must not sink the matrix."""
    try:
        return _run_spec(spec)
    except Exception as exc:  # noqa: BLE001 — any cell failure is recorded
        return _failed_record(spec, f"{type(exc).__name__}: {exc}")


def _annotate_eliminated(records: List[Dict[str, object]]) -> None:
    """Add loads/stores-eliminated-vs-vpo to every record in place."""
    vpo: Dict[Tuple[str, str], Dict[str, object]] = {
        (r["program"], r["machine"]): r
        for r in records
        if r["variant"] == "vpo" and r.get("status", "ok") == "ok"
    }
    for record in records:
        base = vpo.get((record["program"], record["machine"]))
        if base is None or record.get("status", "ok") != "ok":
            record["loads_eliminated"] = 0
            record["stores_eliminated"] = 0
        else:
            record["loads_eliminated"] = base["loads"] - record["loads"]
            record["stores_eliminated"] = (
                base["stores"] - record["stores"]
            )


def run_matrix(
    programs: Optional[Sequence[str]] = None,
    machines: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
    width: int = FULL_SIZE,
    height: Optional[int] = None,
    jobs: Optional[int] = None,
    progress=None,
    cell_timeout: Optional[float] = None,
    sim_backend: Optional[str] = None,
) -> List[Dict[str, object]]:
    """Measure the whole matrix; returns records sorted deterministically.

    ``jobs > 1`` fans the cells out across worker processes; each worker
    compiles through the shared disk cache, so concurrent workers never
    repeat each other's compilations across runs.  ``progress`` (if
    given) is called with each finished record.

    Fault tolerance: a cell that raises, kills its worker process, or
    exceeds ``cell_timeout`` seconds (``BENCH_CELL_TIMEOUT``) becomes a
    ``status='failed'`` record instead of aborting the run; the
    regression gate treats such cells as failures.
    """
    specs = build_matrix(
        programs or ALL_PROGRAMS,
        machines or ALL_MACHINES,
        variants or COLUMNS,
        width,
        height if height is not None else width,
        sim_backend if sim_backend is not None else default_sim_backend(),
    )
    jobs = jobs if jobs is not None else default_jobs()
    if cell_timeout is None:
        cell_timeout = default_cell_timeout()
    records: List[Dict[str, object]] = []
    if jobs <= 1 or len(specs) <= 1:
        for spec in specs:
            record = _run_spec_safe(spec)
            records.append(record)
            if progress:
                progress(record)
    else:
        # Imported here, their one user: importing the harness (as every
        # compile-only caller does) loads no multiprocessing.
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        # Workers normally catch their own exceptions (_run_spec_safe);
        # the parent-side handling below only fires for hard worker
        # deaths (BrokenProcessPool) and the overall deadline.
        deadline = time.monotonic() + cell_timeout * len(specs)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pending = {
                pool.submit(_run_spec_safe, spec): spec for spec in specs
            }
            while pending:
                done, _ = wait(
                    pending,
                    timeout=max(0.0, deadline - time.monotonic()),
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    for future, spec in pending.items():
                        future.cancel()
                        records.append(_failed_record(
                            spec,
                            f"cell timed out (>{cell_timeout:g}s budget)",
                        ))
                    pool.shutdown(wait=False, cancel_futures=True)
                    break
                for future in done:
                    spec = pending.pop(future)
                    try:
                        record = future.result()
                    except Exception as exc:  # noqa: BLE001 — worker died
                        record = _failed_record(
                            spec, f"worker died: {exc}"
                        )
                    records.append(record)
                    if progress:
                        progress(record)
    records.sort(
        key=lambda r: (r["program"], r["machine"], r["variant"])
    )
    _annotate_eliminated(records)
    return records


# -- baseline store ---------------------------------------------------------
def make_run_document(
    records: List[Dict[str, object]],
    tag: str = "run",
    jobs: int = 1,
    width: int = FULL_SIZE,
    height: Optional[int] = None,
    sim_backend: Optional[str] = None,
) -> Dict[str, object]:
    from repro.resilience.bundle import git_sha

    if sim_backend is None:
        # Derive from the records themselves so the document can never
        # disagree with its measurements; mixed backends (a fallback hit
        # some cells) are recorded as 'mixed'.
        backends = sorted({
            str(r.get("sim_backend", "interp")) for r in records
        }) or ["interp"]
        sim_backend = backends[0] if len(backends) == 1 else "mixed"
    return {
        "schema": RUN_SCHEMA,
        "tag": tag,
        "created_unix": int(time.time()),
        "git_sha": git_sha(),
        "width": width,
        "height": height if height is not None else width,
        "jobs": jobs,
        "sim_backend": sim_backend,
        "records": records,
    }


def save_run(document: Dict[str, object], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_run(path: str) -> Dict[str, object]:
    with open(path) as handle:
        document = json.load(handle)
    if document.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"{path}: unsupported baseline schema "
            f"{document.get('schema')!r} (want {RUN_SCHEMA})"
        )
    return document


# -- comparing runs ---------------------------------------------------------
#: Record fields that name a cell.  Every record field that neither names
#: the cell nor measures the host is compared exactly.
CELL_FIELDS = ("program", "machine", "variant", "width", "height")

#: What :func:`diff_runs` finds for one cell.
EQUAL = "equal"
DIVERGED = "diverged"
FAILED = "failed"
EXPECTED_ONLY = "expected only"
ACTUAL_ONLY = "actual only"


@dataclass(frozen=True)
class CellDiff:
    """One cell of two record sets, compared field by field."""

    #: The record's :data:`CELL_FIELDS` values.
    cell: Tuple
    outcome: str
    #: ``(field, expected, actual)`` for each field that differs; for a
    #: failed cell, its ``status`` and ``error`` on both sides.
    fields: Tuple[Tuple[str, object, object], ...] = ()

    def describe(self, expected: str, actual: str) -> str:
        """One line naming the cell and what differs, with the two
        record sets called ``expected`` and ``actual``."""
        name = "{}/{}/{}@{}x{}".format(*self.cell)
        if self.outcome == EXPECTED_ONLY:
            return f"{name}: only in {expected}"
        if self.outcome == ACTUAL_ONLY:
            return f"{name}: only in {actual}"
        return f"{name}: {self.outcome}: " + "; ".join(
            f"{field} {expected}={a!r} {actual}={b!r}"
            for field, a, b in self.fields
        )


def diff_runs(
    expected: Iterable[Dict[str, object]],
    actual: Iterable[Dict[str, object]],
) -> List[CellDiff]:
    """Diff two record sets cell by cell, in cell order.

    Simulated results are deterministic and backend-independent, so
    every field outside :data:`CELL_FIELDS` and
    :data:`HOST_METRIC_FIELDS` must be equal: outputs, cycles,
    loads/stores, cache misses and the compile facts.  A cell that
    failed on either side is never compared field by field.  The caller
    decides which outcomes fail it.
    """

    def by_cell(records):
        return {tuple(r.get(f) for f in CELL_FIELDS): r for r in records}

    left, right = by_cell(expected), by_cell(actual)
    diffs: List[CellDiff] = []
    for cell in sorted(left.keys() | right.keys(), key=str):
        a, b = left.get(cell), right.get(cell)
        if b is None:
            diffs.append(CellDiff(cell, EXPECTED_ONLY))
        elif a is None:
            diffs.append(CellDiff(cell, ACTUAL_ONLY))
        elif a.get("status", "ok") != "ok" or b.get("status", "ok") != "ok":
            diffs.append(CellDiff(cell, FAILED, tuple(
                (f, a.get(f), b.get(f)) for f in ("status", "error")
            )))
        else:
            fields = tuple(
                (f, a.get(f), b.get(f))
                for f in sorted(a.keys() | b.keys())
                if f not in CELL_FIELDS and f not in HOST_METRIC_FIELDS
                and a.get(f) != b.get(f)
            )
            diffs.append(
                CellDiff(cell, DIVERGED if fields else EQUAL, fields)
            )
    return diffs


def check_sim_rate(
    records: List[Dict[str, object]], floor: float
) -> List[str]:
    """Enforce a minimum simulated-instructions/sec over a run.

    The gate passes when the *fastest* measurable cell reaches ``floor``
    — the floor asserts the backend's throughput capability, and small
    cells are dominated by staging, not execution.  Only cells that
    actually ran on the compiled backend count: a fleet-wide fallback to
    the interpreter must fail the gate, not dodge it.  Returns one
    message per violation; empty means the gate holds.
    """
    problems: List[str] = []
    rates = [
        (r["sim_instrs_per_sec"], r)
        for r in records
        if r.get("status", "ok") == "ok"
        and r.get("sim_backend") == "compiled"
        and r.get("sim_instrs_per_sec") is not None
    ]
    if not rates:
        problems.append(
            "no successful compiled-backend cells with a measurable "
            f"simulation rate (floor {floor:g} instrs/sec unenforceable)"
        )
        return problems
    best_rate, best = max(rates, key=lambda item: item[0])
    if best_rate < floor:
        problems.append(
            f"peak simulation rate {best_rate:,.0f} instrs/sec "
            f"({best['program']}/{best['machine']}/{best['variant']}) is "
            f"below the {floor:,.0f} instrs/sec floor"
        )
    return problems


def parse_phase_budgets(specs: Sequence[str]) -> Dict[str, float]:
    """Parse ``--phase-budget`` values: ``PHASE=SECONDS``, comma-separable.

    ``["cleanup=0.3", "global_const_prop=0.2,licm=1"]`` →
    ``{"cleanup": 0.3, "global_const_prop": 0.2, "licm": 1.0}``.
    """
    budgets: Dict[str, float] = {}
    for spec in specs:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            phase, _, amount = item.partition("=")
            phase = phase.strip()
            if not phase or not amount:
                raise ValueError(
                    f"bad phase budget {item!r} (want PHASE=SECONDS)"
                )
            try:
                seconds = float(amount)
            except ValueError:
                raise ValueError(
                    f"bad phase budget {item!r}: {amount!r} is not a number"
                ) from None
            if seconds <= 0:
                raise ValueError(
                    f"bad phase budget {item!r}: budget must be positive"
                )
            budgets[phase] = seconds
    return budgets


def check_phase_budgets(
    records: List[Dict[str, object]],
    budgets: Dict[str, float],
) -> List[str]:
    """One message per budget that fails; a phase's time is the
    inclusive time of its spans summed over the records' trees.  Only
    compiles are measured (a cache hit's tree has no compile spans), so
    a budget fails too when no record compiled anything, or when the
    phase never ran although records compiled (renamed or dropped?)."""
    trees = [r["timing"] for r in records if r.get("timing")]
    if not any(timing.total(tree, "compile") is not None for tree in trees):
        return [
            f"phase {phase!r} has a budget of {budgets[phase]:g}s that "
            f"cannot be enforced: none of the {len(records)} records "
            "compiled anything (each was a cache hit or failed); run on "
            "an empty REPRO_CACHE_DIR"
            for phase in sorted(budgets)
        ]
    problems: List[str] = []
    for phase in sorted(budgets):
        spent = [t for t in (timing.total(tree, phase) for tree in trees)
                 if t is not None]
        if not spent:
            problems.append(
                f"phase {phase!r} has a budget of {budgets[phase]:g}s but "
                "never ran (renamed or dropped?)"
            )
        elif sum(spent) > budgets[phase]:
            problems.append(
                f"phase {phase!r} spent {sum(spent):.3f}s, over its "
                f"{budgets[phase]:g}s budget"
            )
    return problems
