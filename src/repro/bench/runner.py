"""Parallel benchmark runner, persisted baselines, and the regression gate.

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
* :func:`compare_runs` diffs a fresh run against a stored baseline and
  :func:`format_compare_table` renders the regression table the CI gate
  prints; cycles past the tolerance (or a record missing from the
  baseline) make the gate fail.

Workers share the on-disk compile-session cache (:mod:`repro.bench.cache`),
so a warm matrix run spends its time simulating, not recompiling.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import timing
from repro.bench.harness import COLUMNS, BenchResult, run_benchmark
from repro.bench.programs import BENCHMARKS, TABLE_ORDER
from repro.sim import default_sim_backend

RUN_SCHEMA = 2

#: Record fields that describe the *host measurement*, not the simulated
#: program: they differ run-to-run and backend-to-backend by design and
#: are never part of any regression or differential comparison.
HOST_METRIC_FIELDS = (
    "timing",
    "sim_instrs_per_sec",
    "sim_backend",
    "compile_cache_hit",
)

#: Record fields the interp and compiled backends must agree on exactly
#: (the parity contract): everything the simulated machine observed.
DIFF_FIELDS = (
    "result",
    "output_ok",
    "cycles",
    "base_cycles",
    "dcache_miss_cycles",
    "icache_miss_cycles",
    "dcache_misses",
    "icache_misses",
    "instr_count",
    "loads",
    "stores",
    "memory_accesses",
)

#: Default regression tolerance, percent of baseline cycles.  Simulated
#: cycles are deterministic, so this only needs to absorb intentional
#: noise-level changes; BENCH_TOLERANCE overrides it.
DEFAULT_TOLERANCE = 2.0

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


def default_tolerance() -> float:
    try:
        return float(os.environ.get("BENCH_TOLERANCE", DEFAULT_TOLERANCE))
    except ValueError:
        return DEFAULT_TOLERANCE


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
    """One cell's record: ``result``'s fields, named as in the matrix."""
    record = asdict(result)
    del record["benchmark"], record["column"]
    record.update(
        program=spec.program, variant=spec.variant, width=spec.width,
        height=spec.height, status=status, error=error,
    )
    if result.sim_instrs_per_sec is not None:
        record["sim_instrs_per_sec"] = round(result.sim_instrs_per_sec, 1)
    return record


def _run_spec(spec: BenchSpec) -> Dict[str, object]:
    """Measure one cell; must stay module-level (pickled to workers)."""
    return _record(spec, run_benchmark(
        spec.program, spec.machine, spec.variant,
        width=spec.width, height=spec.height,
        sim_backend=spec.sim_backend,
    ))


def _failed_record(spec: BenchSpec, error: str) -> Dict[str, object]:
    """The record shape for a cell whose measurement died or timed out."""
    return _record(spec, BenchResult(
        spec.program, spec.machine, spec.variant, sim_backend=spec.sim_backend
    ), "failed", error)


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
        # some cells) are recorded as 'mixed' and always flagged later.
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


# -- regression gate --------------------------------------------------------
@dataclass
class ComparisonRow:
    """One record of the current run diffed against the baseline."""

    program: str
    machine: str
    variant: str
    baseline_cycles: Optional[int]
    # None for a baseline record the current run did not measure.
    current_cycles: Optional[int]
    # 'ok' | 'improved' | 'regression' | 'missing' | 'failed' | 'skipped'
    status: str

    @property
    def delta_percent(self) -> Optional[float]:
        if not self.baseline_cycles or self.current_cycles is None:
            return None
        return (
            (self.current_cycles - self.baseline_cycles)
            * 100.0 / self.baseline_cycles
        )


def compare_runs(
    current: List[Dict[str, object]],
    baseline: Dict[str, object],
    tolerance: Optional[float] = None,
) -> List[ComparisonRow]:
    """Diff current records against a baseline document.

    A record whose cycles exceed the baseline by more than ``tolerance``
    percent is a regression; one absent from the baseline is 'missing'
    (the baseline needs regenerating) — both fail the gate, as does a
    cell whose measurement itself failed (``status='failed'``).  Only
    simulated *cycles* are toleranced: host-side measurement fields
    (:data:`HOST_METRIC_FIELDS` — wall clocks, rates, backend tags)
    never participate.
    A baseline record with no current counterpart becomes a 'skipped'
    row: the gate may legitimately measure a subset (e.g. ``--quick``),
    but the table must say what the subset left uncovered rather than
    silently shrinking.  Skipped rows never fail the gate.
    """
    if tolerance is None:
        tolerance = default_tolerance()
    by_key = {
        (
            r["program"], r["machine"], r["variant"],
            r.get("width"), r.get("height"),
        ): r
        for r in baseline.get("records", [])
    }
    rows: List[ComparisonRow] = []
    measured = set()
    for record in current:
        key = (
            record["program"], record["machine"], record["variant"],
            record.get("width"), record.get("height"),
        )
        measured.add(key)
        base = by_key.get(key)
        if record.get("status", "ok") != "ok":
            base_cycles = base["cycles"] if base is not None else None
            status = "failed"
        elif base is None:
            status, base_cycles = "missing", None
        else:
            base_cycles = base["cycles"]
            delta = (
                (record["cycles"] - base_cycles) * 100.0 / base_cycles
                if base_cycles else 0.0
            )
            if delta > tolerance:
                status = "regression"
            elif delta < 0:
                status = "improved"
            else:
                status = "ok"
        rows.append(
            ComparisonRow(
                program=record["program"],
                machine=record["machine"],
                variant=record["variant"],
                baseline_cycles=base_cycles,
                current_cycles=record["cycles"],
                status=status,
            )
        )
    for key in sorted(set(by_key) - measured, key=str):
        base = by_key[key]
        rows.append(
            ComparisonRow(
                program=base["program"],
                machine=base["machine"],
                variant=base["variant"],
                baseline_cycles=base["cycles"],
                current_cycles=None,
                status="skipped",
            )
        )
    return rows


def gate_passed(rows: Iterable[ComparisonRow]) -> bool:
    return all(
        row.status in ("ok", "improved", "skipped") for row in rows
    )


def backend_mismatch(
    records: List[Dict[str, object]],
    baseline: Dict[str, object],
) -> Optional[str]:
    """A message when current records and baseline used different
    simulator backends, else None.

    Cycle counts are backend-independent by the parity contract, but a
    silent mismatch hides exactly the bugs the differential gate exists
    to catch — so ``--compare`` refuses unless explicitly overridden
    (``--allow-backend-mismatch``).  Baselines predating the
    ``sim_backend`` field count as ``interp`` measurements.
    """
    base_backend = str(baseline.get("sim_backend", "interp"))
    current = sorted({
        str(r.get("sim_backend", "interp"))
        for r in records
        if r.get("status", "ok") == "ok"
    })
    mismatched = [b for b in current if b != base_backend]
    if not mismatched:
        return None
    return (
        f"baseline {baseline.get('tag', '?')!r} was measured with the "
        f"{base_backend!r} simulator backend but the current run used "
        f"{', '.join(repr(b) for b in current)}; regenerate the baseline "
        "or pass --allow-backend-mismatch to compare anyway"
    )


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


def compare_backends(
    a_records: List[Dict[str, object]],
    b_records: List[Dict[str, object]],
) -> List[str]:
    """Differential interp-vs-compiled check over two record sets.

    Returns one message per divergence in any :data:`DIFF_FIELDS` value
    (outputs, cycles, loads/stores, cache misses) between records of the
    same (program, machine, variant, size) cell, plus one per cell that
    exists on only one side or failed on either.  Empty means the
    backends are observationally identical on this matrix.
    """

    def key(r: Dict[str, object]) -> Tuple:
        return (
            r["program"], r["machine"], r["variant"],
            r.get("width"), r.get("height"),
        )

    def name(k: Tuple) -> str:
        return f"{k[0]}/{k[1]}/{k[2]}@{k[3]}x{k[4]}"

    a_by, b_by = {key(r): r for r in a_records}, {key(r): r for r in b_records}
    problems: List[str] = []
    for k in sorted(set(a_by) | set(b_by), key=str):
        a, b = a_by.get(k), b_by.get(k)
        if a is None or b is None:
            side = "first" if a is None else "second"
            problems.append(f"{name(k)}: missing from the {side} run")
            continue
        failed = [
            f"{r.get('sim_backend', '?')}: {r.get('error') or 'failed'}"
            for r in (a, b)
            if r.get("status", "ok") != "ok"
        ]
        if failed:
            problems.append(f"{name(k)}: " + "; ".join(failed))
            continue
        for field_name in DIFF_FIELDS:
            if a.get(field_name) != b.get(field_name):
                problems.append(
                    f"{name(k)}: {field_name} diverged — "
                    f"{a.get('sim_backend', '?')}={a.get(field_name)!r} "
                    f"vs {b.get('sim_backend', '?')}={b.get(field_name)!r}"
                )
    return problems


def format_compare_table(
    rows: List[ComparisonRow], tolerance: float
) -> str:
    header = (
        f"{'Program':<14} {'Machine':<8} {'Variant':<15} "
        f"{'Baseline':>10} {'Current':>10} {'Delta %':>8}  Status"
    )
    lines = [
        f"Regression gate (tolerance {tolerance:+.2f}% cycles)",
        header,
        "-" * len(header),
    ]
    for row in rows:
        base = (
            str(row.baseline_cycles)
            if row.baseline_cycles is not None else "-"
        )
        current = (
            str(row.current_cycles)
            if row.current_cycles is not None else "-"
        )
        delta = (
            f"{row.delta_percent:+8.2f}"
            if row.delta_percent is not None else f"{'-':>8}"
        )
        lines.append(
            f"{row.program:<14} {row.machine:<8} {row.variant:<15} "
            f"{base:>10} {current:>10} {delta}  {row.status}"
        )
    bad = [
        r for r in rows if r.status not in ("ok", "improved", "skipped")
    ]
    lines.append(
        "gate: PASS"
        if not bad else
        f"gate: FAIL ({len(bad)} of {len(rows)} records "
        "regressed, failed, or missing from baseline)"
    )
    return "\n".join(lines)


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
