"""Regeneration of the paper's tables.

* Table I — the benchmark inventory (name, description, lines of code).
* Table II — DEC Alpha: cycles under ``cc``/``vpo``/loads-coalesced/
  loads&stores-coalesced plus percent savings.
* Table III — Motorola 88100, same columns.
* "Table IV" — the Motorola 68030 paragraph of §3 cast in the same shape
  (the paper reports it in prose: every program got slower).

The percent-savings column reproduces the paper's formula
``(col3 − col5) × 100 / col2`` (savings of the fully coalesced version
over vpo, normalized by the native compiler's time) and additionally the
more natural ``(vpo − best) / vpo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.bench.harness import COLUMNS, run_benchmark
from repro.bench.programs import BENCHMARKS, TABLE_ORDER, get_benchmark


@dataclass
class TableRow:
    """One benchmark's row of a Table II/III-style table."""

    benchmark: str
    cc: int
    vpo: int
    coalesce_loads: int
    coalesce_all: int
    output_ok: bool

    @property
    def percent_savings_paper(self) -> float:
        """The paper's column 6: (col3 - col5) * 100 / col2."""
        return (self.vpo - self.coalesce_all) * 100.0 / self.cc

    @property
    def percent_savings_loads(self) -> float:
        return (self.vpo - self.coalesce_loads) * 100.0 / self.vpo

    @property
    def percent_savings_best(self) -> float:
        best = min(self.coalesce_loads, self.coalesce_all)
        return (self.vpo - best) * 100.0 / self.vpo


def table1_rows() -> List[Dict[str, object]]:
    """Table I: benchmark name, description and lines of code."""
    rows = []
    for name in TABLE_ORDER:
        program = get_benchmark(name)
        rows.append(
            {
                "name": program.name,
                "description": program.description,
                "lines_of_code": program.lines_of_code,
            }
        )
    return rows


def table_rows(
    machine: str,
    benchmarks: Optional[Iterable[str]] = None,
    width: int = 64,
    height: int = 64,
) -> List[TableRow]:
    """Measure every benchmark under every column on ``machine``."""
    rows: List[TableRow] = []
    for name in benchmarks or TABLE_ORDER:
        cycles: Dict[str, int] = {}
        ok = True
        for column in COLUMNS:
            result = run_benchmark(
                name, machine, column, width=width, height=height,
            )
            cycles[column] = result.cycles
            ok = ok and result.output_ok
        rows.append(
            TableRow(
                benchmark=name,
                cc=cycles["cc"],
                vpo=cycles["vpo"],
                coalesce_loads=cycles["coalesce-loads"],
                coalesce_all=cycles["coalesce-all"],
                output_ok=ok,
            )
        )
    return rows


def format_table(machine: str, rows: List[TableRow]) -> str:
    """Render rows the way the paper's Tables II/III read."""
    header = (
        f"{'Program':<14} {'cc -O':>10} {'vpcc/vpo -O':>12} "
        f"{'loads':>10} {'loads+stores':>13} {'% (paper)':>10} "
        f"{'% (vs vpo)':>10}"
    )
    lines = [
        f"Simulated cycles on {machine} "
        f"(lower is better; '% (paper)' = (col3-col5)*100/col2)",
        header,
        "-" * len(header),
    ]
    for row in rows:
        flag = "" if row.output_ok else "  [OUTPUT MISMATCH]"
        lines.append(
            f"{row.benchmark:<14} {row.cc:>10} {row.vpo:>12} "
            f"{row.coalesce_loads:>10} {row.coalesce_all:>13} "
            f"{row.percent_savings_paper:>9.2f} "
            f"{row.percent_savings_best:>9.2f}{flag}"
        )
    return "\n".join(lines)


def format_table1() -> str:
    rows = table1_rows()
    width = max(len(str(r["description"])) for r in rows)
    lines = [
        f"{'Program':<14} {'Description':<{width}} {'LoC':>5}",
        "-" * (22 + width),
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<14} {row['description']:<{width}} "
            f"{row['lines_of_code']:>5}"
        )
    return "\n".join(lines)
