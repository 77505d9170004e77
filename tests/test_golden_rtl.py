"""Golden RTL for the quick matrix.

Every one of the 156 quick-matrix cells (13 Table I programs x alpha,
m88100, m68030 x the harness's four columns), compiled uncached with
``compile_minic``, the harness's ``COLUMN_CONFIGS`` and
``machine_overrides``, must print the module whose sha256 prefix
``tests/data/golden_rtl.txt`` records.  A change that means to leave the
compiler's output alone (a faster pass, a cheaper analysis) passes
unchanged; one that moves RTL on purpose regenerates the table with

    PYTHONPATH=src python -m tests.test_golden_rtl

and explains every changed cell in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.bench.harness import COLUMN_CONFIGS, COLUMNS, machine_overrides
from repro.bench.programs import BENCHMARKS
from repro.ir import format_module
from repro.pipeline import compile_minic

TABLE = Path(__file__).resolve().parent / "data" / "golden_rtl.txt"
MACHINES = ("alpha", "m88100", "m68030")
#: Hex digits of the sha256 kept per cell.
DIGEST_CHARS = 16

HEADER = """\
# sha256 prefix of format_module for every quick-matrix cell, compiled
# with compile_minic, bench.harness.COLUMN_CONFIGS and machine_overrides
# (no cache).  Checked by tests/test_golden_rtl.py; regenerate with
#   PYTHONPATH=src python -m tests.test_golden_rtl
# program machine column digest
"""


def cell_digests() -> Iterator[Tuple[str, str]]:
    """``("<program> <machine> <column>", digest)`` for every cell."""
    for machine in MACHINES:
        for column in COLUMNS:
            preset, overrides = COLUMN_CONFIGS[column]
            merged = dict(machine_overrides(machine))
            merged.update(overrides)
            for program, bench in BENCHMARKS.items():
                text = format_module(
                    compile_minic(bench.source, machine, preset,
                                  **merged).module
                )
                digest = hashlib.sha256(text.encode()).hexdigest()
                yield (f"{program} {machine} {column}",
                       digest[:DIGEST_CHARS])


def read_table(path: Path = TABLE) -> Dict[str, str]:
    table = {}
    for line in path.read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        program, machine, column, digest = line.split()
        table[f"{program} {machine} {column}"] = digest
    return table


def test_every_cell_prints_its_golden_rtl():
    expected = read_table()
    assert len(expected) == len(BENCHMARKS) * len(MACHINES) * len(COLUMNS)
    got = dict(cell_digests())
    assert sorted(got) == sorted(expected)
    changed = [cell for cell in expected if got[cell] != expected[cell]]
    assert not changed, (
        f"RTL changed in {len(changed)} cell(s): {', '.join(changed)}"
    )


def main() -> None:
    TABLE.parent.mkdir(parents=True, exist_ok=True)
    rows = "".join(f"{cell} {digest}\n" for cell, digest in cell_digests())
    TABLE.write_text(HEADER + rows)
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
