#!/usr/bin/env python3
"""Regenerate every table of the paper in one run.

Table I (benchmark inventory), Table II (DEC Alpha), Table III (Motorola
88100), and the §3 Motorola 68030 result cast as a table.  Sizes default
to 48x48 images; pass a size argument for larger runs, e.g.::

    python examples/paper_tables.py 96

Compilations go through the disk-backed compile-session cache
(repro.bench.cache), so a repeat run at the same size skips the whole
frontend/opt/lowering path and is several times faster; set
REPRO_CACHE=off to measure cold.
"""

import sys
import time

from repro.bench.cache import default_cache
from repro.bench.tables import format_table, format_table1, table_rows


def main():
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    started = time.perf_counter()

    print("=" * 88)
    print("TABLE I — Compute- and memory-intensive benchmarks")
    print("=" * 88)
    print(format_table1())

    for machine, caption in (
        ("alpha", "TABLE II — DEC Alpha"),
        ("m88100", "TABLE III — Motorola 88100"),
        ("m68030", "'TABLE IV' — Motorola 68030 (§3 prose: all slower)"),
    ):
        print()
        print("=" * 88)
        print(f"{caption}   ({size}x{size} images, simulated cycles)")
        print("=" * 88)
        rows = table_rows(machine, width=size, height=size)
        print(format_table(machine, rows))

    print()
    print("Paper reference points: Alpha savings 3.86-41.05% (its "
          "formula), 88100 loads\ncoalescing up to ~25% and always "
          "better than loads+stores, 68030 always slower.")

    elapsed = time.perf_counter() - started
    cache = default_cache()
    if cache is not None:
        stats = cache.stats()
        print(f"\n[{elapsed:.1f}s; compile cache: {stats['hits']} hits, "
              f"{stats['misses']} misses]", file=sys.stderr)
    else:
        print(f"\n[{elapsed:.1f}s; compile cache off]", file=sys.stderr)


if __name__ == "__main__":
    main()
