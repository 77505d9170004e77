"""Outside-in benchmark of the memory-access-coalescing reproduction.

    python3 perfbench/run.py --workload compile-cold --seed 1 \\
        --seconds 10 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``compile-cold`` - every cell of the quick matrix compiled, translated,
  simulated and verified with every compile cache off;
* ``sim-large`` - the ``vpo``/``coalesce-all`` cells at 128x128,
  compiled in set-up, simulated and verified per op;
* ``service-mixed`` - a closed loop of two connections sending
  ``simulate`` requests to ``python -m repro serve``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import measure
import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("compile-cold", "sim-large", "service-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def expected_metrics(trace: bool):
    """(name, unit) of every metric this run must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # The benchmark fixes every setting itself: no fault plan, no
    # backend or cache overrides, no disk cache for in-process compiles.
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE"] = "off"
    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)

    if args.workload == "service-mixed":
        import service_mixed

        samples, metrics = service_mixed.run(
            args.seed, args.seconds, trace, OUT_DIR)
    else:
        import batch

        samples, metrics = batch.run(
            args.workload, args.seed, args.seconds, trace, OUT_DIR)

    wanted = expected_metrics(trace)
    if set(metrics) != {name for name, _ in wanted}:
        raise SystemExit(
            "perfbench: computed metrics do not match BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {name for name, _ in wanted})}")
    # Every op of one cell must agree with the cell's first op (this also
    # covers the traced runs, which compute no end-to-end metrics).
    measure.per_cell(samples, "cycles")
    measure.per_cell(samples, "code")
    failed = sum(1 for s in samples if not s.ok)
    result = {
        "correct": failed == 0 and bool(samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    for name, unit in wanted:
        print(f"  {args.workload:14} {name:32} {metrics[name]:>16.6g} "
              f"{unit}", file=sys.stderr)
    print(f"  {args.workload:14} {'failed_ratio':32} "
          f"{failed / max(len(samples), 1):>16.6g} ratio", file=sys.stderr)
    wall = [s.seconds * 1000.0 for s in samples]
    print(f"  {args.workload:14} {'wall op_ms_p50, p90 (raw)':32} "
          f"{spans.percentile(wall, 0.5):>16.6g} "
          f"{spans.percentile(wall, 0.9):.6g} ms", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
