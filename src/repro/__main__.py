"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE`` — compile a MiniC file and print the final RTL.
* ``run FILE --entry F --args ...`` — compile, simulate, report cycles.
* ``lint FILE`` — run the sanitizer checkers over a MiniC or RTL file.
* ``tables`` — regenerate the paper's tables.
* ``bench`` — run the benchmark matrix in parallel, persist a
  ``BENCH_<tag>.json`` baseline, and/or gate against one.
* ``machines`` — list the supported machine models.
* ``replay BUNDLE`` — re-run a crash bundle's compilation and check the
  recorded failure recurs.
* ``bisect BUNDLE`` — pin the minimal failing pass set and shrink the
  bundle's source, bugpoint-style.
* ``chaos FILES...`` — inject one fault into every pipeline stage in
  turn and verify each compilation recovers and still behaves like the
  unoptimized baseline.
* ``serve`` — run the concurrent compile server on a local socket
  (bounded queue, deadlines, circuit breakers, degraded fallbacks).
* ``submit FILE`` — send a compile (or, with ``--entry``, simulate)
  request to a running server, retrying retryable failures.
* ``status`` — print a running server's queue/breaker/cache state;
  ``--shutdown`` asks it to drain and exit.
* ``cache`` — inspect (``--stats``) or empty (``--clear``) the disk
  compile cache.

``replay``/``bisect``/``chaos`` take ``--json`` for machine-readable
output; all three exit 0 on success, 1 when the check fails (did not
reproduce / nothing pinned / problems found), 2 on bad input.

Examples::

    python -m repro compile kernel.c --machine alpha --config coalesce-all
    python -m repro run kernel.c --entry dotproduct --array a:2:1,2,3,4 \\
        --array b:2:5,6,7,8 --args a b 4
    python -m repro lint kernel.c --config coalesce-all --differential
    python -m repro lint hand_written.rtl --checks coalesce-safety
    python -m repro tables --machine alpha --size 48
    python -m repro bench --jobs 4 --tag nightly
    python -m repro bench --quick --compare BENCH_seed.json
    python -m repro compile kernel.c --inject unroll=raise \\
        --on-pass-failure skip --crash-dir ./crashes
    python -m repro replay crashes/repro_crash_1a2b3c4d5e6f
    python -m repro bisect crashes/repro_crash_1a2b3c4d5e6f
    python -m repro chaos examples/*.c --seed 1234
    python -m repro serve --workers 4 --queue-limit 32
    python -m repro submit kernel.c --config coalesce-all --deadline 10
    python -m repro submit kernel.c --entry dot --array a:2:1,2,3,4 \\
        --array b:2:5,6,7,8 --args a b 4
    python -m repro status --json
    python -m repro cache --stats
"""

from __future__ import annotations

import argparse
import sys

from repro import MACHINE_NAMES, PRESETS, compile_minic, timing
from repro.ir import format_module
from repro.pipeline import stage_names


def _positive_int(text: str) -> int:
    """argparse type of an image size: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--machine", default="alpha", choices=sorted(MACHINE_NAMES),
        help="target machine model",
    )
    parser.add_argument(
        "--config", default="vpo", choices=sorted(PRESETS),
        help="pipeline configuration",
    )
    parser.add_argument(
        "--unroll-factor", type=int, default=None,
        help="override the unroll heuristic",
    )
    parser.add_argument(
        "--force-coalesce", action="store_true",
        help="bypass the profitability analysis",
    )
    parser.add_argument(
        "--unaligned-loads", action="store_true",
        help="use unaligned wide loads (no alignment checks; Alpha only)",
    )
    parser.add_argument(
        "--regalloc", action="store_true",
        help="bind virtual registers to the machine register file",
    )
    parser.add_argument(
        "--on-pass-failure", default=None,
        choices=("raise", "skip", "fallback"),
        help="recovery policy when a pass crashes/corrupts/miscompiles: "
             "raise (default), skip (roll back and continue), fallback "
             "(roll back and disable the pass)",
    )
    parser.add_argument(
        "--inject", default=None, metavar="PLAN",
        help="fault-injection plan, e.g. 'unroll=raise,coalesce=corrupt@2'"
             " or 'seed=42,rate=0.25,kinds=raise|corrupt'",
    )
    parser.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write a replayable repro_crash_<hash>/ bundle for every "
             "recovered pass failure into DIR",
    )
    parser.add_argument(
        "--max-bundles", type=int, default=None, metavar="N",
        help="cap the crash directory at N bundles, evicting oldest "
             "first (default: $REPRO_MAX_BUNDLES or 20)",
    )


def _add_sim_backend(parser: argparse.ArgumentParser) -> None:
    from repro.sim import SIM_BACKENDS

    parser.add_argument(
        "--sim-backend", default=None, choices=SIM_BACKENDS,
        help="simulator backend: interp (reference) or compiled "
             "(block-compiling, bit-identical counts; default: "
             "$REPRO_SIM_BACKEND or interp)",
    )


def _compile_from_args(args, **extra) -> object:
    from repro.resilience.faults import FaultPlan

    with open(args.file) as handle:
        source = handle.read()
    if getattr(args, "on_pass_failure", None) is not None:
        extra.setdefault("on_pass_failure", args.on_pass_failure)
    program = compile_minic(
        source,
        args.machine,
        args.config,
        faults=FaultPlan.parse(getattr(args, "inject", None)),
        crash_dir=getattr(args, "crash_dir", None),
        max_bundles=getattr(args, "max_bundles", None),
        unroll_factor=args.unroll_factor,
        force_coalesce=args.force_coalesce,
        unaligned_loads=args.unaligned_loads,
        regalloc=args.regalloc,
        **extra,
    )
    for failure in program.pass_failures:
        where = f" [{failure.bundle}]" if failure.bundle else ""
        print(f"recovered: {failure.describe()}{where}", file=sys.stderr)
    return program


def _compile_input(args):
    """:func:`_compile_from_args`, or None once the input's frontend
    error or unreadable file is printed as ``lint`` prints it."""
    from repro.errors import ParseError, SemanticError

    try:
        return _compile_from_args(args)
    except (ParseError, SemanticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def cmd_compile(args) -> int:
    program = _compile_input(args)
    if program is None:
        return 2
    print(format_module(program.module))
    for report in program.coalesce_reports:
        if report.runs_found:
            print(f"# {report}", file=sys.stderr)
    return 0


def _call_from_args(args):
    """``--entry``/``--array``/``--args`` as a Plan: a token that names a
    staged array is that array, any other is ``int(token, 0)``."""
    from repro.service.client import parse_array_specs
    from repro.sim.plan import Plan

    arrays = parse_array_specs(args.array)
    names = {name for name, _, _ in arrays}
    call_args = []
    for token in args.args or []:
        try:
            call_args.append(token if token in names else int(token, 0))
        except ValueError:
            call_args.append(token)  # neither: the Plan rejects it
    return Plan(args.entry, arrays, call_args)


def cmd_run(args) -> int:
    from repro.errors import ReproError

    try:
        call = _call_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    program = _compile_input(args)
    if program is None:
        return 2
    measured = program.measure(
        call, args.dump, max_steps=args.max_steps, backend=args.sim_backend
    )
    if measured.result is not None:
        print(f"result: {measured.result}")
    print(f"cycles: {measured.cycles}")
    print(f"instructions: {measured.instr_count}")
    print(f"memory references: {measured.memory_accesses}")
    for name, values in (measured.arrays or {}).items():
        print(f"{name}[0:{len(values)}] =", values)
    return 0


def cmd_lint(args) -> int:
    from repro import ReproError, get_machine
    from repro.sanitize import DiagnosticSink, lint_module

    checks = (
        [c.strip() for c in args.checks.split(",") if c.strip()]
        if args.checks else None
    )
    machine = get_machine(args.machine)
    sink = DiagnosticSink()
    stats = {}

    with timing.root("lint") as tree:
        try:
            if args.file.endswith(".rtl"):
                # Hand-written RTL: verify structurally (into the sink), then
                # lint; --differential runs the cleanup bundle on every
                # function as a guarded stage under the differential
                # pass-sanitizer.
                from repro.ir.parser import parse_module
                from repro.ir.verifier import verify_module
                from repro.opt.pass_manager import PassContext, cleanup
                from repro.resilience.transaction import PassGuard
                from repro.sanitize.differential import DifferentialSanitizer

                with open(args.file) as handle:
                    module = parse_module(handle.read(), name=args.file)
                verify_module(module, sink=sink)
                if not sink.has_errors:
                    lint_module(module, machine, checks=checks, sink=sink)
                    if args.differential:
                        ctx = PassContext(machine, sink=sink)
                        guard = PassGuard(
                            module, machine, sink=sink,
                            sanitizer=DifferentialSanitizer(
                                module, machine, sink
                            ),
                        )
                        for func in module:
                            guard.stage(
                                ctx, "cleanup",
                                lambda: cleanup(func, ctx), func=func,
                            )
                        stats = ctx.stats
            else:
                program = _compile_from_args(
                    args, differential=args.differential
                )
                sink.extend(program.diagnostics)
                lint_module(
                    program.module, program.machine,
                    checks=checks, sink=sink,
                )
                stats = program.pass_stats
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.json:
        import json

        payload = {
            "file": args.file,
            "machine": args.machine,
            "ok": not sink.has_errors,
            "counts": sink.counts(),
            "diagnostics": [
                {
                    "severity": d.severity,
                    "check": d.check,
                    "message": d.message,
                    "function": d.location.function if d.location else None,
                    "block": d.location.block if d.location else None,
                    "index": d.location.index if d.location else None,
                    "provenance": d.provenance,
                    "hint": d.hint,
                }
                for d in sink.sorted()
            ],
        }
        if args.stats:
            payload.update(pass_stats=stats, timing=tree.to_dict())
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 1 if sink.has_errors else 0

    print(sink.render_grouped())
    if args.stats:
        print()
        print("pass statistics:")
        for name in sorted(stats):
            entry = stats[name]
            print(
                f"  {name:20s} runs {entry['runs']:3d}  "
                f"changed {entry['changed']:3d}"
            )
        print()
        print(timing.format_tree(tree.to_dict()))
    return 1 if sink.has_errors else 0


def cmd_tables(args) -> int:
    """Print Table I, then one table per machine, a blank line between
    tables; ``--machine`` picks one.  Exits 1 when a row's output is
    wrong (the row is flagged ``[OUTPUT MISMATCH]``)."""
    from repro.bench.tables import format_table, format_table1, table_rows

    tables, ok = [], True
    if args.machine_filter in (None, "table1"):
        tables.append(format_table1())
    if args.machine_filter != "table1":
        for machine in (
            [args.machine_filter] if args.machine_filter else MACHINE_NAMES
        ):
            rows = table_rows(machine, width=args.size, height=args.size)
            tables.append(format_table(machine, rows))
            ok = ok and all(row.output_ok for row in rows)
    print("\n\n".join(tables))
    return 0 if ok else 1


def _select_matrix(args, machines):
    """``--programs``, ``--machines`` and ``--variants`` of ``bench`` and
    ``simdiff`` as three name lists: each axis takes comma-separated
    names or ``all``, and defaults to every name (the machine axis to
    ``machines``).  Prints ``error: unknown <axis>(s) ...`` and returns
    None on a name the matrix does not know."""
    from repro.bench import runner

    selection = []
    for axis, text, known, default in (
        ("program", args.programs, runner.ALL_PROGRAMS, runner.ALL_PROGRAMS),
        ("machine", args.machines, runner.ALL_MACHINES, machines),
        ("variant", args.variants, runner.COLUMNS, runner.COLUMNS),
    ):
        if text and text != "all":
            names = [name.strip() for name in text.split(",")]
        else:
            names = list(known if text else default)
        unknown = sorted(set(names) - set(known))
        if unknown:
            print(f"error: unknown {axis}(s) {', '.join(map(repr, unknown))}",
                  file=sys.stderr)
            return None
        selection.append(names)
    return selection


def cmd_bench(args) -> int:
    from collections import Counter

    from repro.bench import runner
    from repro.errors import ReproError

    if args.quick:
        size = args.size if args.size is not None else runner.QUICK_SIZE
        selection = _select_matrix(args, runner.QUICK_MACHINES)
    else:
        size = args.size if args.size is not None else runner.FULL_SIZE
        selection = _select_matrix(args, runner.ALL_MACHINES)
    if selection is None:
        return 2
    programs, machines, variants = selection

    try:
        budgets = runner.parse_phase_budgets(args.phase_budget or [])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = args.jobs if args.jobs is not None else runner.default_jobs()
    total = len(programs) * len(machines) * len(variants)
    print(
        f"bench: {len(programs)} programs x {len(machines)} machines x "
        f"{len(variants)} variants = {total} records "
        f"({size}x{size} images, {jobs} job{'s' if jobs != 1 else ''})",
        file=sys.stderr,
    )

    done = []

    def progress(record):
        done.append(record)
        flag = "" if record["output_ok"] else "  [OUTPUT MISMATCH]"
        cached = " (cached)" if record["compile_cache_hit"] else ""
        seconds = record["timing"]["seconds"] if record["timing"] else 0.0
        print(
            f"  [{len(done):3d}/{total}] {record['program']}/"
            f"{record['machine']}/{record['variant']}: "
            f"{record['cycles']} cycles in {seconds:.2f}s{cached}{flag}",
            file=sys.stderr,
        )

    try:
        records = runner.run_matrix(
            programs=programs, machines=machines, variants=variants,
            width=size, jobs=jobs, progress=progress,
            cell_timeout=args.cell_timeout,
            sim_backend=args.sim_backend,
        )
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [r for r in records if r.get("status", "ok") != "ok"]
    for record in failed:
        print(
            f"failed cell {record['program']}/{record['machine']}/"
            f"{record['variant']}: {record['error']}",
            file=sys.stderr,
        )

    out = args.out or f"BENCH_{args.tag}.json"
    document = runner.make_run_document(
        records, tag=args.tag, jobs=jobs, width=size,
    )
    runner.save_run(document, out)
    print(f"wrote {len(records)} records to {out}", file=sys.stderr)

    if args.stats:
        hits = sum(1 for r in records if r["compile_cache_hit"])
        print(f"{len(records)} records, {hits} of them cache hits (no "
              "compile spans); host time summed over records:")
        merged = timing.merge(r["timing"] for r in records if r["timing"])
        if merged is not None:
            print(timing.format_tree(merged))

    overruns = (
        runner.check_phase_budgets(records, budgets) if budgets else []
    )
    for overrun in overruns:
        print(f"phase budget: {overrun}", file=sys.stderr)

    rate_problems = (
        runner.check_sim_rate(records, args.min_sim_rate)
        if args.min_sim_rate else []
    )
    for problem in rate_problems:
        print(f"sim rate: {problem}", file=sys.stderr)

    bad_output = [
        r for r in records
        if r.get("status", "ok") == "ok" and not r["output_ok"]
    ]
    if bad_output:
        print(
            f"error: {len(bad_output)} records produced wrong output",
            file=sys.stderr,
        )
        return 1

    if args.compare:
        try:
            baseline = runner.load_run(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        # An anchor cell this run did not measure is skipped, so a slice
        # of the matrix (the quick tier's one machine) can be gated.
        failing = (runner.DIVERGED, runner.FAILED, runner.ACTUAL_ONLY)
        diffs = runner.diff_runs(baseline["records"], records)
        counts = Counter(diff.outcome for diff in diffs)
        for diff in diffs:
            if diff.outcome != runner.EQUAL:
                verdict = "FAIL" if diff.outcome in failing else "skip"
                print(f"{verdict} {diff.describe('anchor', 'run')}")
        bad = sum(counts[outcome] for outcome in failing)
        print(
            f"gate: {'FAIL' if bad else 'PASS'} ("
            f"{counts[runner.EQUAL]} equal, "
            f"{counts[runner.DIVERGED]} diverged, "
            f"{counts[runner.FAILED]} failed, "
            f"{counts[runner.ACTUAL_ONLY]} missing from the anchor, "
            f"{counts[runner.EXPECTED_ONLY]} skipped)"
        )
        if bad:
            return 1
    elif failed:
        print(
            f"error: {len(failed)} cells failed to measure",
            file=sys.stderr,
        )
        return 1
    if overruns:
        print(
            f"error: {len(overruns)} phase budget(s) failed",
            file=sys.stderr,
        )
        return 1
    if rate_problems:
        print(
            f"error: {len(rate_problems)} simulation-rate floor "
            "violation(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _emit_json(payload) -> None:
    import json

    print(json.dumps(payload, indent=1, sort_keys=True))


def cmd_simdiff(args) -> int:
    """Differential interp-vs-compiled gate over the benchmark matrix.

    Runs every requested cell on both simulator backends and fails
    unless each cell's records are equal in every simulated field
    (``runner.diff_runs``) — the parity contract, enforced end to end.
    ``--expect-speedup`` additionally asserts the compiled backend's
    throughput advantage.
    """
    import json

    from repro.bench import runner
    from repro.errors import ReproError

    selection = _select_matrix(args, runner.ALL_MACHINES)
    if selection is None:
        return 2
    programs, machines, variants = selection

    jobs = args.jobs if args.jobs is not None else runner.default_jobs()
    total = len(programs) * len(machines) * len(variants)
    runs = {}
    try:
        for backend in ("interp", "compiled"):
            print(
                f"simdiff: {total} cells on the {backend} backend "
                f"({args.size}x{args.size} images, {jobs} "
                f"job{'s' if jobs != 1 else ''})",
                file=sys.stderr,
            )
            runs[backend] = runner.run_matrix(
                programs=programs, machines=machines, variants=variants,
                width=args.size, jobs=jobs, sim_backend=backend,
            )
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = [
        diff.describe("interp", "compiled")
        for diff in runner.diff_runs(runs["interp"], runs["compiled"])
        if diff.outcome != runner.EQUAL
    ]
    for record in runs["compiled"]:
        if (
            record.get("status", "ok") == "ok"
            and record.get("sim_backend") != "compiled"
        ):
            problems.append(
                f"{record['program']}/{record['machine']}/"
                f"{record['variant']}: requested the compiled backend "
                f"but ran {record['sim_backend']!r} — no differential "
                "coverage for this cell"
            )

    def cell_key(record):
        return (
            record["program"], record["machine"], record["variant"],
        )

    interp_rates = {
        cell_key(r): r["sim_instrs_per_sec"]
        for r in runs["interp"]
        if r.get("status", "ok") == "ok"
        and r.get("sim_instrs_per_sec")
    }
    speedups = []
    for record in runs["compiled"]:
        base = interp_rates.get(cell_key(record))
        rate = record.get("sim_instrs_per_sec")
        if (
            base and rate
            and record.get("status", "ok") == "ok"
            and record.get("sim_backend") == "compiled"
        ):
            speedups.append((rate / base, rate, base, cell_key(record)))
    speedups.sort(reverse=True)
    best = speedups[0] if speedups else None

    if args.expect_speedup is not None:
        if best is None:
            problems.append(
                "no cell produced measurable throughput on both "
                f"backends (--expect-speedup {args.expect_speedup:g} "
                "unenforceable)"
            )
        elif best[0] < args.expect_speedup:
            problems.append(
                f"best compiled/interp speedup {best[0]:.2f}x "
                f"({'/'.join(best[3])}) is below the "
                f"{args.expect_speedup:g}x floor"
            )

    payload = {
        "cells": total,
        "size": args.size,
        "machines": machines,
        "programs": programs,
        "variants": variants,
        "divergences": problems,
        "ok": not problems,
        "best_speedup": round(best[0], 2) if best else None,
        "speedups": [
            {
                "program": key[0],
                "machine": key[1],
                "variant": key[2],
                "speedup": round(ratio, 2),
                "compiled_instrs_per_sec": round(rate, 1),
                "interp_instrs_per_sec": round(base, 1),
            }
            for ratio, rate, base, key in speedups
        ],
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.json:
        _emit_json(payload)
        return 1 if problems else 0

    for ratio, rate, base, key in speedups[:10]:
        print(
            f"  {'/'.join(key):<42} {base / 1e6:6.2f}M -> "
            f"{rate / 1e6:6.2f}M instrs/sec  ({ratio:.2f}x)"
        )
    if problems:
        print(f"simdiff: FAIL ({len(problems)} problem(s))")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"simdiff: PASS — {total} cells bit-identical on both backends"
        + (f", best speedup {best[0]:.2f}x" if best else "")
    )
    return 0


def cmd_replay(args) -> int:
    import json

    from repro.errors import ReproError
    from repro.resilience.bundle import load_bundle, replay_bundle

    try:
        bundle = load_bundle(args.bundle)
        result = replay_bundle(bundle)
    except ReproError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({
            "bundle": bundle.path,
            "reproduced": result.reproduced,
            "signature": list(bundle.signature),
            "failure": (
                result.failure.describe() if result.failure else None
            ),
            "error": result.error,
        })
    else:
        print(result.describe())
    return 0 if result.reproduced else 1


def cmd_bisect(args) -> int:
    import json
    from pathlib import Path

    from repro.errors import ReproError
    from repro.resilience.bisect import bisect_bundle
    from repro.resilience.bundle import load_bundle

    try:
        bundle = load_bundle(args.bundle)
        result = bisect_bundle(
            bundle,
            reduce=not args.no_reduce,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        )
    except ReproError as exc:
        if args.json:
            print(json.dumps({"error": str(exc)}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    reduced_path = None
    if result.reduced_source is not None:
        out = Path(bundle.path) / "reduced.c"
        out.write_text(result.reduced_source)
        reduced_path = str(out)
    if args.json:
        _emit_json({
            "bundle": bundle.path,
            "culprit": list(result.culprit),
            "attempts": result.attempts,
            "reduced_source": reduced_path,
        })
    else:
        print(result.describe())
        if reduced_path is not None:
            print(f"reduced source written to {reduced_path}")
    return 0 if result.culprit else 1


#: Stages the chaos sweep plants one fault into: every stage its
#: ``coalesce-all`` compilations run, in pipeline order.
CHAOS_SITES = stage_names(PRESETS["coalesce-all"])


def cmd_chaos(args) -> int:
    """Fault-injection smoke: one planted fault per stage per file.

    For every input file and every pipeline stage, compile under the
    recovery policy with one fault injected into that stage, then check
    (a) the compilation survived, (b) every fired fault was recovered
    (and produced a bundle that replays), and (c) the degraded program
    still behaves like the unoptimized baseline on the differential
    sanitizer's fixture plans.
    """
    import hashlib
    import tempfile

    from repro.errors import ReproError
    from repro.pipeline import compile_minic as compile_pipeline
    from repro.resilience.bundle import replay_bundle
    from repro.resilience.faults import FaultPlan
    from repro.sanitize.differential import (
        describe, fixture_plans, fixture_sim, observe,
    )

    if args.fleet or args.disk:
        return _service_chaos(args)
    if not args.files:
        print(
            "error: chaos needs FILES (or --fleet / --disk for the "
            "service-level sweeps)",
            file=sys.stderr,
        )
        return 2

    crash_dir = args.crash_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    problems = []
    checked = recovered = 0

    for path in args.files:
        with open(path) as handle:
            source = handle.read()
        try:
            # An empty plan keeps a stray REPRO_FAULTS out of the baseline.
            baseline = compile_pipeline(
                source, args.machine, "naive", faults=FaultPlan()
            )
        except (ReproError, OSError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        expected = [
            (plan, observe(fixture_sim(baseline.module, baseline.machine,
                                       facts=baseline.facts), plan))
            for func in baseline.module for plan in fixture_plans(func)
        ]

        for site in CHAOS_SITES:
            # Deterministic kind choice: the seed decides raise vs
            # corrupt per (file, site), so a sweep covers both.
            digest = hashlib.sha256(
                f"{args.seed}:{path}:{site}".encode()
            ).digest()
            kind = ("raise", "corrupt")[digest[0] % 2]
            plan = FaultPlan.parse(f"{site}={kind}")
            checked += 1
            tag = f"{path}:{site}={kind}"
            try:
                program = compile_pipeline(
                    source, args.machine, "coalesce-all",
                    faults=plan, crash_dir=crash_dir,
                    on_pass_failure=args.policy,
                )
            except Exception as exc:  # noqa: BLE001 — unrecovered = finding
                problems.append(
                    f"{tag}: UNRECOVERED {type(exc).__name__}: {exc}"
                )
                print(f"  {tag}: UNRECOVERED ({exc})", file=sys.stderr)
                continue

            notes = []
            if plan.fired and not program.pass_failures:
                notes.append("fault fired but no failure was recorded")
            for failure in program.pass_failures:
                if not failure.bundle:
                    notes.append("no crash bundle was written")
                    continue
                replay = replay_bundle(failure.bundle)
                if not replay.reproduced:
                    notes.append(
                        f"bundle {failure.bundle} did not replay"
                    )
            for plan, want in expected:
                if want.status != "ok":
                    continue  # inconclusive baseline
                got = observe(fixture_sim(
                    program.module, program.machine, facts=program.facts,
                ), plan)
                difference = want.diverges_from(got)
                if difference is not None:
                    notes.append(
                        f"behaviour diverged from baseline in "
                        f"{describe(plan)}: {difference}"
                    )
                    break
            if notes:
                problems.extend(f"{tag}: {note}" for note in notes)
                print(f"  {tag}: " + "; ".join(notes), file=sys.stderr)
            else:
                recovered += 1
                if args.verbose:
                    hit = "fired" if plan.fired else "did not fire"
                    print(f"  {tag}: recovered ({hit})", file=sys.stderr)

            if args.bisect:
                for failure in program.pass_failures:
                    if not failure.bundle:
                        continue
                    from repro.resilience.bisect import bisect_bundle
                    from repro.resilience.bundle import load_bundle

                    result = bisect_bundle(
                        load_bundle(failure.bundle), reduce=True
                    )
                    if site not in result.culprit:
                        problems.append(
                            f"{tag}: bisect pinned {result.culprit} "
                            f"instead of {site}"
                        )
                    elif args.verbose:
                        print(
                            f"  {tag}: bisect pinned "
                            f"{', '.join(result.culprit)} in "
                            f"{result.attempts} probes",
                            file=sys.stderr,
                        )

    if args.json:
        _emit_json({
            "checked": checked,
            "recovered": recovered,
            "problems": problems,
            "crash_dir": crash_dir,
        })
    else:
        print(
            f"chaos: {recovered}/{checked} injections fully recovered "
            f"({len(problems)} problem(s)); bundles in {crash_dir}"
        )
        for problem in problems:
            print(f"  {problem}")
    return 1 if problems else 0


def _service_chaos(args) -> int:
    """``chaos --fleet`` / ``chaos --disk``: SIGKILL/SIGSTOP fleet
    workers under a live mixed workload (``--disk``: with seeded disk
    faults against a shared artifact cache) and fail on any lost, late,
    untyped or wrong answer, unrestarted kill, or, for ``--disk``, any
    duplicate compile, link-once violation or unmatched lease steal."""
    from repro.errors import ReproError
    from repro.service.chaos import run_disk_chaos, run_fleet_chaos

    name = "fleet" if args.fleet else "disk"
    common = dict(
        requests=args.requests,
        workers=args.workers,
        seed=args.seed,
        deadline=args.deadline,
        kills=args.kills,
        socket_path=args.socket,
        run_dir=args.run_dir,
        crash_dir=args.crash_dir,
        echo=(
            (lambda m: print(f"  {m}", file=sys.stderr))
            if args.verbose else None
        ),
    )
    try:
        if args.fleet:
            summary, problems = run_fleet_chaos(hangs=args.hangs, **common)
        else:
            summary, problems = run_disk_chaos(
                rate=args.rate, lease_ttl=args.lease_ttl, **common
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json({**summary, "problems": problems})
        return 1 if problems else 0
    print(
        f"{name} chaos: {summary['answered']}/{summary['requests']} "
        f"requests answered, {summary['worker_restarts']} worker "
        f"restart(s), {summary['requeued']} requeue(s), "
        f"{summary['quarantined']} quarantine(s) "
        f"({len(problems)} problem(s)); "
        f"logs in {summary['run_dir']}"
    )
    cache = summary.get("cache")
    if cache:
        print(
            f"  cache: {cache['publishes']} publish(es), "
            f"{cache['dedup_hits']} dedup hit(s), "
            f"{cache['steals']} steal(s), "
            f"{cache['corruption_drops']} corruption drop(s), "
            f"{cache['torn_publishes']} torn, "
            f"{cache['fenced_publishes']} fenced, "
            f"{cache['disk_errors']} disk error(s), "
            f"{cache['fallbacks']} fallback(s), "
            f"{cache['faults_injected']} fault(s) injected"
        )
    for status, count in summary["by_status"].items():
        print(f"  {status}: {count}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    return 1 if problems else 0


def cmd_serve(args) -> int:
    from repro.errors import ReproError
    from repro.resilience.faults import FaultPlan
    from repro.service.server import CompileServer

    if args.fleet:
        from repro.service.fleet import FleetSupervisor

        fleet = FleetSupervisor(
            socket_path=args.socket,
            workers=args.fleet,
            worker_threads=args.workers,
            queue_limit=args.queue_limit,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown=args.breaker_cooldown,
            default_deadline=args.default_deadline,
            crash_dir=args.crash_dir,
            worker_inject=args.inject or "",
            fleet_faults=FaultPlan.parse(args.fleet_inject),
            run_dir=args.run_dir,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            cache_dir=args.cache_dir,
            lease_ttl=args.lease_ttl,
        )
        print(
            f"fleet on {fleet.socket_path}: {args.fleet} worker "
            f"processes x {args.workers} threads "
            f"(run dir {fleet.run_dir})",
            file=sys.stderr,
        )
        try:
            fleet.serve_forever()
        except (ReproError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("fleet stopped", file=sys.stderr)
        return 0

    faults = FaultPlan.parse(args.inject) if args.inject else None
    server = CompileServer(
        socket_path=args.socket,
        workers=args.workers,
        queue_limit=args.queue_limit,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        default_deadline=args.default_deadline,
        faults=faults,
        crash_dir=args.crash_dir,
        start_delay=args.slowstart,
        worker_id=args.worker_id,
        exit_with_parent=args.exit_with_parent,
        cache_dir=args.cache_dir,
        lease_ttl=args.lease_ttl,
    )
    print(
        f"serving on {server.socket_path} "
        f"({server.workers} workers, queue limit {server.queue_limit})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("server stopped", file=sys.stderr)
    return 0


def _print_submit_response(response, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(response, indent=1, sort_keys=True))
        return
    status = response.get("status")
    print(f"status: {status}")
    if response.get("degraded") or status == "degraded":
        disabled = response.get("disabled_passes") or []
        recovered = response.get("recovered_passes") or []
        print(
            "degraded: served with reduced optimization "
            f"(breaker {response.get('breaker')}; "
            f"disabled: {', '.join(disabled) or '-'}; "
            f"recovered: {', '.join(recovered) or '-'})"
        )
    for field in ("result", "cycles", "instr_count", "memory_accesses",
                  "output_ok", "coalesced_loops", "cache_hit", "error"):
        if response.get(field) is not None:
            print(f"{field}: {response[field]}")
    if response.get("rtl"):
        print(response["rtl"])


def cmd_submit(args) -> int:
    from repro.errors import ReproError
    from repro.service.client import ServiceClient, ServiceUnavailable

    client = ServiceClient(
        args.socket, retries=args.retries,
        backoff_base=args.backoff_base,
    )
    fields = {}
    if args.deadline is not None:
        fields["deadline"] = args.deadline
    if args.inject:
        fields["faults"] = args.inject
    if args.sim_backend is not None:
        fields["sim_backend"] = args.sim_backend
    try:
        if args.bench:
            response = client.bench(
                args.bench, machine=args.machine,
                variant=args.variant, size=args.size,
                max_steps=args.max_steps, **fields,
            )
        elif args.entry:
            with open(args.file) as handle:
                source = handle.read()
            call = _call_from_args(args)
            response = client.simulate(
                source, call.entry, call.args, arrays=call.arrays,
                machine=args.machine, config=args.config,
                max_steps=args.max_steps, **fields,
            )
        else:
            if not args.file:
                print(
                    "error: a FILE (or --bench PROGRAM) is required",
                    file=sys.stderr,
                )
                return 2
            with open(args.file) as handle:
                source = handle.read()
            response = client.compile(
                source, machine=args.machine, config=args.config,
                include_rtl=args.rtl, **fields,
            )
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_submit_response(response, args.json)
    served = response.get("status") in ("ok", "degraded")
    return 0 if served and response.get("output_ok", True) else 1


def _format_latency(snapshot) -> str:
    """'p50 12.3ms / p90 40.0ms / p99 80.1ms (37 in window)' or ''."""
    if not snapshot or not snapshot.get("count"):
        return ""
    parts = []
    for quantile in ("p50", "p90", "p99"):
        value = snapshot.get(quantile)
        if value is None:
            return ""
        parts.append(f"{quantile} {value * 1000.0:.1f}ms")
    return (
        " / ".join(parts) + f" ({snapshot.get('window', 0)} in window)"
    )


def cmd_status(args) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceUnavailable

    client = ServiceClient(args.socket, retries=1)
    try:
        if args.shutdown:
            response = client.shutdown_server()
        else:
            response = client.status()
    except (ServiceUnavailable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(response, indent=1, sort_keys=True))
        return 0 if response.get("status") == "ok" else 1
    if args.shutdown:
        print(f"shutdown: {response.get('status')}")
        return 0 if response.get("status") == "ok" else 1
    if response.get("fleet"):
        fleet = response["fleet"]
        print(f"fleet on {fleet.get('socket')}")
        for field in ("uptime_seconds", "workers", "in_flight",
                      "accepted", "completed", "ok", "degraded",
                      "rejected", "timeouts", "errors", "forwarded",
                      "requeued", "quarantined", "hang_kills",
                      "worker_restarts", "run_dir"):
            print(f"  {field}: {fleet.get(field)}")
        cache = response.get("cache")
        if cache:
            print(
                f"  cache: {cache.get('dedup_hits', 0)} dedup hit(s), "
                f"{cache.get('steals', 0)} steal(s), "
                f"{cache.get('corruption_drops', 0)} corruption "
                f"drop(s)"
            )
        for worker in response.get("workers") or []:
            server = worker.get("server") or {}
            breakers = worker.get("breakers") or {}
            open_breakers = sum(
                1 for snap in breakers.values()
                if snap.get("state") != "closed"
            )
            print(
                f"worker {worker['index']}: {worker['state']} "
                f"(pid {worker.get('pid')}, "
                f"restarts {worker.get('restarts')}, "
                f"queue {server.get('queue_depth', '-')}, "
                f"in-flight {server.get('in_flight', '-')}, "
                f"breakers {len(breakers)} "
                f"({open_breakers} not closed))"
            )
            latency = _format_latency(worker.get("latency"))
            if latency:
                print(f"  latency: {latency}")
        return 0
    server = response.get("server", {})
    print(f"server on {server.get('socket')}")
    for field in ("uptime_seconds", "workers", "queue_depth",
                  "queue_limit", "in_flight", "accepted", "completed",
                  "ok", "degraded", "rejected", "timeouts", "errors"):
        print(f"  {field}: {server.get(field)}")
    breakers = response.get("breakers") or {}
    print(f"breakers: {len(breakers)}")
    for key, snap in sorted(breakers.items()):
        bad = ", ".join(snap.get("bad_passes") or []) or "-"
        print(
            f"  {key}: {snap['state']} "
            f"(failures {snap['consecutive_failures']}, bad passes {bad}, "
            f"served degraded {snap['served_degraded']})"
        )
    cache = response.get("cache")
    if cache:
        print(
            f"cache: {cache['entries']} entries, {cache['bytes']} bytes "
            f"in {cache['directory']}"
        )
        memo = cache["revive_memo"]
        print(f"revive memo: {memo['entries']} program(s) held, "
              f"{memo['hits']} hit(s)")
    print(f"deduped compiles (waited on a lease): "
          f"{response.get('single_flight_shared', 0)}")
    latency = _format_latency(response.get("latency"))
    if latency:
        print(f"latency: {latency}")
    return 0


def cmd_cache(args) -> int:
    import json

    from repro.bench.cache import cache_enabled, default_cache_dir
    from repro.service.artifacts import ArtifactStore

    cache = ArtifactStore(args.dir or default_cache_dir())
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
        return 0
    stats = cache.stats()
    stats["enabled"] = cache_enabled()
    if args.json:
        print(json.dumps(stats, indent=1, sort_keys=True))
    else:
        cap = stats["max_bytes"]
        print(f"compile cache at {stats['directory']} "
              f"({'enabled' if stats['enabled'] else 'DISABLED'})")
        print(f"  entries:   {stats['entries']}")
        print(f"  bytes:     {stats['bytes']}")
        print(f"  max bytes: {cap if cap is not None else 'unlimited'}")
        print(f"  lease ttl: {stats['lease_ttl']:g}s")
        # The durable journal's fleet-wide view: dedup_hits are reads
        # that saved another process's compile; steals are crashed or
        # stalled holders whose lease a waiter took over.
        print(
            f"  journal:   {stats['log_hits']} hit(s), "
            f"{stats['dedup_hits']} dedup, "
            f"{stats['compiles']} compile(s), "
            f"{stats['publishes']} publish(es)"
        )
        print(
            f"  incidents: {stats['steals']} steal(s), "
            f"{stats['fenced_publishes']} fenced, "
            f"{stats['torn_publishes']} torn, "
            f"{stats['corruption_drops']} corruption drop(s), "
            f"{stats['disk_errors']} disk error(s), "
            f"{stats['fallbacks']} fallback(s)"
        )
    return 0


def cmd_machines(args) -> int:
    from repro import get_machine

    for name in sorted(MACHINE_NAMES):
        machine = get_machine(name)
        traits = []
        if not machine.supports_load(1):
            traits.append("no narrow loads/stores")
        if machine.has_unaligned_wide:
            traits.append("unaligned wide access")
        if not machine.has_insert:
            traits.append("no field insert")
        if not machine.pipelined:
            traits.append("non-pipelined")
        print(
            f"{name:8s} {machine.word_bytes * 8}-bit {machine.endian}-"
            f"endian, issue {machine.issue_width}, "
            f"{machine.num_registers} regs"
            + (f" ({', '.join(traits)})" if traits else "")
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Memory access coalescing (PLDI 1994) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile and print RTL")
    p_compile.add_argument("file")
    _add_common(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_run = sub.add_parser("run", help="compile and simulate")
    p_run.add_argument("file")
    p_run.add_argument("--entry", required=True)
    p_run.add_argument(
        "--array", action="append",
        help="stage an array: NAME:WIDTH:v1,v2,...",
    )
    p_run.add_argument(
        "--args", nargs="*",
        help="call arguments (array names resolve to addresses)",
    )
    p_run.add_argument("--dump", type=int, default=0,
                       help="dump first N elements of each array after")
    p_run.add_argument(
        "--max-steps", type=int, default=None,
        help="simulator watchdog: abort with SimulationTimeout after N "
             "executed instructions (default: $REPRO_MAX_STEPS or 200M)",
    )
    _add_sim_backend(p_run)
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_lint = sub.add_parser(
        "lint", help="run the sanitizer checkers over a file"
    )
    p_lint.add_argument("file", help="a MiniC .c file or an .rtl file")
    p_lint.add_argument(
        "--checks", default=None,
        help="comma-separated checker ids (default: all)",
    )
    p_lint.add_argument(
        "--differential", action="store_true",
        help="re-execute each function before/after every pass and "
             "report the pass on behaviour divergence",
    )
    p_lint.add_argument(
        "--stats", action="store_true",
        help="print per-pass run/changed counts and the span tree",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="machine-readable diagnostics on stdout",
    )
    _add_common(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_tables = sub.add_parser("tables", help="regenerate paper tables")
    p_tables.add_argument(
        "--machine", dest="machine_filter", default=None,
        choices=("table1",) + MACHINE_NAMES,
        help="print only Table I or this machine's table (default: all)",
    )
    p_tables.add_argument("--size", type=_positive_int, default=48)
    p_tables.set_defaults(func=cmd_tables)

    p_bench = sub.add_parser(
        "bench",
        help="run the benchmark matrix, persist/compare baselines",
    )
    p_bench.add_argument(
        "--programs", default=None,
        help="comma-separated benchmark names or 'all' (default: all)",
    )
    p_bench.add_argument(
        "--machines", default=None,
        help="comma-separated machine names or 'all'",
    )
    p_bench.add_argument(
        "--variants", default=None,
        help="comma-separated column names "
             "(cc,vpo,coalesce-loads,coalesce-all) or 'all'",
    )
    p_bench.add_argument(
        "--size", type=_positive_int, default=None,
        help="image width=height (default 48; 16 with --quick)",
    )
    p_bench.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $BENCH_JOBS or 1)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="the CI smoke tier: alpha only, 16x16 images",
    )
    p_bench.add_argument(
        "--tag", default="run",
        help="baseline tag; the run is written to BENCH_<tag>.json",
    )
    p_bench.add_argument(
        "--out", default=None,
        help="output path (overrides the --tag naming)",
    )
    p_bench.add_argument(
        "--compare", default=None, metavar="BASELINE.json",
        help="diff against a stored baseline; non-zero exit when a "
             "measured cell differs from it in any simulated field, "
             "failed, or is missing from it",
    )
    p_bench.add_argument(
        "--stats", action="store_true",
        help="print the records' span trees, summed node by node",
    )
    p_bench.add_argument(
        "--phase-budget", action="append", default=None,
        metavar="PHASE=SECONDS",
        help="fail the run when the inclusive time of the span PHASE, "
             "summed across records, exceeds SECONDS, or when no record "
             "compiled; repeatable, comma-separable, e.g. cleanup=0.3",
    )
    p_bench.add_argument(
        "--cell-timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds before a cell is "
             "marked failed (default: $BENCH_CELL_TIMEOUT or 600)",
    )
    _add_sim_backend(p_bench)
    p_bench.add_argument(
        "--min-sim-rate", type=float, default=None, metavar="INSTRS_PER_SEC",
        help="fail unless the fastest compiled-backend cell simulates at "
             "least this many instructions per second",
    )
    p_bench.set_defaults(func=cmd_bench)

    p_simdiff = sub.add_parser(
        "simdiff",
        help="differential gate: run the matrix on both simulator "
             "backends and fail on any observable divergence",
    )
    p_simdiff.add_argument(
        "--programs", default=None,
        help="comma-separated benchmark names or 'all' (default: all)",
    )
    p_simdiff.add_argument(
        "--machines", default=None,
        help="comma-separated machine names or 'all' (default: all)",
    )
    p_simdiff.add_argument(
        "--variants", default=None,
        help="comma-separated column names or 'all' (default: all)",
    )
    p_simdiff.add_argument(
        "--size", type=_positive_int, default=32,
        help="image width=height for every cell (default 32)",
    )
    p_simdiff.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: $BENCH_JOBS or 1)",
    )
    p_simdiff.add_argument(
        "--expect-speedup", type=float, default=None, metavar="FACTOR",
        help="additionally fail unless the best per-cell compiled/interp "
             "throughput ratio reaches FACTOR",
    )
    p_simdiff.add_argument(
        "--out", default=None, metavar="FILE.json",
        help="also write the machine-readable summary to FILE.json",
    )
    p_simdiff.add_argument("--json", action="store_true")
    p_simdiff.set_defaults(func=cmd_simdiff)

    p_replay = sub.add_parser(
        "replay", help="re-run a crash bundle's compilation"
    )
    p_replay.add_argument("bundle", help="a repro_crash_<hash>/ directory")
    p_replay.add_argument(
        "--json", action="store_true",
        help="machine-readable result on stdout",
    )
    p_replay.set_defaults(func=cmd_replay)

    p_bisect = sub.add_parser(
        "bisect",
        help="pin a bundle's failing pass set and shrink its source",
    )
    p_bisect.add_argument("bundle", help="a repro_crash_<hash>/ directory")
    p_bisect.add_argument(
        "--no-reduce", action="store_true",
        help="skip the source-reduction phase",
    )
    p_bisect.add_argument(
        "--json", action="store_true",
        help="machine-readable result on stdout",
    )
    p_bisect.set_defaults(func=cmd_bisect)

    p_chaos = sub.add_parser(
        "chaos",
        help="inject one fault per pipeline stage and verify recovery",
    )
    p_chaos.add_argument(
        "files", nargs="*",
        help="MiniC source files (not used with --fleet)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="decides raise-vs-corrupt per (file, stage); the sweep is "
             "fully reproducible from this value",
    )
    p_chaos.add_argument(
        "--fleet", action="store_true",
        help="fleet-level sweep instead: SIGKILL/SIGSTOP worker "
             "processes under a live mixed workload and assert zero "
             "lost requests",
    )
    p_chaos.add_argument(
        "--disk", action="store_true",
        help="disk-fault sweep instead: batter a shared artifact "
             "cache (torn writes, corrupt artifacts, silent leases, "
             "steal races, ENOSPC) under a live fleet and audit the "
             "exactly-once cross-process dedup contract",
    )
    p_chaos.add_argument(
        "--rate", type=float, default=0.08,
        help="--disk: per-arrival probability of the seeded disk "
             "fault sweep (default 0.08)",
    )
    p_chaos.add_argument(
        "--lease-ttl", type=float, default=1.0,
        help="--disk: artifact lease TTL in seconds (default 1.0; "
             "short, so stale-lease steals happen within the run)",
    )
    p_chaos.add_argument(
        "--requests", type=int, default=100,
        help="--fleet: mixed-workload requests to drive (default 100)",
    )
    p_chaos.add_argument(
        "--workers", type=int, default=4,
        help="--fleet: worker processes in the fleet (default 4)",
    )
    p_chaos.add_argument(
        "--deadline", type=float, default=10.0,
        help="--fleet: per-request deadline in seconds (default 10)",
    )
    p_chaos.add_argument(
        "--kills", type=int, default=3,
        help="--fleet/--disk: seeded SIGKILL faults to plant "
             "(default 3)",
    )
    p_chaos.add_argument(
        "--hangs", type=int, default=1,
        help="--fleet: seeded SIGSTOP faults to plant (default 1)",
    )
    p_chaos.add_argument(
        "--socket", default=None,
        help="--fleet: fleet socket path (default: a fresh temp path)",
    )
    p_chaos.add_argument(
        "--run-dir", default=None,
        help="--fleet: directory for worker sockets and logs",
    )
    p_chaos.add_argument(
        "--machine", default="alpha", choices=sorted(MACHINE_NAMES),
    )
    p_chaos.add_argument(
        "--policy", default="skip", choices=("skip", "fallback"),
        help="recovery policy to test under (default: skip)",
    )
    p_chaos.add_argument(
        "--crash-dir", default=None,
        help="where bundles land (default: a fresh temp directory)",
    )
    p_chaos.add_argument(
        "--bisect", action="store_true",
        help="also bisect every written bundle and check it pins the "
             "injected stage",
    )
    p_chaos.add_argument("--verbose", action="store_true")
    p_chaos.add_argument(
        "--json", action="store_true",
        help="machine-readable summary on stdout",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the compile server on a local Unix socket",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="socket path (default: REPRO_SERVICE_SOCKET or a per-user "
             "path under the temp dir)",
    )
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument(
        "--queue-limit", type=int, default=16,
        help="bounded request queue depth; beyond it requests are "
             "load-shed with a retryable 'rejected' response",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive pass failures before a circuit opens",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open circuit waits before a half-open probe",
    )
    p_serve.add_argument(
        "--default-deadline", type=float, default=None,
        help="per-request deadline in seconds when the request sets none",
    )
    p_serve.add_argument(
        "--inject", default=None, metavar="PLAN",
        help="server-wide fault plan (same syntax as REPRO_FAULTS); "
             "arrival counts span requests",
    )
    p_serve.add_argument(
        "--crash-dir", default=None,
        help="where crash bundles land (default: cwd)",
    )
    p_serve.add_argument(
        "--cache-dir", default=None,
        help="compile-cache directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-compile); fleet workers share it, so "
             "cross-process lease dedup spans the whole fleet",
    )
    p_serve.add_argument(
        "--lease-ttl", type=float, default=None,
        help="artifact lease TTL in seconds (default: REPRO_LEASE_TTL "
             "or 5.0) — how long a silent compile holder may go "
             "without a heartbeat before waiters steal its lease",
    )
    p_serve.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="run a supervised fleet of N worker *processes* (each a "
             "--workers-threaded server on a private socket) behind "
             "this socket, with crash recovery, exactly-once requeue, "
             "and quarantine",
    )
    p_serve.add_argument(
        "--fleet-inject", default=None, metavar="PLAN",
        help="fleet-level fault plan (kill/hang/slowstart at "
             "worker:<index> sites), e.g. 'worker:0=kill:0.1@3'",
    )
    p_serve.add_argument(
        "--run-dir", default=None,
        help="fleet only: directory for worker sockets and logs "
             "(default: a fresh temp directory)",
    )
    p_serve.add_argument(
        "--heartbeat-interval", type=float, default=0.25,
        help="fleet only: seconds between worker heartbeat pings",
    )
    p_serve.add_argument(
        "--heartbeat-timeout", type=float, default=2.0,
        help="fleet only: unanswered-heartbeat window before a wedged "
             "worker is SIGKILLed and restarted",
    )
    p_serve.add_argument(
        "--worker-id", type=int, default=None,
        help=argparse.SUPPRESS,  # set by the fleet supervisor
    )
    p_serve.add_argument(
        "--exit-with-parent", action="store_true",
        help=argparse.SUPPRESS,  # set by the fleet supervisor
    )
    p_serve.add_argument(
        "--slowstart", type=float, default=0.0,
        help=argparse.SUPPRESS,  # the fleet 'slowstart' fault
    )
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit one request to a running compile server",
    )
    p_submit.add_argument(
        "file", nargs="?", default=None,
        help="MiniC source to compile (or simulate with --entry)",
    )
    p_submit.add_argument("--socket", default=None)
    p_submit.add_argument("--machine", default="alpha",
                          choices=sorted(MACHINE_NAMES))
    p_submit.add_argument("--config", default="vpo")
    p_submit.add_argument(
        "--entry", default=None,
        help="simulate: function to call after compiling",
    )
    p_submit.add_argument(
        "--args", nargs="*", default=None,
        help="simulate: arguments (ints or staged array names)",
    )
    p_submit.add_argument(
        "--array", action="append", default=[], metavar="NAME:WIDTH:VALUES",
        help="simulate: stage an array, e.g. a:2:1,2,3,4 (repeatable)",
    )
    p_submit.add_argument("--max-steps", type=int, default=None)
    _add_sim_backend(p_submit)
    p_submit.add_argument(
        "--bench", default=None, metavar="PROGRAM",
        help="run a benchmark program instead of compiling a file",
    )
    p_submit.add_argument("--variant", default="coalesce-all")
    p_submit.add_argument("--size", type=_positive_int, default=16)
    p_submit.add_argument("--rtl", action="store_true",
                          help="include the final RTL in the response")
    p_submit.add_argument(
        "--deadline", type=float, default=None,
        help="per-request deadline in seconds",
    )
    p_submit.add_argument(
        "--inject", default=None, metavar="PLAN",
        help="request-scoped fault plan (for testing degradation)",
    )
    p_submit.add_argument("--retries", type=int, default=5)
    p_submit.add_argument("--backoff-base", type=float, default=0.05)
    p_submit.add_argument("--json", action="store_true")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status", help="query (or shut down) a running compile server"
    )
    p_status.add_argument("--socket", default=None)
    p_status.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to drain and exit",
    )
    p_status.add_argument("--json", action="store_true")
    p_status.set_defaults(func=cmd_status)

    p_cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk compile cache"
    )
    p_cache.add_argument(
        "--dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or "
             "~/.cache/repro-compile)",
    )
    p_cache.add_argument(
        "--clear", action="store_true", help="remove every cache entry"
    )
    p_cache.add_argument(
        "--stats", action="store_true",
        help="print entry/byte counts (the default action)",
    )
    p_cache.add_argument("--json", action="store_true")
    p_cache.set_defaults(func=cmd_cache)

    p_machines = sub.add_parser("machines", help="list machine models")
    p_machines.set_defaults(func=cmd_machines)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
