"""The driving pass: ``CoalesceMemoryAccesses`` (Figure 2).

For every single-block loop (the unroller has already produced the
multiple-references-per-iteration shape):

1. partition the memory references and compute relative offsets;
2. find candidate runs and screen each with the hazard analysis,
   collecting the partition pairs that need run-time alias checks;
3. build LCOPY — a copy of the loop with the wide references inserted;
4. schedule both lowered bodies; keep LCOPY only if it is faster (or the
   caller forces application, which the evaluation uses to measure the
   unprofitable cases the paper reports for the 68030);
5. splice LCOPY in behind the run-time alias/alignment check chain, the
   original loop remaining as the safe fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.loops import Loop, find_loops
from repro.analysis.tripcount import analyze_trip_count
from repro.coalesce.hazards import check_hazards, check_indirect_hazards
from repro.coalesce.partition import (
    Partition,
    Run,
    classify_partitions,
    find_indirect_runs,
    find_runs,
)
from repro.coalesce.runtime_checks import (
    CheckPlan,
    IndexProbe,
    insert_runtime_checks,
)
from repro.coalesce.profitability import (
    estimate_block_cycles,
    shape_check_overhead,
)
from repro.coalesce.shapes import AFFINE, STRIDED, classify_partition
from repro.coalesce.widen import apply_plans, widen_run
from repro.ir.function import BasicBlock, Function
from repro.opt.pass_manager import PassContext, function_pass


@dataclass
class CoalesceReport:
    """What happened to one loop."""

    function: str
    loop_header: str
    runs_found: int = 0
    runs_safe: int = 0
    rejections: List[Tuple[str, str]] = field(default_factory=list)
    alias_pairs: int = 0
    # Figure 5 checks the alias engine discharged statically, and a
    # (kind, why) line per elision.
    checks_elided: int = 0
    elisions: List[Tuple[str, str]] = field(default_factory=list)
    # Per-shape breakdown: lattice kind -> candidate runs found /
    # applied, and check kind -> statically discharged checks.
    shape_attempts: Dict[str, int] = field(default_factory=dict)
    shape_wins: Dict[str, int] = field(default_factory=dict)
    shape_elisions: Dict[str, int] = field(default_factory=dict)
    cycles_original: int = 0
    cycles_coalesced: int = 0
    applied: bool = False
    skipped_reason: str = ""
    lcopy_label: str = ""

    @property
    def predicted_speedup(self) -> float:
        if not self.cycles_coalesced:
            return 1.0
        return self.cycles_original / self.cycles_coalesced

    def __repr__(self) -> str:
        status = "applied" if self.applied else (
            f"skipped ({self.skipped_reason})"
        )
        return (
            f"<CoalesceReport {self.function}/{self.loop_header}: "
            f"{self.runs_safe}/{self.runs_found} runs, "
            f"{self.cycles_original}->{self.cycles_coalesced} cycles, "
            f"{status}>"
        )


def coalescible_widths(machine) -> tuple:
    """Wide access widths available for coalescing on ``machine``.

    Wider is better, but smaller supported widths pick up leftovers —
    e.g. on the Alpha, two trailing shorts still coalesce into one
    longword even when no quadword tile exists (the [Alex93] wide-bus
    lineage of the technique).
    """
    widths = set(machine.load_widths) & set(machine.store_widths)
    return tuple(sorted((w for w in widths if w >= 2), reverse=True))


@function_pass
def coalesce_function(
    func: Function,
    ctx: PassContext,
    include_stores: bool = True,
    force: bool = False,
    divisibility_factor: Optional[int] = None,
    unaligned_loads: bool = False,
    elide_checks: bool = True,
) -> List[CoalesceReport]:
    """Run memory access coalescing on every eligible loop of ``func``.

    ``include_stores=False`` restricts the transformation to loads (the
    paper's Table II/III column 4).  ``force=True`` bypasses the
    profitability comparison (used to reproduce the paper's 68030 numbers,
    where the transformation was applied and measured to be a loss).
    ``divisibility_factor`` adds the paper's ``n % k`` preheader check for
    pipelines that version instead of emitting a remainder prologue.
    ``unaligned_loads`` rewrites load runs with the machine's unaligned
    wide accesses (Figure 3's UnAlignedWideType) — two ``ldq_u``-style
    loads plus shifts instead of one aligned load, but no run-time
    alignment check and therefore no fallback risk.

    ``elide_checks`` lets the static alias engine discharge Figure 5
    checks it can prove: overlap checks for partition pairs proved
    disjoint, alignment checks for provably aligned frame-slot streams,
    divisibility checks for constant trip counts.  With it off the full
    check chain is emitted (the chaos/fault-injection fallback), but
    every dischargeable check is still *marked* so the
    ``redundant-runtime-check`` lint can flag it.
    """
    machine = ctx.machine
    use_unaligned = unaligned_loads and machine.has_unaligned_wide
    reports: List[CoalesceReport] = []
    # One engine pass over the pre-coalescing function serves every loop
    # (check insertion only adds preheader blocks; the analyzed loop
    # bodies are untouched).
    summary = ctx.analyses.memdep(func)

    for loop in find_loops(func):
        if len(loop.blocks) != 1 or loop.header not in loop.latches:
            continue
        report = CoalesceReport(func.name, loop.header)
        oracle = summary.loop(loop.header)
        block = func.block(loop.header)
        partitions = classify_partitions(func, loop, block)
        for partition in partitions.values():
            expr = (
                oracle.base_exprs.get(partition.base.index)
                if oracle is not None
                else None
            )
            partition.shape = classify_partition(partition, expr)
        runs = find_runs(
            partitions,
            coalescible_widths(machine),
            include_stores=include_stores,
        )
        # A dense tile inherits the stream's shape: a run that walks a
        # strided or affine stream still answers to that shape's
        # generalized Figure 5 obligations.
        for run in runs:
            if run.partition.shape.kind in (STRIDED, AFFINE):
                run.shape = run.shape.join(run.partition.shape)
        runs += find_indirect_runs(
            block, partitions, coalescible_widths(machine)
        )
        report.runs_found = len(runs)
        for run in runs:
            report.shape_attempts[run.shape.kind] = (
                report.shape_attempts.get(run.shape.kind, 0) + 1
            )
        if not runs:
            report.skipped_reason = "no coalescible runs"
            reports.append(report)
            continue

        accepted: List[Run] = []
        alias_keys: Set[Tuple[int, int]] = set()
        elided_keys: Set[Tuple[int, int]] = set()
        for run in runs:
            if run.indirect is not None:
                hazard = check_indirect_hazards(block, run)
            else:
                hazard = check_hazards(block, run, partitions, oracle)
            if hazard.safe:
                accepted.append(run)
                alias_keys |= hazard.alias_pairs
                elided_keys |= hazard.elided_pairs
            else:
                report.rejections.append((repr(run), hazard.reason))
        elided_keys -= alias_keys  # a pair some run still needs stays

        # Keys the engine could discharge; with elision off they are
        # emitted anyway but marked for the redundant-runtime-check lint.
        dischargeable: Set[Tuple] = set()

        def describe(a: int, b: int) -> str:
            return (
                f"r{a} ({oracle.base_exprs.get(a)}) never overlaps "
                f"r{b} ({oracle.base_exprs.get(b)})"
            )

        # Elisions counted on the report only if this loop is actually
        # transformed — a skipped loop emits no checks to elide.
        pending_elisions: List[Tuple[str, str]] = []
        if elide_checks:
            for a, b in sorted(elided_keys):
                pending_elisions.append(("alias", describe(a, b)))
        else:
            for a, b in sorted(elided_keys):
                dischargeable.add(("alias", a, b))
            alias_keys |= elided_keys

        report.runs_safe = len(accepted)
        report.alias_pairs = len(alias_keys)
        if not accepted:
            report.skipped_reason = "all runs rejected by hazard analysis"
            reports.append(report)
            continue

        divisibility = divisibility_factor
        if (
            divisibility is not None
            and oracle is not None
            and oracle.trip_count is not None
            and oracle.trip_count % divisibility == 0
        ):
            if elide_checks:
                pending_elisions.append((
                    "divisibility",
                    f"{oracle.trip_count} iterations divide by "
                    f"{divisibility}",
                ))
                divisibility = None
            else:
                dischargeable.add(("divisibility",))

        trip = analyze_trip_count(func, loop)
        if trip is None:
            # The adjacency probe scans ``elems × trips`` index
            # elements; with no computable trip count the indirect runs
            # drop out (dense runs may still stand on their own).
            for run in [r for r in accepted if r.indirect is not None]:
                report.rejections.append(
                    (repr(run), "adjacency probe needs a trip count")
                )
            accepted = [r for r in accepted if r.indirect is None]
            report.runs_safe = len(accepted)
            if not accepted:
                report.skipped_reason = (
                    "all runs rejected by hazard analysis"
                )
                reports.append(report)
                continue
        if (alias_keys or divisibility) and trip is None:
            report.skipped_reason = (
                "needs run-time checks but the trip count is opaque"
            )
            reports.append(report)
            continue

        # Build candidate LCOPYs and pick the best profitable subset of
        # runs: all of them, loads only, or stores only.  (On the 88100,
        # e.g., load coalescing wins while store coalescing loses; a
        # whole-or-nothing decision would forfeit the load win.)
        report.cycles_original = estimate_block_cycles(func, block, machine)

        def widen(run: Run):
            # The unaligned (ldq_u-pair) form exists only at the full
            # word width — the Alpha has no sub-word unaligned loads.
            if (
                use_unaligned
                and not run.is_store
                and run.indirect is None
                and run.wide_width == machine.word_bytes
            ):
                from repro.coalesce.widen import widen_run_unaligned

                return widen_run_unaligned(func, run)
            return widen_run(func, run, machine)

        def build_lcopy(runs_subset: List[Run]) -> BasicBlock:
            label = func.new_label(f"{loop.header}.co")
            copy = BasicBlock(label, [i.clone() for i in block.instrs])
            copy.retarget(loop.header, label)
            apply_plans(copy, [widen(r) for r in runs_subset])
            return copy

        subsets = [accepted]
        if not force:
            # The paper's whole-loop decision generalized: also consider
            # loads-only and stores-only (on the 88100, loads win while
            # stores lose; all-or-nothing would forfeit the load win).
            loads_only = [r for r in accepted if not r.is_store]
            stores_only = [r for r in accepted if r.is_store]
            if loads_only and loads_only != accepted:
                subsets.append(loads_only)
            if stores_only and stores_only != accepted:
                subsets.append(stores_only)

        best = None
        for subset in subsets:
            lcopy = build_lcopy(subset)
            # The adjacency probes' O(n) scan is charged per iteration
            # on top of the scheduled body — the honest price of the
            # indirect shape's run-time machinery.
            cycles = estimate_block_cycles(
                func, lcopy, machine
            ) + shape_check_overhead(subset, machine)
            if best is None or cycles < best[2]:
                best = (subset, lcopy, cycles)

        # Greedy refinement: drop any run whose removal makes the
        # schedule strictly faster (e.g. a leftover two-byte tile whose
        # wide load + extracts merely break even against two narrow
        # loads, while costing an extra alignment check).  Under
        # ``force`` — the evaluation's "measure the transformation even
        # if unprofitable" mode — only the sub-word leftover tiles (this
        # implementation's extension beyond the paper) may be dropped;
        # full-width runs are applied unconditionally.
        def removable(run: Run) -> bool:
            return not force or run.wide_width < machine.word_bytes

        improved = True
        while improved and len(best[0]) > 1:
            improved = False
            for run in list(best[0]):
                if not removable(run):
                    continue
                reduced = [r for r in best[0] if r is not run]
                lcopy = build_lcopy(reduced)
                cycles = estimate_block_cycles(
                    func, lcopy, machine
                ) + shape_check_overhead(reduced, machine)
                # Ties also drop the run: equal speed with one fewer
                # wide reference means one fewer preheader check.
                if cycles <= best[2]:
                    best = (reduced, lcopy, cycles)
                    improved = True
                    break

        accepted, lcopy, report.cycles_coalesced = best
        lcopy_label = lcopy.label
        if report.cycles_coalesced >= report.cycles_original and not force:
            report.skipped_reason = (
                f"not profitable on {machine.name} "
                f"({report.cycles_coalesced} >= "
                f"{report.cycles_original} cycles)"
            )
            reports.append(report)
            continue
        report.runs_safe = len(accepted)

        # Alignment checks for the surviving runs, minus those the engine
        # proves (a frame-slot stream whose slot alignment, start offset
        # and step all land on wide boundaries).  Provability is a
        # function of the dedup key, so eliding per key is sound.
        alignments: List[Tuple] = []
        seen_align = set()
        for run in accepted:
            if run.indirect is not None:
                # The synthetic base is loop-varying; the gather's
                # alignment facts are the probe's business below.
                continue
            if not (
                run.is_store
                or not use_unaligned
                or run.wide_width != machine.word_bytes
            ):
                continue
            base_index = run.partition.base.index
            key = (
                base_index, run.start_disp % run.wide_width, run.wide_width
            )
            if key in seen_align:
                continue
            seen_align.add(key)
            provable = summary.aligned(
                loop.header, base_index, run.start_disp, run.wide_width
            )
            if provable and elide_checks:
                pending_elisions.append((
                    "alignment",
                    f"r{base_index}+{run.start_disp} "
                    f"({oracle.base_exprs.get(base_index)}) is "
                    f"{run.wide_width}-byte aligned",
                ))
                continue
            if provable:
                dischargeable.add(("alignment",) + key)
            alignments.append(
                (run.partition.base, run.start_disp, run.wide_width)
            )

        # Stride divisibility (generalized Figure 5): a strided run's
        # alignment proof only carries across iterations because the
        # pointer advances by whole wide words.  The step is a compile-
        # time constant and run discovery already enforced the fact, so
        # the check is always statically dischargeable; with elision
        # off it is emitted as a (trivially true) marked test.
        strides: List[Tuple[int, int]] = []
        seen_strides = set()
        for run in accepted:
            if run.indirect is not None:
                continue
            covered = len({r.disp for r in run.refs}) * run.width
            if run.shape.kind != STRIDED and covered >= run.wide_width:
                continue  # a dense tile on a unit/affine stream
            key = (run.partition.step, run.wide_width)
            if key in seen_strides:
                continue
            seen_strides.add(key)
            if elide_checks:
                pending_elisions.append((
                    "stride-divisibility",
                    f"step {run.partition.step} advances whole "
                    f"{run.wide_width}-byte words",
                ))
                continue
            dischargeable.add(("stride",) + key)
            strides.append(key)

        # One adjacency probe per distinct gather family; each chunk
        # offset residue contributes one lead-index modulus check, and
        # a provably aligned table base drops its alignment test.
        probes: List[IndexProbe] = []
        probe_by_key: Dict[Tuple[int, int, int], IndexProbe] = {}
        for run in accepted:
            info = run.indirect
            if info is None:
                continue
            key = (
                info.x_base.index, info.index_base.index, run.wide_width
            )
            probe = probe_by_key.get(key)
            if probe is None:
                check_x = True
                if summary.aligned(
                    loop.header, info.x_base.index, 0, run.wide_width
                ):
                    if elide_checks:
                        pending_elisions.append((
                            "alignment",
                            f"gather table r{info.x_base.index} is "
                            f"{run.wide_width}-byte aligned",
                        ))
                        check_x = False
                    else:
                        dischargeable.add((
                            "alignment", info.x_base.index, 0,
                            run.wide_width,
                        ))
                probe = IndexProbe(
                    x_base=info.x_base,
                    index_base=info.index_base,
                    index_width=info.index_width,
                    index_signed=info.index_signed,
                    elems_per_iter=info.elems_per_iter,
                    count=info.count,
                    wide=run.wide_width,
                    check_x_alignment=check_x,
                )
                probe_by_key[key] = probe
                probes.append(probe)
            # With adjacency holding, one modulus check per residue
            # class of the chunk's element position covers every
            # iteration's chunks at that offset.
            residue = (info.first_disp // info.index_width) % info.count
            covered = {
                (d // probe.index_width) % probe.count
                for d in probe.mod_disps
            }
            if residue not in covered:
                probe.mod_disps = probe.mod_disps + (info.first_disp,)

        # Commit: splice LCOPY and the run-time checks in.
        func.blocks.insert(func.block_index(loop.header) + 1, lcopy)
        plan = CheckPlan(
            alignments=alignments,
            alias_pairs=[
                (partitions[a], partitions[b]) for a, b in sorted(alias_keys)
            ],
            trip=trip,
            divisibility=divisibility,
            strides=strides,
            probes=probes,
            dischargeable=frozenset(dischargeable),
        )
        insert_runtime_checks(func, loop, lcopy_label, plan)
        report.elisions.extend(pending_elisions)
        report.checks_elided = len(report.elisions)
        for kind, _ in pending_elisions:
            report.shape_elisions[kind] = (
                report.shape_elisions.get(kind, 0) + 1
            )
        for run in accepted:
            report.shape_wins[run.shape.kind] = (
                report.shape_wins.get(run.shape.kind, 0) + 1
            )
        report.applied = True
        report.lcopy_label = lcopy_label
        reports.append(report)
    return reports
