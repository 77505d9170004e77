"""Tests for the static alias & memory-dependence engine and its
consumers: symbolic address resolution, the verdict lattice, the cached
``memdep`` summary, hazard-check elision, the Figure 5 checks the
coalescer discharges, the two sanitizer checkers built on the engine,
and the bench-side plumbing (phase budgets, elision caching, trace
hooks, ``lint --json``)."""

import json

import pytest

from repro.analysis import find_loops
from repro.analysis.alias import (
    MAY_ALIAS,
    MUST_ALIAS,
    NO_ALIAS,
    AddressExpr,
    Root,
    alias_intervals,
    annotate_memory_roots,
    join,
    memory_dependence,
    provable_alignment,
    resolve_loop_base,
)
from repro.analysis.defuse import def_use_chains
from repro.analysis.induction import find_basic_ivs
from repro.analysis.manager import AnalysisManager
from repro.bench import workloads
from repro.bench.programs import BENCHMARKS
from repro.coalesce import check_hazards, classify_partitions, find_runs
from repro.ir import parse_module
from repro.pipeline import compile_minic
from repro.sanitize import ERROR, WARNING, run_checkers

BLOCKSTAGE_SOURCE = BENCHMARKS["blockstage"].source


def loop_of(text):
    func = next(iter(parse_module(text)))
    loop = [l for l in find_loops(func) if len(l.blocks) == 1][0]
    return func, loop, func.block(loop.header)


# A parameter stream staged byte-by-byte into a frame slot; the load
# run crosses the store and vice versa, so without the alias engine the
# coalescer would need a run-time overlap check between r0 and r2.
STAGED_COPY = """
func f(r0, r1) {
frame buf[64] align 8
entry:
    r2 = frameaddr buf
    jump loop
loop:
    r3 = load.2s [r0]
    store.2 [r2], r3
    r4 = load.2s [r0 + 2]
    store.2 [r2 + 2], r4
    r0 = add r0, 4
    r2 = add r2, 4
    br ltu r0, r1, loop, out
out:
    ret 0
}
"""

# Two distinct frame slots walked in lockstep.
TWO_SLOTS = """
func f(r0, r1) {
frame a[32] align 8
frame b[32] align 8
entry:
    r2 = frameaddr a
    r3 = frameaddr b
    jump loop
loop:
    r4 = load.1u [r2]
    store.1 [r3], r4
    r2 = add r2, 1
    r3 = add r3, 1
    r0 = add r0, 1
    br ltu r0, r1, loop, out
out:
    ret 0
}
"""

# A counted loop: IV enters holding a constant, bound is a constant.
COUNTED_FILL = """
func f(r0) {
frame buf[64] align 8
entry:
    r2 = frameaddr buf
    r3 = 0
    jump loop
loop:
    store.1 [r2], r0
    r2 = add r2, 1
    r3 = add r3, 1
    br ltu r3, 64, loop, out
out:
    ret r3
}
"""


class TestSymbolicResolution:
    def test_frame_root_with_step(self):
        func, loop, _ = loop_of(STAGED_COPY)
        chains = def_use_chains(func)
        ivs = find_basic_ivs(func, loop)
        expr = resolve_loop_base(func, chains, loop, 2, ivs)
        assert expr == AddressExpr(Root("frame", "buf"), offset=0, step=4)

    def test_param_root_with_step(self):
        func, loop, _ = loop_of(STAGED_COPY)
        chains = def_use_chains(func)
        ivs = find_basic_ivs(func, loop)
        expr = resolve_loop_base(func, chains, loop, 0, ivs)
        assert expr == AddressExpr(Root("param", "0"), offset=0, step=4)

    def test_constant_offset_accumulates(self):
        func, loop, _ = loop_of(
            """
            func f(r0, r1) {
            frame buf[16] align 8
            entry:
                r2 = frameaddr buf
                r2 = add r2, 8
                jump loop
            loop:
                store.1 [r2], r0
                r2 = add r2, 1
                r0 = add r0, 1
                br ltu r0, r1, loop, out
            out:
                ret 0
            }
            """
        )
        chains = def_use_chains(func)
        ivs = find_basic_ivs(func, loop)
        expr = resolve_loop_base(func, chains, loop, 2, ivs)
        assert expr == AddressExpr(Root("frame", "buf"), offset=8, step=1)

    def test_loaded_pointer_is_unanalyzable(self):
        func, loop, _ = loop_of(
            """
            func f(r0, r1) {
            entry:
                r2 = load.8u [r0]
                jump loop
            loop:
                store.1 [r2], r0
                r2 = add r2, 1
                r0 = add r0, 1
                br ltu r0, r1, loop, out
            out:
                ret 0
            }
            """
        )
        chains = def_use_chains(func)
        ivs = find_basic_ivs(func, loop)
        expr = resolve_loop_base(func, chains, loop, 2, ivs)
        # A loaded pointer resolves to an index-load root: named by its
        # load site, disjoint from nothing (verdicts against any other
        # root stay may-alias), but stable enough for the shape
        # classifier to call the reference indirect.
        assert expr is not None and expr.root.kind == "load"
        assert expr.step == 1
        other = AddressExpr(Root("load", "elsewhere:0"))
        assert alias_intervals(expr, 0, 1, other, 0, 1) == MAY_ALIAS
        frame = AddressExpr(Root("frame", "slot"))
        assert alias_intervals(expr, 0, 1, frame, 0, 1) == MAY_ALIAS


class TestLattice:
    def test_join(self):
        assert join(NO_ALIAS, NO_ALIAS) == NO_ALIAS
        assert join(MUST_ALIAS, MUST_ALIAS) == MUST_ALIAS
        assert join(NO_ALIAS, MUST_ALIAS) == MAY_ALIAS

    def test_unanalyzable_is_may_alias(self):
        frame = AddressExpr(Root("frame", "a"))
        assert alias_intervals(None, 0, 1, frame, 0, 1) == MAY_ALIAS
        assert alias_intervals(frame, 0, 1, None, 0, 1) == MAY_ALIAS

    @pytest.mark.parametrize(
        "a, b, verdict",
        [
            # Distinct named objects never overlap.
            (Root("frame", "a"), Root("frame", "b"), NO_ALIAS),
            (Root("global", "g"), Root("global", "h"), NO_ALIAS),
            # A caller cannot name our frame.
            (Root("frame", "a"), Root("param", "0"), NO_ALIAS),
            (Root("frame", "a"), Root("global", "g"), NO_ALIAS),
            # Exactly the cases the run-time overlap check exists for.
            (Root("param", "0"), Root("param", "1"), MAY_ALIAS),
            (Root("param", "0"), Root("global", "g"), MAY_ALIAS),
        ],
    )
    def test_root_kind_rules(self, a, b, verdict):
        assert alias_intervals(
            AddressExpr(a, step=1), 0, 1, AddressExpr(b, step=1), 0, 1
        ) == verdict

    def test_same_root_equal_step_disjoint(self):
        # Constant distance 8, per-iteration spans of 1 byte: disjoint on
        # every iteration (the engine's per-iteration soundness scope).
        a = AddressExpr(Root("frame", "buf"), offset=0, step=1)
        b = AddressExpr(Root("frame", "buf"), offset=8, step=1)
        assert alias_intervals(a, 0, 1, b, 0, 1) == NO_ALIAS

    def test_same_root_equal_step_overlap_is_must(self):
        a = AddressExpr(Root("frame", "buf"), offset=0, step=2)
        b = AddressExpr(Root("frame", "buf"), offset=1, step=2)
        assert alias_intervals(a, 0, 2, b, 0, 2) == MUST_ALIAS

    def test_same_root_different_step_is_may(self):
        a = AddressExpr(Root("frame", "buf"), offset=0, step=1)
        b = AddressExpr(Root("frame", "buf"), offset=8, step=2)
        assert alias_intervals(a, 0, 1, b, 0, 1) == MAY_ALIAS

    def test_provable_alignment(self):
        func, _, _ = loop_of(COUNTED_FILL)  # frame buf[64] align 8
        aligned = AddressExpr(Root("frame", "buf"), offset=0, step=8)
        assert provable_alignment(aligned, 0, 8, func)
        assert provable_alignment(aligned, 8, 8, func)
        # Offset off the wide boundary, stride not whole words, roots the
        # function does not control, unknown slots: all unprovable.
        assert not provable_alignment(aligned, 4, 8, func)
        odd_step = AddressExpr(Root("frame", "buf"), offset=0, step=4)
        assert not provable_alignment(odd_step, 0, 8, func)
        param = AddressExpr(Root("param", "0"), offset=0, step=8)
        assert not provable_alignment(param, 0, 8, func)
        ghost = AddressExpr(Root("frame", "nope"), offset=0, step=8)
        assert not provable_alignment(ghost, 0, 8, func)
        assert not provable_alignment(None, 0, 8, func)


class TestMemoryDependenceSummary:
    def test_cross_stream_verdicts(self):
        func, loop, _ = loop_of(STAGED_COPY)
        summary = memory_dependence(func)
        loop_summary = summary.loop(loop.header)
        assert loop_summary is not None
        assert loop_summary.verdict(0, 2) == NO_ALIAS
        # Same stream is not this summary's question.
        assert loop_summary.verdict(0, 0) == MAY_ALIAS
        # Unknown loops/pairs degrade conservatively.
        assert summary.verdict("nowhere", 0, 2) == MAY_ALIAS
        assert loop_summary.verdict(0, 99) == MAY_ALIAS

    def test_refs_and_intervals(self):
        func, loop, _ = loop_of(STAGED_COPY)
        loop_summary = memory_dependence(func).loop(loop.header)
        assert len(loop_summary.refs) == 4
        assert loop_summary.intervals[0] == (0, 4)
        assert loop_summary.intervals[2] == (0, 4)

    def test_two_slots_disjoint_and_no_alias_pairs(self):
        func, loop, _ = loop_of(TWO_SLOTS)
        summary = memory_dependence(func)
        assert summary.verdict(loop.header, 2, 3) == NO_ALIAS
        pairs = summary.no_alias_pairs()
        assert pairs
        assert all(
            left.base_index < right.base_index for left, right in pairs
        )

    def test_constant_trip_count(self):
        func, loop, _ = loop_of(COUNTED_FILL)
        assert memory_dependence(func).loop(loop.header).trip_count == 64

    def test_symbolic_bound_has_no_trip_count(self):
        func, loop, _ = loop_of(STAGED_COPY)
        assert memory_dependence(func).loop(loop.header).trip_count is None

    def test_aligned_query(self):
        func, loop, _ = loop_of(
            """
            func f(r0, r1) {
            frame buf[64] align 8
            entry:
                r2 = frameaddr buf
                jump loop
            loop:
                store.8 [r2], r0
                r2 = add r2, 8
                r0 = add r0, 1
                br ltu r0, r1, loop, out
            out:
                ret 0
            }
            """
        )
        summary = memory_dependence(func)
        assert summary.aligned(loop.header, 2, 0, 8)
        assert not summary.aligned(loop.header, 2, 4, 8)
        assert not summary.aligned("nowhere", 2, 0, 8)

    def test_annotate_memory_roots(self):
        func, loop, _ = loop_of(STAGED_COPY)
        summary = memory_dependence(func)
        tagged = annotate_memory_roots(func, summary)
        # The two frame-slot stores are tagged; the param loads are not
        # (a no-alias verdict against a parameter asserts nothing about
        # which object the parameter points into).
        assert tagged == 2
        notes = [
            instr.notes["memdep_root"]
            for instr in func.block(loop.header).instrs
            if "memdep_root" in instr.notes
        ]
        assert len(notes) == 2
        for note in notes:
            assert note["kind"] == "frame"
            assert note["name"] == "buf"
            assert note["loop"] == loop.header
            assert note["width"] == 2


class TestAnalysisManager:
    def test_memdep_cached(self):
        func = next(iter(parse_module(TWO_SLOTS)))
        manager = AnalysisManager()
        first = manager.memdep(func)
        assert manager.memdep(func) is first
        assert manager.hits == 1 and manager.misses == 1

    def test_function_pass_honours_declaration(self):
        from repro.machine import get_machine
        from repro.opt.pass_manager import PassContext, function_pass

        func = next(iter(parse_module(TWO_SLOTS)))
        ctx = PassContext(get_machine("alpha"))
        summary = ctx.analyses.memdep(func)

        @function_pass
        def untouched_pass(f, c):
            return False

        untouched_pass(func, ctx)
        assert ctx.analyses.memdep(func) is summary  # no change: keep all

        @function_pass
        def rewriting_pass(f, c):
            return True

        assert rewriting_pass.__name__ == "rewriting_pass"
        rewriting_pass(func, ctx)
        assert ctx.analyses.memdep(func) is not summary

    def test_guard_stage_retires_analyses(self):
        from repro.machine import get_machine
        from repro.opt.pass_manager import PassContext, function_pass
        from repro.resilience.transaction import PassGuard

        module = parse_module(TWO_SLOTS)
        func = next(iter(module))
        machine = get_machine("alpha")
        ctx = PassContext(machine)
        guard = PassGuard(module, machine, policy="skip")

        @function_pass
        def rewriting_pass(f, c):
            return True

        def failing_pass():
            raise RuntimeError("boom")

        summary = ctx.analyses.memdep(func)
        guard.stage(ctx, "untouched", lambda: False, func=func)
        assert ctx.analyses.memdep(func) is summary
        # A completed stage leaves retiring to its pass: a bare True
        # from a thunk that is no declared pass retires nothing...
        guard.stage(ctx, "bare", lambda: True, func=func)
        assert ctx.analyses.memdep(func) is summary
        # ...while a declared pass that changed the function does.
        guard.stage(ctx, "rewriting", lambda: rewriting_pass(func, ctx),
                    func=func)
        summary = ctx.analyses.memdep(func)
        assert summary is not None and ctx.analyses.misses == 2
        # The guard retires them itself after a rollback...
        assert guard.stage(ctx, "failing", failing_pass, func=func) is None
        summary = ctx.analyses.memdep(func)
        assert ctx.analyses.misses == 3
        # ...and after a module stage.
        guard.stage(ctx, "module-wide", lambda: None)
        ctx.analyses.memdep(func)
        assert ctx.analyses.misses == 4


class TestHazardOracle:
    def _load_run(self, func, loop, block):
        partitions = classify_partitions(func, loop, block)
        runs = [
            run for run in find_runs(partitions, 4)
            if not run.is_store
        ]
        assert runs
        return runs[0], partitions

    def test_without_oracle_pair_needs_runtime_check(self):
        func, loop, block = loop_of(STAGED_COPY)
        run, partitions = self._load_run(func, loop, block)
        result = check_hazards(block, run, partitions)
        assert result.safe
        assert result.alias_pairs == {(0, 2)}
        assert result.elided_pairs == set()

    def test_oracle_elides_proven_disjoint_pair(self):
        func, loop, block = loop_of(STAGED_COPY)
        run, partitions = self._load_run(func, loop, block)
        oracle = memory_dependence(func).loop(loop.header)
        result = check_hazards(block, run, partitions, oracle=oracle)
        assert result.safe
        assert result.alias_pairs == set()
        assert result.elided_pairs == {(0, 2)}


class TestCheckElision:
    def test_blockstage_elides_alias_and_alignment_checks(self):
        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True,
        )
        assert program.coalesced_loops >= 1
        assert program.checks_elided >= 1
        kinds = {
            kind
            for report in program.coalesce_reports
            for kind, _ in report.elisions
        }
        assert "alias" in kinds
        assert "alignment" in kinds

    def test_pointer_kernel_keeps_its_checks(self):
        # dot's streams are both pointer parameters: nothing is provable,
        # nothing may be elided.
        dot = BENCHMARKS["dotproduct"].source
        program = compile_minic(
            dot, "alpha", "coalesce-all", force_coalesce=True
        )
        assert program.coalesced_loops >= 1
        assert program.checks_elided == 0

    def test_versioned_divisibility_discharged_statically(self):
        # The inner loops count a constant 64 iterations, so the "n % k"
        # preheader check of versioned_divisibility is decidable at
        # compile time.
        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True, versioned_divisibility=True,
        )
        kinds = {
            kind
            for report in program.coalesce_reports
            for kind, _ in report.elisions
        }
        assert "divisibility" in kinds

    @pytest.mark.parametrize("machine", ["alpha", "m88100", "m68030"])
    def test_elision_never_changes_behaviour(self, machine):
        # Differential matrix: with and without static elision the
        # simulated result AND the memory traffic must be bit-identical —
        # the engine removes checks, never accesses.
        pixels = 128
        src = workloads.lcg_bytes(pixels, seed=7)
        expected = workloads.ref_blockstage(src, pixels)
        observed = {}
        for elide in (True, False):
            program = compile_minic(
                BLOCKSTAGE_SOURCE, machine, "coalesce-all",
                force_coalesce=True, elide_checks=elide,
            )
            sim = program.simulator()
            a = sim.alloc_array("src", bytes(src))
            value = sim.call("blockstage", a, pixels)
            stats = sim.engine.stats
            observed[elide] = (
                value, stats.load_count, stats.store_count
            )
        assert observed[True][0] == expected
        assert observed[True] == observed[False]

    def test_fault_injection_falls_back_to_full_checks(self):
        # A chaos run must exercise the complete Figure 5 chain and the
        # original-loop fallback, so elision auto-disables whenever
        # faults are being injected — even with elide_checks left True.
        from repro.resilience.faults import FaultPlan

        pixels = 128
        src = workloads.lcg_bytes(pixels, seed=11)
        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True, elide_checks=True,
            faults=FaultPlan.parse("licm=raise"),
            on_pass_failure="skip",
        )
        assert program.checks_elided == 0
        sim = program.simulator()
        a = sim.alloc_array("src", bytes(src))
        assert sim.call("blockstage", a, pixels) == \
            workloads.ref_blockstage(src, pixels)


class TestAliasCheckers:
    def _annotated(self, **overrides):
        return compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True, sanitize=True, **overrides
        )

    def test_alias_consistency_passes_on_honest_module(self):
        program = self._annotated()
        sink = run_checkers(
            program.module, program.machine,
            checks=["alias-consistency"],
        )
        assert not [d for d in sink.sorted() if d.severity == ERROR]

    def test_alias_consistency_catches_planted_lie(self):
        program = self._annotated()
        planted = 0
        for func in program.module:
            for block in func.blocks:
                for instr in block.instrs:
                    note = instr.notes.get("memdep_root")
                    if not note or note["kind"] != "frame":
                        continue
                    # Claim the access lands in the *other* slot.
                    note["name"] = (
                        "out" if note["name"] == "tile" else "tile"
                    )
                    planted += 1
        assert planted
        sink = run_checkers(
            program.module, program.machine,
            checks=["alias-consistency"],
        )
        errors = [d for d in sink.sorted() if d.severity == ERROR]
        assert errors
        assert all(d.check == "alias-consistency" for d in errors)

    def test_redundant_runtime_check_flags_kept_checks(self):
        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True, elide_checks=False,
        )
        sink = run_checkers(
            program.module, program.machine,
            checks=["redundant-runtime-check"],
        )
        warnings = [d for d in sink.sorted() if d.severity == WARNING]
        assert warnings
        assert all(
            d.check == "redundant-runtime-check" for d in warnings
        )

    def test_redundant_runtime_check_silent_after_elision(self):
        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True, elide_checks=True,
        )
        sink = run_checkers(
            program.module, program.machine,
            checks=["redundant-runtime-check"],
        )
        assert not sink.sorted()


class TestTraceHook:
    def test_hook_sees_every_memory_access(self):
        program = compile_minic(BLOCKSTAGE_SOURCE, "alpha", "vpo")
        events = []

        def hook(func_name, instr, addr, frame_slots, global_addrs):
            events.append((func_name, addr))

        sim = program.simulator(trace_hook=hook)
        src = workloads.lcg_bytes(128, seed=3)
        a = sim.alloc_array("src", bytes(src))
        sim.call("blockstage", a, 128)
        assert events
        assert len(events) == sim.engine.stats.memory_accesses
        assert all(name == "blockstage" for name, _ in events)


class TestElisionCaching:
    def test_cache_round_trip_preserves_elisions(self):
        from repro.bench.cache import revive_program, serialize_program

        program = compile_minic(
            BLOCKSTAGE_SOURCE, "alpha", "coalesce-all",
            force_coalesce=True,
        )
        assert program.checks_elided >= 1
        payload = json.loads(json.dumps(serialize_program(program)))
        revived = revive_program(
            payload, program.machine, program.config
        )
        assert revived is not None and revived.cache_hit
        assert revived.checks_elided == program.checks_elided
        assert [r.elisions for r in revived.coalesce_reports] == \
            [r.elisions for r in program.coalesce_reports]


class TestPhaseBudgets:
    def test_parse(self):
        from repro.bench.runner import parse_phase_budgets

        assert parse_phase_budgets([]) == {}
        assert parse_phase_budgets(
            ["cleanup=0.3", "global_const_prop=0.2,licm=1"]
        ) == {"cleanup": 0.3, "global_const_prop": 0.2, "licm": 1.0}
        assert parse_phase_budgets([" cleanup = 2 ,"]) == {"cleanup": 2.0}

    @pytest.mark.parametrize(
        "spec", ["cleanup", "cleanup=", "=3", "cleanup=fast", "cleanup=0",
                 "cleanup=-1"],
    )
    def test_parse_rejects_bad_specs(self, spec):
        from repro.bench.runner import parse_phase_budgets

        with pytest.raises(ValueError, match="bad phase budget"):
            parse_phase_budgets([spec])

    @staticmethod
    def _node(name, seconds, *children):
        tree = {"name": name, "calls": 1, "seconds": seconds,
                "self_seconds": seconds - sum(c["seconds"] for c in children)}
        if children:
            tree["children"] = list(children)
        return tree

    def _record(self, *phases):
        """A bench record whose tree compiled ``phases``; with none, a
        cache hit's, which holds no compile."""
        if not phases:
            return {"compile_cache_hit": True,
                    "timing": self._node("cell", 1.0)}
        return {"compile_cache_hit": False, "timing": self._node(
            "cell", 2.0, self._node("compile", 1.0, *phases))}

    def test_check_aggregates_across_records(self):
        from repro.bench.runner import check_phase_budgets

        node = self._node
        records = [
            self._record(node("cleanup", 0.2,
                              node("global_const_prop", 0.05)),
                         node("licm", 0.1)),
            self._record(node("cleanup", 0.3)),
            self._record(),  # a cache hit measured no compile
            {"compile_cache_hit": False, "timing": None},  # a failed cell
        ]
        assert check_phase_budgets(records, {"cleanup": 0.6}) == []
        assert check_phase_budgets(
            records, {"global_const_prop": 0.06}) == []
        overruns = check_phase_budgets(records, {"cleanup": 0.4})
        assert len(overruns) == 1
        assert "cleanup" in overruns[0] and "0.4" in overruns[0]

    def test_budgeted_phase_that_never_ran_is_an_overrun(self):
        from repro.bench.runner import check_phase_budgets

        overruns = check_phase_budgets(
            [self._record(self._node("cleanup", 0.1)), self._record()],
            {"global_const_prop": 5},
        )
        assert len(overruns) == 1
        assert "never ran" in overruns[0]

    def test_budget_of_a_run_that_compiled_nothing_fails_unenforceable(
        self
    ):
        from repro.bench.runner import check_phase_budgets

        overruns = check_phase_budgets(
            [self._record(), self._record()],
            {"cleanup": 12, "global_const_prop": 6},
        )
        assert len(overruns) == 2
        for overrun in overruns:
            assert "cannot be enforced" in overrun
            assert "cache hit" in overrun
            assert "never ran" not in overrun


class TestLintJson:
    def test_lint_json_document(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "blockstage.c"
        path.write_text(BLOCKSTAGE_SOURCE)
        assert main([
            "lint", str(path), "--config", "coalesce-all",
            "--force-coalesce",
            "--checks", "redundant-runtime-check", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["machine"] == "alpha"
        assert isinstance(payload["diagnostics"], list)
        assert not [
            d for d in payload["diagnostics"] if d["severity"] == "error"
        ]
        assert isinstance(payload["counts"], dict)
