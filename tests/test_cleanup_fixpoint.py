"""The cleanup fixpoint and the passes it runs: settled passes are skipped
exactly, passes retire their own analyses, the linear local CSE, the
bitmask def-use chains (whole and restricted to a register subset) and
copy propagation with liveness on demand agree with the versions they
replaced, dataflow nobody reads is never computed, no constant lands in
a register-only slot, and compiles do not depend on the hash seed."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.pipeline
from repro.analysis.liveness import liveness
from repro.analysis.reaching import reaching_definitions
from repro.analysis.defuse import def_use_chains
from repro.bench.harness import COLUMN_CONFIGS, COLUMNS, machine_overrides
from repro.bench.programs import BENCHMARKS
from repro.coalesce import coalesce_function
from repro.errors import SimulationError
from repro.frontend import compile_source
from repro.ir import format_function, format_module, parse_module
from repro.ir.function import Function
from repro.ir.rtl import (
    BinOp,
    Call,
    CondJump,
    Const,
    Extract,
    FrameAddr,
    Jump,
    Load,
    Mov,
    Reg,
    Ret,
    Store,
    UnOp,
)
from repro.machine import get_machine
from repro.opt import (
    loop_invariant_code_motion,
    strength_reduce,
    unroll_function,
)
from repro.opt.copy_prop import _rematerialize_increments, copy_propagate
from repro.opt.cse import _expression_key, local_cse
from repro.opt.global_const import constant_reachable, global_const_prop
from repro.opt.pass_manager import (
    PassContext,
    cleanup,
    function_pass,
    reported_change,
)
from repro.pipeline import compile_minic
from repro.resilience.transaction import PassGuard

MACHINES = ("alpha", "m88100", "m68030")
PROGRAMS = tuple(BENCHMARKS)
ROOT = Path(__file__).resolve().parent.parent

#: (module, attribute) of the seven passes ``cleanup`` runs, in order.
CLEANUP_PASSES = (
    ("repro.opt.simplify_cfg", "simplify_cfg"),
    ("repro.opt.constant_fold", "constant_fold"),
    ("repro.opt.copy_prop", "copy_propagate"),
    ("repro.opt.global_const", "global_const_prop"),
    ("repro.opt.cse", "local_cse"),
    ("repro.opt.peephole", "peephole"),
    ("repro.opt.dce", "dead_code_elimination"),
)
CLEANUP_NAMES = tuple(name for _, name in CLEANUP_PASSES)


def compile_args(program, machine, variant, **extra):
    preset, overrides = COLUMN_CONFIGS[variant]
    merged = dict(machine_overrides(machine))
    merged.update(overrides)
    merged.update(extra)
    return BENCHMARKS[program].source, machine, preset, merged


def compiled_rtl(program, machine, variant):
    source, machine, preset, overrides = compile_args(
        program, machine, variant
    )
    return format_module(
        compile_minic(source, machine, preset, **overrides).module
    )


def plain_cleanup(func, ctx):
    """A fixpoint loop that skips nothing: every round runs every pass.

    The passes are looked up in their modules on every call, so a
    wrapper installed there sees each one."""
    passes = [getattr(sys.modules[module], name)
              for module, name in CLEANUP_PASSES]
    ever_changed = False
    for _ in range(20):
        changed = False
        for pass_fn in passes:
            if reported_change(pass_fn(func, ctx)):
                changed = True
        ever_changed = ever_changed or changed
        if not changed:
            break
    return ever_changed


# -- the quadratic versions the rewrites replaced -----------------------------


def _key_reads(key, reg_indices):
    for part in key:
        if (
            isinstance(part, tuple)
            and len(part) == 2
            and part[0] == "r"
            and part[1] in reg_indices
        ):
            return True
    return False


def reference_local_cse(func):
    """Local CSE rescanning the whole table at every definition."""
    changed = False
    for block in func.blocks:
        available = {}
        new_instrs = []
        for instr in block.instrs:
            key = _expression_key(instr)
            if key is not None and any(
                _key_reads(key, {r.index}) for r in instr.defs()
            ):
                new_instrs.append(instr)
                defined = {r.index for r in instr.defs()}
                stale = [
                    k
                    for k, result in available.items()
                    if result.index in defined or _key_reads(k, defined)
                ]
                for k in stale:
                    available.pop(k, None)
                continue
            if key is not None and key in available:
                replacement = Mov(instr.defs()[0], available[key])
                new_instrs.append(replacement)
                changed = True
                instr = replacement
                key = None
            else:
                new_instrs.append(instr)
            defined = {r.index for r in instr.defs()}
            if defined:
                stale = [
                    k
                    for k, result in available.items()
                    if result.index in defined or _key_reads(k, defined)
                ]
                for k in stale:
                    available.pop(k, None)
            if isinstance(instr, (Store, Call)):
                for k in [k for k in available if k[0] == "load"]:
                    available.pop(k)
            if key is not None and not _key_reads(key, defined):
                available[key] = instr.defs()[0]
        block.instrs = new_instrs
    return changed


def reference_def_use(func):
    """Def-use chains regrouping every site reaching every block."""
    reaching = reaching_definitions(func)
    uses_of, defs_for = {}, {}
    for label, bits in reaching.reach_in_bits.items():
        grouped = {}
        number = 0
        while bits:
            if bits & 1:
                site = reaching.sites[number]
                instr = func.block(site[0]).instrs[site[1]]
                for reg in instr.defs():
                    grouped.setdefault(reg.index, []).append(site)
            bits >>= 1
            number += 1
        current = {reg: tuple(sites) for reg, sites in grouped.items()}
        for index, instr in enumerate(func.block(label).instrs):
            seen = set()
            for reg in instr.uses():
                if reg.index in seen:
                    continue
                seen.add(reg.index)
                sites = current.get(reg.index, ())
                use = (label, index, reg.index)
                defs_for[use] = sites
                for site in sites:
                    uses_of.setdefault(site, []).append(use)
            for reg in instr.defs():
                current[reg.index] = ((label, index),)
    return uses_of, defs_for


def _reference_propagate_in_block(block):
    changed = False
    copies = {}  # dst reg index -> current value

    def invalidate(reg_index):
        copies.pop(reg_index, None)
        for key in [
            k
            for k, v in copies.items()
            if isinstance(v, Reg) and v.index == reg_index
        ]:
            copies.pop(key)

    for instr in block.instrs:
        mapping = {}
        for reg in instr.uses():
            if reg.index in copies:
                mapping[reg] = copies[reg.index]
        for reg in instr.register_only_uses():
            if isinstance(mapping.get(reg), Const):
                del mapping[reg]
        if mapping:
            before = repr(instr)
            instr.substitute_uses(mapping)
            if repr(instr) != before:
                changed = True
        for reg in instr.defs():
            invalidate(reg.index)
        if isinstance(instr, Mov):
            source = instr.src
            if isinstance(source, Const):
                copies[instr.dst.index] = source
            elif isinstance(source, Reg) and (
                source.index != instr.dst.index
            ):
                if source.index < instr.dst.index:
                    copies[instr.dst.index] = source
                else:
                    copies[source.index] = instr.dst
    return changed


def _reference_coalesce_copies(func):
    info = liveness(func)
    changed = False
    for block in func.blocks:
        live_after = info.live_after(func, block.label)
        producer_of = {}
        uses_after_def = {}
        for index, instr in enumerate(block.instrs):
            if (
                isinstance(instr, Mov)
                and isinstance(instr.src, Reg)
                and instr.src.index in producer_of
                and uses_after_def.get(instr.src.index, 0) == 0
                and instr.src.index not in live_after[index]
                and instr.dst.index != instr.src.index
            ):
                producer_index = producer_of[instr.src.index]
                producer = block.instrs[producer_index]
                conflict = False
                for middle in block.instrs[producer_index + 1:index]:
                    regs = middle.uses() + middle.defs()
                    if any(r.index == instr.dst.index for r in regs):
                        conflict = True
                        break
                if not conflict and not isinstance(producer, Call):
                    producer.substitute_defs({instr.src: instr.dst})
                    block.instrs[index] = Mov(instr.dst, instr.dst)
                    changed = True
            for reg in instr.uses():
                if reg.index in uses_after_def:
                    uses_after_def[reg.index] += 1
            for reg in instr.defs():
                producer_of[reg.index] = index
                uses_after_def[reg.index] = 0
        if changed:
            block.instrs = [
                i
                for i in block.instrs
                if not (
                    isinstance(i, Mov)
                    and isinstance(i.src, Reg)
                    and i.src.index == i.dst.index
                )
            ]
    return changed


def reference_copy_propagate(func):
    """Copy propagation printing an instruction twice per rewrite to
    tell whether it changed, and solving liveness and every block's
    live-after sets up front."""
    changed = False
    for block in func.blocks:
        changed |= _reference_propagate_in_block(block)
    changed |= _reference_coalesce_copies(func)
    changed |= _rematerialize_increments(func)
    return changed


def assert_copy_propagation_agrees(func, ctx):
    """The shipped and the reference copy propagation report the same
    change and leave the same text."""
    expected, got = copy.deepcopy(func), copy.deepcopy(func)
    changed = copy_propagate(got, ctx)
    assert changed == reference_copy_propagate(expected)
    assert format_function(got) == format_function(expected)
    return changed


def assert_restricted_chains_agree(func, full, registers):
    """Chains solved for ``registers`` alone are ``full`` restricted to
    them: the same uses, each reached by the same sites in the same
    order."""
    chains = def_use_chains(func, registers)
    # Only the sites defining a register in the subset are numbered,
    # in the full solve's order.
    blocks = full.reaching.blocks
    assert chains.reaching.sites == [
        (label, index) for label, index in full.reaching.sites
        if any(reg.index in registers
               for reg in blocks[label].instrs[index].defs())
    ]
    uses_of = {}
    for site, uses in full.uses_of.items():
        kept = [use for use in uses if use[2] in registers]
        if kept:
            uses_of[site] = kept
    assert chains.uses_of == uses_of
    assert chains.defs_for == {
        use: sites for use, sites in full.defs_for.items()
        if use[2] in registers
    }


def assert_rewrites_agree(func, ctx):
    expected, got = copy.deepcopy(func), copy.deepcopy(func)
    assert local_cse(got, ctx) == reference_local_cse(expected)
    assert format_function(got) == format_function(expected)
    assert_copy_propagation_agrees(func, ctx)

    chains = def_use_chains(func)
    uses_of, defs_for = reference_def_use(func)
    assert chains.uses_of == uses_of
    assert chains.defs_for.keys() == defs_for.keys()
    for use, sites in defs_for.items():
        assert set(chains.defs_for[use]) == set(sites)
        assert len(chains.defs_for[use]) == len(sites)
    # The restricted solve: the registers a constant can reach, and
    # every third register the function mentions.
    mentioned = sorted({
        reg.index for block in func.blocks for instr in block.instrs
        for reg in instr.uses() + instr.defs()
    })
    assert_restricted_chains_agree(func, chains, constant_reachable(func))
    assert_restricted_chains_agree(func, chains, set(mentioned[::3]))


# -- straight-line blocks -----------------------------------------------------

regs = st.integers(min_value=0, max_value=5).map(Reg)
consts = st.integers(min_value=-2, max_value=2).map(Const)
operands = st.one_of(regs, consts)
disps = st.sampled_from([0, 4, 8])
widths = st.sampled_from([2, 4])
instrs = st.one_of(
    st.builds(BinOp, st.sampled_from(["add", "sub", "mul", "and"]),
              regs, operands, operands),
    # self-referencing definitions: ``r4 = add r4, 1``
    st.builds(lambda r, c: BinOp("add", r, r, c), regs, consts),
    st.builds(lambda r, d, w: Load(r, r, d, w), regs, disps, widths),
    st.builds(UnOp, st.sampled_from(["neg", "not"]), regs, regs),
    st.builds(Load, regs, regs, disps, widths),
    st.builds(Load, regs, regs, disps, widths),
    st.builds(Store, regs, disps, operands, widths),
    st.builds(Call, st.one_of(st.none(), regs), st.just("g"),
              st.lists(operands, max_size=2)),
    st.builds(Mov, regs, operands),
    st.builds(FrameAddr, regs, st.sampled_from(["s0", "s1"])),
)


def straight_line(body):
    func = Function("f", [Reg(0), Reg(1), Reg(2)])
    func.add_block("entry", [i.clone() for i in body] + [Ret(Reg(0))])
    return func


class TestLinearLocalCse:
    @given(body=st.lists(instrs, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_straight_line_blocks(self, body):
        ctx = PassContext(get_machine("alpha"))
        expected, got = straight_line(body), straight_line(body)
        assert local_cse(got, ctx) == reference_local_cse(expected)
        assert format_function(got) == format_function(expected)

    def test_load_survives_nothing_but_stores_and_calls(self):
        ctx = PassContext(get_machine("alpha"))
        func = straight_line([
            Load(Reg(3), Reg(1), 0, 4),
            BinOp("add", Reg(5), Reg(2), Const(1)),
            Load(Reg(4), Reg(1), 0, 4),       # redundant
            Store(Reg(2), 0, Reg(3), 4),
            Load(Reg(5), Reg(1), 0, 4),       # a store intervened
        ])
        assert local_cse(func, ctx)
        kinds = [type(i).__name__ for i in func.entry.instrs]
        assert kinds == ["Load", "BinOp", "Mov", "Store", "Load", "Ret"]


#: Address registers: read, copied from, and now and then set to a
#: constant, which must then stay out of a load or store base.
bases = st.integers(min_value=6, max_value=7).map(Reg)

#: Blocks dense in copies: chains, both canonicalisation directions,
#: self-moves and constants (``Mov``), redefinitions of a copy's source
#: or destination (``r = r + c``, a load into it, a call's result), uses
#: by stores and calls, and constants meeting register-only slots (load
#: and store bases, an extract's source word).
copy_instrs = st.one_of(
    st.builds(Mov, regs, regs),
    st.builds(Mov, regs, regs),
    st.builds(Mov, regs, st.one_of(regs, bases)),
    st.builds(Mov, regs, consts),
    st.builds(Mov, bases, consts),
    st.builds(lambda r, c: BinOp("add", r, r, c), regs, consts),
    st.builds(BinOp, st.sampled_from(["add", "sub"]), regs, operands,
              operands),
    st.builds(Load, regs, bases, disps, widths),
    st.builds(Store, bases, disps, operands, widths),
    st.builds(Extract, regs, st.one_of(regs, bases), operands,
              st.sampled_from([1, 2]), st.booleans()),
    st.builds(Call, st.one_of(st.none(), regs), st.just("g"),
              st.lists(operands, max_size=2)),
)


def two_blocks(first, second):
    """``first`` falls into ``second`` through a branch on r0, so the
    registers ``second`` reads are live out of ``first``."""
    func = Function("f", [Reg(0), Reg(1), Reg(2)])
    func.add_block("entry", [i.clone() for i in first]
                   + [CondJump("ne", Reg(0), Const(0), "next", "done")])
    func.add_block("next", [i.clone() for i in second] + [Jump("done")])
    func.add_block("done", [Ret(Reg(0))])
    return func


class TestLinearLocalCseOnCopies:
    """Local CSE on blocks dense in copies, self-copies and redefinitions
    of a copy's source and destination (``copy_instrs`` below)."""

    @given(body=st.lists(st.one_of(instrs, copy_instrs), max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, body):
        ctx = PassContext(get_machine("alpha"))
        expected, got = straight_line(body), straight_line(body)
        assert local_cse(got, ctx) == reference_local_cse(expected)
        assert format_function(got) == format_function(expected)


class TestCopyPropagationMatchesReference:
    """Liveness solved on demand and a substitution counted as a change
    without printing, against the reference that prints and solves
    eagerly."""

    def _agree(self, func):
        ctx = PassContext(get_machine("alpha"))
        assert_copy_propagation_agrees(func, ctx)

    @given(body=st.lists(copy_instrs, max_size=24))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_on_copy_dense_blocks(self, body):
        self._agree(straight_line(body))

    @given(first=st.lists(copy_instrs, max_size=12),
           second=st.lists(copy_instrs, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_across_blocks(self, first, second):
        self._agree(two_blocks(first, second))

    def test_each_block_decides_by_its_own_live_after_sets(self):
        # Both blocks hold a candidate copy.  In the second, r2 is read
        # after its copy, so ``r5 = r2`` must stay; by the first block's
        # live-after sets r2 would be dead there.
        func = two_blocks(
            [BinOp("add", Reg(3), Reg(1), Const(1)), Mov(Reg(4), Reg(3))],
            [BinOp("add", Reg(2), Reg(1), Const(1)), Mov(Reg(5), Reg(2)),
             Store(Reg(6), 0, Reg(2), 4)],
        )
        self._agree(func)
        assert copy_propagate(func, PassContext(get_machine("alpha")))
        assert [repr(i) for i in func.block("next").instrs][:2] == [
            "r2 = add r1, 1", "r5 = r2",
        ]

    def _propagated(self, body):
        func = straight_line(body)
        self._agree(func)
        copy_propagate(func, PassContext(get_machine("alpha")))
        return [repr(i) for i in func.entry.instrs]

    def test_overwritten_entry_keeps_the_readers_of_its_register(self):
        # r5 reads r4; then r4's own entry is overwritten (r1 -> r2).
        # Redefining r4 must still retire r5's entry.
        assert self._propagated([
            Mov(Reg(5), Reg(4)),            # copies[5] = r4
            Mov(Reg(1), Reg(4)),            # copies[4] = r1
            Mov(Reg(2), Reg(5)),            # r2 = r4: copies[4] = r2
            BinOp("add", Reg(4), Reg(4), Const(1)),
            Store(Reg(0), 0, Reg(5), 4),    # r5 is not the new r4
        ])[-2] == "store.4 [r0], r5"

    def test_overwritten_entry_leaves_no_stale_reader(self):
        # After the overwrite r4 no longer reads r1: redefining r1 must
        # keep r4 -> r2.
        assert self._propagated([
            Mov(Reg(5), Reg(4)),
            Mov(Reg(1), Reg(4)),
            Mov(Reg(2), Reg(5)),
            BinOp("add", Reg(1), Reg(1), Const(1)),
            Store(Reg(0), 0, Reg(4), 4),
        ])[-2] == "store.4 [r0], r2"

    def test_chains_directions_self_moves_and_constants(self):
        body = [
            Mov(Reg(3), Reg(1)),            # src < dst: r3 reads r1
            Mov(Reg(4), Reg(3)),            # a chain: r4 = r1
            Mov(Reg(2), Reg(5)),            # src > dst: r5 reads r2
            Mov(Reg(2), Reg(2)),            # a self-move retires r5 -> r2
            Mov(Reg(5), Const(7)),          # a constant
            BinOp("add", Reg(1), Reg(4), Reg(5)),
            Store(Reg(0), 0, Reg(1), 4),
        ]
        self._agree(straight_line(body))
        func = straight_line(body)
        assert copy_propagate(func, PassContext(get_machine("alpha")))
        assert "r1 = add r1, 7" in format_function(func)


class TestRestrictedChains:
    """Chains solved for a register subset equal the full chains
    restricted to it."""

    @given(first=st.lists(copy_instrs, max_size=12),
           second=st.lists(copy_instrs, max_size=12),
           subset=st.sets(st.integers(min_value=0, max_value=7)))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_chains_on_straight_line_blocks(
        self, first, second, subset
    ):
        func = two_blocks(first, second)
        full = def_use_chains(func)
        assert_restricted_chains_agree(func, full, constant_reachable(func))
        assert_restricted_chains_agree(func, full, subset)

    def test_constant_reach_follows_copies_only(self):
        func = two_blocks(
            [Mov(Reg(3), Const(1)), Mov(Reg(4), Reg(3)),
             BinOp("add", Reg(5), Reg(4), Const(1))],
            [Mov(Reg(6), Reg(4)), Mov(Reg(7), Reg(5))],
        )
        assert constant_reachable(func) == {3, 4, 6}


#: Null pointers dereferenced through a constant base: copy propagation
#: would put the constant in the load's base.
NULL_BASE_SOURCES = (
    "int f(int n) { int *p = 0; return p[0]; }",
    "int f(int n) { int *p; p = 0; return *p + n; }",
)


class TestRegisterOnlySlots:
    """No constant replaces a load or store base or an extract's source
    word, in either propagation pass."""

    @pytest.mark.parametrize("source", NULL_BASE_SOURCES)
    @pytest.mark.parametrize("machine", MACHINES)
    def test_constant_base_compiles_and_faults_at_the_call(
        self, machine, source
    ):
        for variant in COLUMNS:
            preset, overrides = COLUMN_CONFIGS[variant]
            program = compile_minic(
                source, machine, preset,
                **{**machine_overrides(machine), **overrides},
            )
            for backend in ("interp", "compiled"):
                sim = program.simulator(backend=backend)
                with pytest.raises(SimulationError):
                    sim.call("f", 0)

    @pytest.mark.parametrize("layout", ["one block", "two blocks"])
    def test_constant_extract_source_stays_a_register(self, layout):
        jump = "" if layout == "one block" else "    jump next\nnext:\n"
        text = (
            "func f(r0) {\nentry:\n    r1 = 5\n" + jump
            + "    r2 = ext.1u r1, pos=r0\n    ret r2\n}"
        )
        for pass_fn in (copy_propagate, global_const_prop):
            func = next(iter(parse_module(text)))
            pass_fn(func, PassContext(get_machine("alpha")))
            assert "ext.1u r1, pos=r0" in format_function(func)


class TestSkippedDataflow:
    """Dataflow that no rewrite can read is never computed."""

    @pytest.fixture
    def liveness_calls(self, monkeypatch):
        import repro.opt.copy_prop as copy_prop

        calls = []

        def counted(func):
            calls.append(func.name)
            return liveness(func)

        monkeypatch.setattr(copy_prop, "liveness", counted)
        return calls

    def test_no_coalescible_copy_solves_no_liveness(self, liveness_calls):
        # Copies of parameters and constants, and a temporary read
        # again before its copy: none is a coalescing candidate.
        func = two_blocks(
            [Mov(Reg(3), Reg(1)), Mov(Reg(4), Const(2)),
             BinOp("add", Reg(5), Reg(1), Reg(2)),
             Store(Reg(0), 0, Reg(5), 4), Mov(Reg(0), Reg(5))],
            [Mov(Reg(4), Reg(2)), Store(Reg(0), 0, Reg(4), 4)],
        )
        copy_propagate(func, PassContext(get_machine("alpha")))
        assert liveness_calls == []

    def test_liveness_is_solved_once_per_call(self, liveness_calls):
        produce = [BinOp("add", Reg(3), Reg(1), Reg(2)),
                   Mov(Reg(4), Reg(3)), Store(Reg(0), 0, Reg(4), 4)]
        func = two_blocks(produce, produce)
        assert copy_propagate(func, PassContext(get_machine("alpha")))
        assert liveness_calls == ["f"]

    def test_no_constant_move_builds_no_chains(self, monkeypatch):
        import repro.opt.global_const as global_const

        solved = []

        def recorded(func, registers=None):
            solved.append(registers)
            return def_use_chains(func, registers)

        monkeypatch.setattr(global_const, "def_use_chains", recorded)
        # Ten registers, r0-r9; no constant move, no solve.
        func = two_blocks(
            [BinOp("add", Reg(3), Reg(1), Const(2)), Mov(Reg(4), Reg(3)),
             BinOp("add", Reg(5), Reg(4), Reg(2)),
             BinOp("sub", Reg(6), Reg(5), Reg(1)), Mov(Reg(7), Reg(6))],
            [BinOp("mul", Reg(8), Reg(7), Reg(4)),
             Load(Reg(9), Reg(8), 0, 4), Store(Reg(0), 0, Reg(9), 4)],
        )
        ctx = PassContext(get_machine("alpha"))
        assert global_const_prop(func, ctx) is False
        assert solved == []
        # One constant and one copy of it: the solve is for those two.
        func.entry.instrs[0] = Mov(Reg(3), Const(2))
        assert global_const_prop(func, ctx) is True
        assert solved == [{3, 4}]
        assert "r8 = mul r7, 2" in format_function(func)


@pytest.mark.parametrize("machine", MACHINES)
def test_rewrites_agree_after_every_stage(machine, monkeypatch):
    """Reference and linear local CSE, reference and bitmask def-use
    chains, and reference and shipped copy propagation agree on every
    Table I function after each stage."""
    stage = PassGuard.stage
    checked = []

    def checking_stage(self, ctx, name, thunk, func=None):
        result = stage(self, ctx, name, thunk, func)
        for target in [func] if func is not None else list(self.module):
            assert_rewrites_agree(target, ctx)
            checked.append(name)
        return result

    monkeypatch.setattr(PassGuard, "stage", checking_stage)
    for program in PROGRAMS:
        source, _, preset, overrides = compile_args(
            program, machine, "coalesce-all"
        )
        compile_minic(source, machine, preset, **overrides)
    assert {"cleanup", "licm", "unroll", "coalesce", "lower"} <= set(
        checked
    )


# -- skipping settled passes is exact -----------------------------------------


@pytest.mark.parametrize("variant", ["vpo", "coalesce-all"])
@pytest.mark.parametrize("machine", MACHINES)
def test_skipping_matches_plain_fixpoint(machine, variant, monkeypatch):
    shipped = {p: compiled_rtl(p, machine, variant) for p in PROGRAMS}
    monkeypatch.setattr(repro.pipeline, "cleanup", plain_cleanup)
    for program in PROGRAMS:
        assert compiled_rtl(program, machine, variant) == shipped[program]


def test_passes_that_report_no_change_change_nothing(monkeypatch):
    """The premise that makes skipping exact: every call of every pass
    that reports no change leaves the function's text and register
    counter as they were (quick matrix, no pass skipped)."""
    calls = {}

    def honest(name, pass_fn):
        def run(func, ctx, *args, **kwargs):
            before = (format_function(func), func._next_reg)
            result = pass_fn(func, ctx, *args, **kwargs)
            if not reported_change(result):
                assert (format_function(func), func._next_reg) == before, (
                    f"{name} reported no change on {func.name} but "
                    f"changed it"
                )
            calls[name] = calls.get(name, 0) + 1
            return result

        run.__name__ = name
        return run

    for module, name in CLEANUP_PASSES:
        monkeypatch.setattr(sys.modules[module], name,
                            honest(name, getattr(sys.modules[module], name)))
    for name in ("loop_invariant_code_motion", "strength_reduce",
                 "unroll_function", "coalesce_function"):
        monkeypatch.setattr(repro.pipeline, name,
                            honest(name, getattr(repro.pipeline, name)))
    monkeypatch.setattr(repro.pipeline, "cleanup", plain_cleanup)
    for machine in MACHINES:
        for variant in COLUMNS:
            for program in PROGRAMS:
                compiled_rtl(program, machine, variant)
    assert len(calls) == 11


def _fresh_function(program="convolution", machine="alpha"):
    mach = get_machine(machine)
    module = compile_source(BENCHMARKS[program].source,
                            word_bytes=mach.word_bytes)
    return module, next(iter(module)), mach


class TestSettledPasses:
    def _runs(self, ctx):
        return {name: ctx.stats.get(name, {}).get("runs", 0)
                for name in CLEANUP_NAMES}

    def test_cleanup_after_cleanup_runs_no_pass(self):
        _, func, machine = _fresh_function()
        ctx = PassContext(machine)
        assert cleanup(func, ctx)
        before = self._runs(ctx)
        assert all(before.values())
        assert cleanup(func, ctx) is False
        assert self._runs(ctx) == before

    def test_change_by_another_pass_reruns_all_seven(self):
        _, func, machine = _fresh_function()
        ctx = PassContext(machine)
        cleanup(func, ctx)

        @function_pass
        def touched(f, c):
            return True

        touched(func, ctx)
        before = self._runs(ctx)
        cleanup(func, ctx)
        after = self._runs(ctx)
        assert all(after[name] > before[name] for name in CLEANUP_NAMES)

    def test_settled_is_neither_hit_nor_miss(self):
        _, func, machine = _fresh_function()
        ctx = PassContext(machine)
        cleanup(func, ctx)
        hits, misses = ctx.analyses.hits, ctx.analyses.misses
        cleanup(func, ctx)
        assert ctx.analyses.is_settled(func, "local_cse")
        assert (ctx.analyses.hits, ctx.analyses.misses) == (hits, misses)

    def test_every_invalidation_forgets_settled_passes(self):
        _, func, machine = _fresh_function()
        ctx = PassContext(machine)
        analyses = ctx.analyses
        cleanup(func, ctx)
        assert analyses.is_settled(func, "peephole")
        analyses.invalidate(func)
        assert not analyses.is_settled(func, "peephole")
        cleanup(func, ctx)
        analyses.clear()  # nothing cached, still forgets
        assert not analyses.is_settled(func, "peephole")
        analyses.settle(func, "peephole")
        analyses.invalidate(func)
        assert not analyses.is_settled(func, "peephole")
        analyses.settle(func, "peephole")
        analyses.clear()
        assert not analyses.is_settled(func, "peephole")

    def test_changing_pass_is_not_settled_by_its_own_run(self):
        func = straight_line([
            BinOp("add", Reg(3), Reg(1), Reg(2)),
            BinOp("add", Reg(4), Reg(1), Reg(2)),
            Store(Reg(0), 0, Reg(4), 4),
        ])
        ctx = PassContext(get_machine("alpha"))
        assert cleanup(func, ctx)
        assert ctx.stats["local_cse"]["changed"] == 1
        # A later round ran it again on the rewritten IR.
        assert ctx.stats["local_cse"]["runs"] >= 2

    def test_max_rounds_counts_rounds(self):
        from repro.opt.pass_manager import run_to_fixpoint

        ctx = PassContext(get_machine("alpha"))
        func = straight_line([])
        calls = []

        @function_pass
        def always(f, c):
            calls.append("always")
            return True

        @function_pass
        def never(f, c):
            calls.append("never")
            return False

        assert run_to_fixpoint(func, ctx, [always, never], max_rounds=3)
        # ``never`` is unsettled again by every change ``always`` makes.
        assert calls == ["always", "never"] * 3


class TestPassesRetireTheirAnalyses:
    def test_coalesce_that_applied_nothing_keeps_analyses(self):
        _, func, machine = _fresh_function("histogram")
        ctx = PassContext(machine)
        cleanup(func, ctx)
        summary = ctx.analyses.memdep(func)
        reports = coalesce_function(func, ctx)
        assert not any(r.applied for r in reports)
        assert ctx.analyses.memdep(func) is summary
        assert ctx.analyses.is_settled(func, "local_cse")

    def test_coalesce_that_applied_retires_analyses(self):
        _, func, machine = _fresh_function("image_add")
        ctx = PassContext(machine)
        for step in (cleanup, loop_invariant_code_motion, cleanup,
                     strength_reduce, cleanup, unroll_function, cleanup):
            step(func, ctx)
        summary = ctx.analyses.memdep(func)
        reports = coalesce_function(func, ctx, force=True)
        assert any(r.applied for r in reports)
        assert ctx.analyses.memdep(func) is not summary
        assert not ctx.analyses.is_settled(func, "local_cse")


DIRECT_SEQUENCE = (
    cleanup,
    loop_invariant_code_motion,
    cleanup,
    strength_reduce,
    cleanup,
    lambda func, ctx: unroll_function(func, ctx, factor=4),
    cleanup,
)


@pytest.mark.parametrize("machine", MACHINES)
def test_direct_pass_sequence_on_one_context(machine):
    """Passes called directly on one shared context give the RTL of a
    fresh context per call: no cached analysis outlives a change."""
    for program in PROGRAMS:
        module, _, mach = _fresh_function(program, machine)
        fresh_module, _, _ = _fresh_function(program, machine)
        ctx = PassContext(mach)
        for func, fresh_func in zip(module, fresh_module):
            for step in DIRECT_SEQUENCE:
                step(func, ctx)
                step(fresh_func, PassContext(mach))
                assert format_function(func) == format_function(fresh_func)
        assert format_module(module) == format_module(fresh_module)


#: The cells whose RTL followed string hashing before LICM and strength
#: reduction walked a loop's blocks in layout order.
HASH_SENSITIVE = ("blockstage", "convolution", "translate", "spmv_csr")
#: Hash seeds that told the set walks apart: LICM's cells printed
#: differently under 0 and 1, strength reduction's spmv_csr under 0
#: and 3.
HASH_SEEDS = ("0", "1", "3")

_COMPILE_CELLS = """
import hashlib, sys
from repro.ir import format_module
from repro.pipeline import compile_minic
from tests.test_cleanup_fixpoint import COLUMNS, MACHINES, compile_args
for program in sys.argv[1:]:
    for machine in MACHINES:
        for variant in COLUMNS:
            source, _, preset, overrides = compile_args(
                program, machine, variant)
            text = format_module(
                compile_minic(source, machine, preset, **overrides).module)
            print(program, machine, variant,
                  hashlib.sha256(text.encode()).hexdigest())
"""


def test_compiles_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, REPRO_CACHE="off")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + [p for p in [env.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", _COMPILE_CELLS, *HASH_SENSITIVE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == len(HASH_SENSITIVE) * 12
    assert len(set(outputs)) == 1
