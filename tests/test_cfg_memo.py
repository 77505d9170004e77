"""CFG facts memoized per CFG shape: every memoized fact equals a fresh
computation at every pass and stage boundary of the quick matrix, each
kind of CFG edit changes the answer, and the memo never raises where a
fresh computation would not."""

import copy
import importlib
from collections.abc import Mapping

import pytest

from repro.analysis import cfgutil, dominators, loops
from repro.analysis.cfgutil import (
    predecessors,
    reachable_labels,
    reverse_postorder,
)
from repro.analysis.dominators import immediate_dominators
from repro.analysis.loops import ensure_preheader, find_loops
from repro.errors import IRError, PassError
from repro.ir import parse_module
from repro.ir.function import BasicBlock
from repro.ir.rtl import Const, Jump, Mov, Reg, Ret
from repro.machine import get_machine
from repro.opt.pass_manager import PassContext
from repro.pipeline import compile_minic
from repro.resilience.transaction import PassGuard
from tests.test_cleanup_fixpoint import (
    CLEANUP_PASSES,
    COLUMNS,
    MACHINES,
    PROGRAMS,
    compile_args,
)

#: Each memoized fact with the builder that computes it afresh.
FACTS = (
    (predecessors, cfgutil._predecessors),
    (reachable_labels, cfgutil._reachable_labels),
    (reverse_postorder, cfgutil._reverse_postorder),
    (immediate_dominators, dominators._immediate_dominators),
    (find_loops, loops._find_loops),
)


def ordered(value):
    """A fact as data whose equality also compares mapping order."""
    return list(value.items()) if isinstance(value, Mapping) else value


def facts(func):
    return [ordered(fact(func)) for fact, _ in FACTS]


def fresh_facts(func):
    # A copy shares the blocks but starts without the memo, so every
    # builder (and every fact a builder reads) computes afresh.
    return [ordered(build(copy.copy(func))) for _, build in FACTS]


def assert_memo_is_fresh(func):
    assert facts(func) == fresh_facts(func), func.name


def test_memoized_facts_equal_fresh_ones_at_every_boundary(monkeypatch):
    """All 156 quick-matrix compiles, checked after every stage and after
    every cleanup pass.  Reading the facts at a boundary fills the memo,
    so the next boundary finds the last one's facts and must notice
    whatever the pass in between changed."""
    checked = {}

    def check(name, targets):
        for func in targets:
            assert_memo_is_fresh(func)
        checked[name] = checked.get(name, 0) + 1

    stage = PassGuard.stage

    def checking_stage(self, ctx, name, thunk, func=None):
        result = stage(self, ctx, name, thunk, func)
        check(name, [func] if func is not None else list(self.module))
        return result

    def checking(name, pass_fn):
        def run(func, ctx, *args, **kwargs):
            result = pass_fn(func, ctx, *args, **kwargs)
            check(name, [func])
            return result

        run.__name__ = name
        return run

    monkeypatch.setattr(PassGuard, "stage", checking_stage)
    for module, name in CLEANUP_PASSES:
        module = importlib.import_module(module)
        monkeypatch.setattr(
            module, name, checking(name, getattr(module, name))
        )
    for machine in MACHINES:
        for variant in COLUMNS:
            for program in PROGRAMS:
                source, _, preset, overrides = compile_args(
                    program, machine, variant
                )
                compile_minic(source, machine, preset, **overrides)
    assert {"cleanup", "licm", "strength_reduce", "unroll", "coalesce",
            "lower", "schedule", "simplify_cfg",
            "dead_code_elimination"} <= set(checked)


# -- each kind of edit changes the answer -------------------------------------

#: entry branches to ``left`` or ``right``, both join; ``island`` is
#: unreachable.
DIAMOND = """
func f(r0) {
entry:
    br ne r0, 0, left, right
left:
    jump join
right:
    jump join
join:
    ret r0
island:
    jump join
}
"""

#: A loop at ``head`` entered from ``entry`` and from ``side``, so it
#: has no preheader yet.
LOOP = """
func f(r0) {
entry:
    br eq r0, 0, head, side
side:
    jump head
head:
    br lt r0, 10, body, out
body:
    r0 = add r0, 1
    jump head
out:
    ret r0
}
"""


def func_of(text):
    return next(iter(parse_module(text)))


def changed_by(text, edit):
    """The facts before and after ``edit`` (memo filled before it)."""
    func = func_of(text)
    before = facts(func)
    edit(func)
    after = facts(func)
    assert after == fresh_facts(func)
    return before, after


class TestEditsChangeTheFacts:
    def test_retargeting_a_jump(self):
        def edit(func):
            func.block("island").retarget("join", "island")
            func.block("left").retarget("join", "island")

        before, after = changed_by(DIAMOND, edit)
        assert "island" not in before[1] and "island" in after[1]

    def test_swapping_a_condjump_s_arms(self):
        # Depth first from entry takes the true arm first, so swapping
        # the arms swaps left and right in reverse postorder.
        def edit(func):
            term = func.entry.terminator
            term.iftrue, term.iffalse = term.iffalse, term.iftrue

        before, after = changed_by(DIAMOND, edit)
        assert before[2] == ("entry", "right", "left", "join")
        assert after[2] == ("entry", "left", "right", "join")

    def test_inserting_a_block(self):
        def edit(func):
            ensure_preheader(func, find_loops(func)[0])

        before, after = changed_by(LOOP, edit)
        assert len(before[0]) == 5 and len(after[0]) == 6
        assert dict(after[0])["head"] == ("preh0", "body")

    def test_removing_a_block(self):
        before, after = changed_by(
            DIAMOND, lambda func: func.remove_block("island")
        )
        assert [label for label, _ in before[0]][-1] == "island"
        assert "island" not in dict(after[0])

    def test_reordering_blocks(self):
        # Predecessors are listed in layout order.
        def edit(func):
            left, right = func.block_index("left"), func.block_index("right")
            func.blocks[left], func.blocks[right] = (
                func.blocks[right], func.blocks[left]
            )

        before, after = changed_by(DIAMOND, edit)
        assert dict(before[0])["join"][:2] == ("left", "right")
        assert dict(after[0])["join"][:2] == ("right", "left")

    def test_a_new_entry_block(self):
        def edit(func):
            func.blocks.insert(0, BasicBlock("start", [Jump("right")]))

        before, after = changed_by(DIAMOND, edit)
        assert after[2] == ("start", "right", "join")

    def test_pass_guard_rollback(self):
        module = parse_module(DIAMOND)
        func = next(iter(module))
        before = facts(func)
        ctx = PassContext(get_machine("alpha"))
        guard = PassGuard(module, policy="skip")

        inside = []

        def broken_stage():
            # Return from left and loop at right, read the facts of
            # that shape, then fail.
            func.block("left").instrs[-1] = Ret(None)
            func.block("right").instrs[-1] = Jump("right")
            inside.append((facts(func), fresh_facts(func)))
            raise PassError("stage failed after editing the CFG")

        assert guard.stage(ctx, "cleanup", broken_stage, func=func) is None
        assert len(guard.failures) == 1
        (edited, edited_fresh), = inside
        assert edited == edited_fresh != before
        assert facts(func) == fresh_facts(func) == before


class TestTheMemo:
    def test_an_unreachable_block_without_terminator_is_never_read(self):
        func = func_of(DIAMOND)
        func.block("island").instrs = []
        assert reachable_labels(func) == {"entry", "left", "right", "join"}
        assert reverse_postorder(func)[0] == "entry"
        with pytest.raises(IRError, match="island is empty"):
            predecessors(func)
        func.block("island").instrs = [Ret(None)]
        assert "island" in predecessors(func)

    def test_a_reachable_block_without_terminator_raises(self):
        func = func_of(DIAMOND)
        func.block("left").instrs[-1] = Mov(Reg(1), Const(1))
        for fact, _ in FACTS:
            with pytest.raises(IRError, match="left lacks a terminator"):
                fact(func)

    def test_facts_are_shared_and_immutable(self):
        func = func_of(LOOP)
        assert predecessors(func) is predecessors(func)
        assert find_loops(func) is find_loops(func)
        with pytest.raises(TypeError):
            predecessors(func)["head"] = ()
        with pytest.raises(TypeError):
            immediate_dominators(func)["out"] = "body"
        loop = find_loops(func)[0]
        with pytest.raises(AttributeError):
            loop.blocks = frozenset()
        assert isinstance(loop.blocks, frozenset)
        assert isinstance(loop.latches, frozenset)

    def test_copies_start_without_the_memo(self):
        func = func_of(LOOP)
        find_loops(func)
        assert copy.deepcopy(func)._cfg_memo is None
        assert func._cfg_memo is not None

    def test_compile_drops_the_memo_it_filled(self):
        source, machine, preset, overrides = compile_args(
            "image_add", "alpha", "coalesce-all"
        )
        program = compile_minic(source, machine, preset, **overrides)
        assert all(func._cfg_memo is None for func in program.module)
