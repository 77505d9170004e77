"""Dominators, reverse postorder, predecessors."""

from repro.analysis import (
    dominator_sets,
    dominates,
    immediate_dominators,
    predecessors,
    reachable_labels,
    reverse_postorder,
)
from repro.ir import parse_module

DIAMOND = """
func f(r0) {
entry:
    br lt r0, 0, left, right
left:
    r1 = 1
    jump join
right:
    r1 = 2
    jump join
join:
    ret r1
}
"""

LOOP = """
func f(r0) {
entry:
    r1 = 0
    jump head
head:
    br lt r1, r0, body, out
body:
    r1 = add r1, 1
    jump head
out:
    ret r1
}
"""

UNREACHABLE = """
func f(r0) {
entry:
    ret r0
island:
    jump island
}
"""


def func_of(text):
    return next(iter(parse_module(text)))


class TestPredecessors:
    def test_diamond(self):
        preds = predecessors(func_of(DIAMOND))
        assert sorted(preds["join"]) == ["left", "right"]
        assert preds["entry"] == ()

    def test_loop_header_has_two_preds(self):
        preds = predecessors(func_of(LOOP))
        assert sorted(preds["head"]) == ["body", "entry"]


class TestReachability:
    def test_island_not_reachable(self):
        assert reachable_labels(func_of(UNREACHABLE)) == {"entry"}

    def test_all_reachable_in_loop(self):
        assert reachable_labels(func_of(LOOP)) == {
            "entry", "head", "body", "out"
        }


class TestReversePostorder:
    def test_entry_first(self):
        assert reverse_postorder(func_of(DIAMOND))[0] == "entry"

    def test_join_after_branches(self):
        order = reverse_postorder(func_of(DIAMOND))
        assert order.index("join") > order.index("left")
        assert order.index("join") > order.index("right")

    def test_loop_body_after_head(self):
        order = reverse_postorder(func_of(LOOP))
        assert order.index("head") < order.index("body")

    def test_excludes_unreachable(self):
        assert reverse_postorder(func_of(UNREACHABLE)) == ("entry",)


class TestDominators:
    def test_diamond_idoms(self):
        idom = immediate_dominators(func_of(DIAMOND))
        assert idom["entry"] is None
        assert idom["left"] == "entry"
        assert idom["right"] == "entry"
        assert idom["join"] == "entry"

    def test_loop_idoms(self):
        idom = immediate_dominators(func_of(LOOP))
        assert idom["body"] == "head"
        assert idom["out"] == "head"

    def test_dominator_sets(self):
        sets = dominator_sets(func_of(LOOP))
        assert sets["body"] == {"entry", "head", "body"}

    def test_dominates_predicate(self):
        idom = immediate_dominators(func_of(LOOP))
        assert dominates(idom, "entry", "body")
        assert dominates(idom, "head", "head")
        assert not dominates(idom, "body", "head")
