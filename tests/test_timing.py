"""The span primitive (repro.timing): one tree per root, aggregated by
name, per thread, and nothing recorded outside a root."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro import timing


def _names(node):
    return [child["name"] for child in node.get("children", ())]


def _child(node, name):
    (found,) = [c for c in node.get("children", ()) if c["name"] == name]
    return found


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


class TestSpans:
    def test_repeated_spans_aggregate_by_name_under_their_parent(self):
        with timing.root("job") as tree:
            for _ in range(3):
                with timing.span("stage"):
                    with timing.span("pass"):
                        pass
                    with timing.span("pass"):
                        pass
            with timing.span("pass"):  # same name, other parent
                pass
        recorded = tree.to_dict()
        assert recorded["name"] == "job" and recorded["calls"] == 1
        assert _names(recorded) == ["stage", "pass"]
        stage = _child(recorded, "stage")
        assert stage["calls"] == 3
        assert _names(stage) == ["pass"]
        assert _child(stage, "pass")["calls"] == 6
        assert _child(recorded, "pass")["calls"] == 1
        assert "children" not in _child(stage, "pass")

    def test_self_time_is_inclusive_time_minus_children(self):
        with timing.root("job") as tree:
            with timing.span("outer"):
                time.sleep(0.02)
                with timing.span("inner"):
                    time.sleep(0.03)
        outer = _child(tree.to_dict(), "outer")
        inner = _child(outer, "inner")
        assert inner["seconds"] >= 0.03
        assert outer["seconds"] >= 0.05
        assert outer["self_seconds"] == pytest.approx(
            outer["seconds"] - inner["seconds"]
        )
        assert 0.02 <= outer["self_seconds"] < outer["seconds"]
        for node in _walk(tree.to_dict()):
            assert sum(c["seconds"] for c in node.get("children", ())) \
                <= node["seconds"]

    def test_threads_never_see_each_others_spans(self):
        trees = {}

        def work(label):
            with timing.root(label) as tree:
                for _ in range(200):
                    with timing.span(f"{label}-only"):
                        with timing.span("inner"):
                            pass
            trees[label] = tree.to_dict()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads' spans
        try:
            threads = [
                threading.Thread(target=work, args=(f"t{index}",))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert len(trees) == 8
        for label, tree in trees.items():
            assert _names(tree) == [f"{label}-only"]
            mine = _child(tree, f"{label}-only")
            assert mine["calls"] == 200
            assert _child(mine, "inner")["calls"] == 200

    def test_a_thread_without_a_root_records_nothing_in_anothers(self):
        with timing.root("main") as tree:
            def elsewhere():
                with timing.span("elsewhere"):
                    pass

            thread = threading.Thread(target=elsewhere)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert "children" not in tree.to_dict()

    def test_an_exception_closes_the_span_and_restores_its_parent(self):
        with timing.root("job") as tree:
            with pytest.raises(RuntimeError):
                with timing.span("fails"):
                    raise RuntimeError("boom")
            with timing.span("after"):
                pass
        recorded = tree.to_dict()
        assert _names(recorded) == ["fails", "after"]
        assert _child(recorded, "fails")["calls"] == 1
        assert "children" not in _child(recorded, "fails")

    def test_without_a_root_nothing_is_recorded(self):
        with timing.span("orphan") as value:
            assert value is None
        with timing.root("later") as tree:
            pass
        assert "children" not in tree.to_dict()

    def test_a_nested_root_starts_its_own_tree(self):
        with timing.root("outer") as outer:
            with timing.span("a"):
                with timing.root("inner") as inner:
                    with timing.span("b"):
                        pass
                with timing.span("c"):
                    pass
        assert _names(inner.to_dict()) == ["b"]
        assert _names(_child(outer.to_dict(), "a")) == ["c"]


class TestRecordedForm:
    TREE = {
        "name": "cell", "calls": 1, "seconds": 1.0, "self_seconds": 0.25,
        "children": [
            {"name": "compile", "calls": 1, "seconds": 0.5,
             "self_seconds": 0.25,
             "children": [{"name": "cleanup", "calls": 2, "seconds": 0.25,
                           "self_seconds": 0.25}]},
            {"name": "sim.exec", "calls": 1, "seconds": 0.25,
             "self_seconds": 0.25},
        ],
    }

    def test_total_sums_the_outermost_named_nodes(self):
        assert timing.total(self.TREE, "cleanup") == 0.25
        assert timing.total(self.TREE, "cell") == 1.0
        assert timing.total(self.TREE, "frontend") is None

    def test_merge_sums_node_by_node(self):
        hit = {"name": "cell", "calls": 1, "seconds": 0.5,
               "self_seconds": 0.25,
               "children": [{"name": "sim.exec", "calls": 1,
                             "seconds": 0.25, "self_seconds": 0.25}]}
        merged = timing.merge([self.TREE, hit])
        assert merged["calls"] == 2 and merged["seconds"] == 1.5
        assert _names(merged) == ["compile", "sim.exec"]
        assert _child(merged, "sim.exec")["calls"] == 2
        assert _child(_child(merged, "compile"), "cleanup")["calls"] == 2
        assert timing.merge([]) is None
        assert self.TREE["calls"] == 1  # inputs are not modified

    def test_format_tree_indents_children(self):
        lines = timing.format_tree(self.TREE).splitlines()
        assert lines[0].split() == ["span", "calls", "incl", "ms", "self",
                                    "ms"]
        assert lines[3].startswith("    cleanup")
        assert lines[3].split()[1:] == ["2", "250.0", "250.0"]
