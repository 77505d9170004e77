"""Host-time spans: the one clock for what this tool itself costs.

``with root(name) as tree:`` opens a tree on the calling thread, and
``with span(name):`` times a block under the innermost span open on
that thread.  Spans of one name under one parent share a node, which
counts the calls and sums their inclusive time; self time is inclusive
time minus the children's.  With no root open on its thread a span
records nothing and costs one thread-local lookup.  A root opened
inside a tree starts a tree of its own.  :func:`total`, :func:`merge`
and :func:`format_tree` read a closed tree's :meth:`Span.to_dict`.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from time import perf_counter_ns
from typing import Dict, Iterable, Optional


class _Open(threading.local):
    span: Optional["Span"] = None


_open = _Open()
_NOTHING = nullcontext()


class Span:
    """One node: a name, its calls and their inclusive nanoseconds.  A
    span nested under a span of its own name gets a node of its own, so
    a node is never open twice at once."""

    __slots__ = ("name", "calls", "ns", "children", "_outer", "_started")

    def __init__(self, name: str):
        self.name = name
        self.calls = self.ns = 0
        self.children: Dict[str, Span] = {}

    def __enter__(self) -> "Span":
        self._outer, _open.span = _open.span, self
        self._started = perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        self.ns += perf_counter_ns() - self._started
        self.calls += 1
        _open.span = self._outer

    def to_dict(self) -> dict:
        """``name``, ``calls``, inclusive ``seconds``, ``self_seconds``
        and, when there are any, ``children``."""
        inner = sum(child.ns for child in self.children.values())
        node = {"name": self.name, "calls": self.calls,
                "seconds": self.ns / 1e9,
                "self_seconds": (self.ns - inner) / 1e9}
        if self.children:
            node["children"] = [c.to_dict() for c in self.children.values()]
        return node


def root(name: str) -> Span:
    """A new tree, to open with ``with``."""
    return Span(name)


def span(name: str):
    """Time a ``with`` block as ``name`` under the innermost open span."""
    parent = _open.span
    if parent is None:
        return _NOTHING
    node = parent.children.get(name)
    if node is None:
        node = parent.children[name] = Span(name)
    return node


def total(tree: dict, name: str) -> Optional[float]:
    """Inclusive seconds of the outermost nodes named ``name``, or None
    when ``tree`` holds none."""
    if tree["name"] == name:
        return tree["seconds"]
    found = [t for t in (total(c, name) for c in tree.get("children", ()))
             if t is not None]
    return sum(found) if found else None


def merge(trees: Iterable[dict]) -> Optional[dict]:
    """Trees summed node by node, children matched by name; None for
    no trees."""
    trees = list(trees)
    if not trees:
        return None
    node = {key: sum(tree[key] for tree in trees)
            for key in ("calls", "seconds", "self_seconds")}
    node["name"] = trees[0]["name"]
    groups: Dict[str, list] = {}
    for tree in trees:
        for child in tree.get("children", ()):
            groups.setdefault(child["name"], []).append(child)
    if groups:
        node["children"] = [merge(group) for group in groups.values()]
    return node


def format_tree(tree: dict, depth: int = 0) -> str:
    """One line per node, children indented under their parent: calls,
    inclusive and self milliseconds."""
    lines = [] if depth else [
        f"{'span':<36} {'calls':>7} {'incl ms':>10} {'self ms':>10}"]
    lines.append(
        f"{'  ' * depth + tree['name']:<36} {tree['calls']:>7} "
        f"{tree['seconds'] * 1e3:>10.1f} {tree['self_seconds'] * 1e3:>10.1f}"
    )
    lines.extend(format_tree(c, depth + 1) for c in tree.get("children", ()))
    return "\n".join(lines)
