"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from outside the program: :func:`install` replaces
each layer's public functions, where their callers look them up, with
wrappers that time the call.  Nothing under ``src/`` changes.  A span is
``(id, name, start, end, parent, op, info)``; ``parent`` is the span
that was open on the same thread when it began, ``op`` the benchmark op
it belongs to (None inside the compile server), and ``info`` holds the
counts read at that boundary.  Spans stay in memory and are written as
JSONL when the traced phase ends.  A span's self time is its duration
minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

#: The seven passes ``cleanup`` runs to a fixpoint, in their own
#: modules: ``cleanup`` imports them from there on every call.
#: (``repro.opt.constant_fold`` as an attribute is the function, not the
#: module, hence the module names go through ``sys.modules``.)
CLEANUP_PASSES = (
    ("opt.simplify_cfg", "repro.opt.simplify_cfg", "simplify_cfg"),
    ("opt.constant_fold", "repro.opt.constant_fold", "constant_fold"),
    ("opt.copy_propagate", "repro.opt.copy_prop", "copy_propagate"),
    ("opt.global_const_prop", "repro.opt.global_const",
     "global_const_prop"),
    ("opt.local_cse", "repro.opt.cse", "local_cse"),
    ("opt.peephole", "repro.opt.peephole", "peephole"),
    ("opt.dead_code_elimination", "repro.opt.dce", "dead_code_elimination"),
)

#: (span name, module, attribute): each function as its caller binds it.
FUNCTIONS = CLEANUP_PASSES + (
    # the pipeline's stages, as bound in repro.pipeline
    ("frontend", "repro.pipeline", "compile_source"),
    ("ir.verify", "repro.pipeline", "verify_module"),
    ("opt.cleanup", "repro.pipeline", "cleanup"),
    ("opt.licm", "repro.pipeline", "loop_invariant_code_motion"),
    ("opt.strength_reduce", "repro.pipeline", "strength_reduce"),
    ("opt.unroll", "repro.pipeline", "unroll_function"),
    ("coalesce", "repro.pipeline", "coalesce_function"),
    ("machine.lower", "repro.pipeline", "lower_module"),
    ("sched", "repro.pipeline", "schedule_module"),
    # run_to_fixpoint verifies after every pass that changed something
    ("ir.verify", "repro.opt.pass_manager", "verify_function"),
    # compile_minic, called directly and from the compile cache
    ("pipeline", "repro.pipeline", "compile_minic"),
    ("pipeline", "repro.bench.cache", "compile_minic"),
    ("bench.cache", "repro.bench.cache", "cached_compile_minic"),
    ("ir.parse", "repro.ir.parser", "parse_module"),
    ("ir.format", "repro.bench.cache", "format_module"),
)

#: (span name, method) of repro.sim.Simulator.  The compiled backend
#: translates every block when the simulator is built.
SIMULATOR_METHODS = (
    ("sim.translate", "__init__"),
    ("sim.stage", "alloc_array"),
    ("sim.stage", "write_words"),
    ("sim.exec", "call"),
    ("sim.readback", "read_words"),
    ("sim.report", "report"),
)

PASS_NAMES = tuple(name for name, _, _ in CLEANUP_PASSES)


def _pass_info(recorder, args, result):
    recorder.note_analyses(args[1].analyses)
    return {"changed": bool(result)}


def _coalesce_info(recorder, args, reports):
    return {
        "loops": sum(1 for r in reports if r.applied),
        "elided": sum(r.checks_elided for r in reports),
    }


def _translate_info(recorder, args, result):
    engine = args[0].engine
    if not hasattr(engine, "translation_stats"):
        return None  # not the compiled backend
    stats = engine.translation_stats()
    return {"blocks": stats["blocks"], "hits": stats["cache_hits"]}


def _report_info(recorder, args, report):
    return {"instrs": report.instr_count}


_INFO = {
    **{name: _pass_info for name in PASS_NAMES},
    "coalesce": _coalesce_info,
    "sim.translate": _translate_info,
    "sim.report": _report_info,
}


class Recorder:
    """Collects spans from any thread; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.op: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        # id(manager) -> (first seen, AnalysisManager); the reference
        # keeps the id from being reused by a later manager.
        self._analyses: Dict[int, tuple] = {}

    def note_analyses(self, manager) -> None:
        if id(manager) not in self._analyses:
            self._analyses[id(manager)] = (clock(), manager)

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call.  ``functools.wraps`` keeps
        ``__name__`` and the ``preserves`` declaration that
        ``run_to_fixpoint`` and ``invalidate_after`` read."""
        info = _INFO.get(name)
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            sid = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = None
                if done and info is not None:
                    extra = info(recorder, args, result)
                recorder.spans.append(
                    (sid, name, start, end, parent, recorder.op, extra)
                )

        return wrapper

    def records(self) -> Iterable[dict]:
        for sid, name, start, end, parent, op, info in list(self.spans):
            record = {"kind": "span", "id": sid, "name": name,
                      "start": start, "end": end, "parent": parent,
                      "op": op}
            if info:
                record["info"] = info
            yield record
        for seen, manager in list(self._analyses.values()):
            yield {"kind": "analysis", "seen": seen,
                   "hits": manager.hits, "misses": manager.misses}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for record in self.records():
                out.write(json.dumps(record) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every traced function where its callers look it up.

    Every module is imported before anything is wrapped, so no module
    binds an already wrapped function at import and records it twice.
    """
    for _, module_name, _ in FUNCTIONS:
        importlib.import_module(module_name)
    for name, module_name, attr in FUNCTIONS:
        module = sys.modules[module_name]
        setattr(module, attr, recorder.wrap(name, getattr(module, attr)))
    from repro.sim import Simulator

    for name, method in SIMULATOR_METHODS:
        setattr(Simulator, method,
                recorder.wrap(name, getattr(Simulator, method)))


def load(path) -> List[dict]:
    with open(path) as records:
        return [json.loads(line) for line in records]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(records: List[dict], window: Tuple[float, float],
                  slowdown_at: Callable[[float], float]
                  ) -> Dict[str, float]:
    """Per-layer metrics over the spans that lie inside ``window``.

    Times are nominal seconds (each span's duration over the host's
    slowdown when it began, ``slowdown_at``) summed over the window;
    layers the workload never reaches read 0.
    """
    lo, hi = window
    spans = [r for r in records if r["kind"] == "span"
             and lo <= r["start"] and r["end"] <= hi]
    names = {s["id"]: s["name"] for s in spans}
    nominal = {s["id"]: (s["end"] - s["start"]) / slowdown_at(s["start"])
               for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += nominal[s["id"]]
    incl, own = defaultdict(float), defaultdict(float)
    calls = Counter()
    info = defaultdict(Counter)
    for s in spans:
        duration = nominal[s["id"]]
        incl[s["name"]] += duration
        own[s["name"]] += duration - covered[s["id"]]
        calls[s["name"]] += 1
        info[s["name"]].update(s.get("info") or {})

    inner = [s for s in spans if s["name"] in PASS_NAMES
             and names.get(s["parent"]) == "opt.cleanup"]
    compiles = sum(1 for s in spans if s["name"] == "pipeline"
                   and names.get(s["parent"]) == "bench.cache")
    analyses = [r for r in records if r["kind"] == "analysis"
                and lo <= r["seen"] <= hi]
    hits = sum(r["hits"] for r in analyses)
    lookups = hits + sum(r["misses"] for r in analyses)

    metrics = {
        "frontend.self_s": own["frontend"],
        "pipeline.self_s": own["pipeline"],
        "opt.cleanup.incl_s": incl["opt.cleanup"],
        "opt.cleanup.self_s": own["opt.cleanup"],
        "opt.cleanup.calls": calls["opt.cleanup"],
        "opt.cleanup.rounds": sum(
            1 for s in inner if s["name"] == "opt.simplify_cfg"),
        "opt.pass_calls": len(inner),
        "opt.pass_changed_ratio": _ratio(
            sum(1 for s in inner if s.get("info", {}).get("changed")),
            len(inner)),
    }
    for name in PASS_NAMES + ("opt.licm", "opt.strength_reduce",
                              "opt.unroll"):
        metrics[f"{name}.self_s"] = own[name]
    sim_exec = own["sim.exec"]
    metrics.update({
        "analysis.hit_ratio": _ratio(hits, lookups),
        "coalesce.self_s": own["coalesce"],
        "coalesce.loops_applied": info["coalesce"]["loops"],
        "coalesce.checks_elided": info["coalesce"]["elided"],
        "machine.lower.self_s": own["machine.lower"],
        "sched.self_s": own["sched"],
        "ir.verify.self_s": own["ir.verify"],
        "ir.parse.self_s": own["ir.parse"],
        "ir.format.self_s": own["ir.format"],
        "sim.translate_s": own["sim.translate"],
        "sim.block_cache_hit_ratio": _ratio(
            info["sim.translate"]["hits"], info["sim.translate"]["blocks"]),
        "sim.stage_s": own["sim.stage"],
        "sim.exec_s": sim_exec,
        "sim.instrs_per_s": _ratio(info["sim.report"]["instrs"], sim_exec),
        "sim.readback_s": own["sim.readback"],
        "sim.report_s": own["sim.report"],
        "bench.cache.self_s": own["bench.cache"],
        "bench.cache.hit_ratio": _ratio(
            calls["bench.cache"] - compiles, calls["bench.cache"]),
        "bench.cache.compiles": compiles,
    })
    return metrics


def layer_time(records: List[dict], window: Tuple[float, float]
               ) -> Tuple[float, float]:
    """(time inside outermost layer spans, time inside op spans).

    Layer spans are outermost when nothing but a benchmark ``op`` span
    encloses them; inside the compile server there are no op spans.
    """
    lo, hi = window
    spans = [r for r in records if r["kind"] == "span"
             and lo <= r["start"] and r["end"] <= hi]
    ops = {s["id"] for s in spans if s["name"] == "op"}
    layers = sum(s["end"] - s["start"] for s in spans if s["id"] not in ops
                 and (s["parent"] is None or s["parent"] in ops))
    total = sum(s["end"] - s["start"] for s in spans if s["id"] in ops)
    return layers, total


def percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
