"""The benchmark's cells and their seeded inputs.

A *cell* is one (program, machine, variant) compilation of a Table I
program.  Its inputs are generated here from the workload seed with the
``repro.bench.workloads`` generators, and its expected outputs come from
the pure-Python ``repro.bench.workloads.ref_*`` references, never from
the compiler under test.  Everything is built during set-up, outside the
timed region.

Staging mirrors the compile service's ``simulate`` op (allocate every
array, then write its words, in list order), so a cell staged in-process
and the same cell staged by the server see identical simulated memory
layouts and report identical cycles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.bench import workloads as W
from repro.bench.harness import COLUMN_CONFIGS, COLUMNS, machine_overrides
from repro.bench.programs import BENCHMARKS

MACHINES = ("alpha", "m88100", "m68030")
PROGRAMS = tuple(BENCHMARKS)

#: translate()'s displacement.  The 8-byte column shift keeps the
#: destination rows aligned, so the coalesced loop (not its fallback)
#: runs; the one-row shift puts data inside the first 64 output bytes,
#: which is all the service's ``dump`` returns.
TRANSLATE_SHIFT = (8, 1)


@dataclass(frozen=True)
class Cell:
    program: str
    machine: str
    variant: str


def matrix(variants: Sequence[str] = COLUMNS) -> List[Cell]:
    """Every cell of ``PROGRAMS`` x ``MACHINES`` x ``variants``."""
    return [
        Cell(program, machine, variant)
        for machine in MACHINES
        for variant in variants
        for program in PROGRAMS
    ]


def compile_args(cell: Cell) -> Tuple[str, Dict[str, object]]:
    """The preset and overrides the bench harness uses for ``cell``."""
    preset, overrides = COLUMN_CONFIGS[cell.variant]
    merged = dict(machine_overrides(cell.machine))
    merged.update(overrides)
    return preset, merged


def source_of(cell: Cell, tag: Optional[str] = None) -> str:
    """The cell's MiniC source; ``tag`` appends a comment that makes the
    source (and so every compile-cache key) never seen before."""
    source = BENCHMARKS[cell.program].source
    return source if tag is None else f"{source}\n/* {tag} */\n"


def static_instrs(module) -> int:
    """RTL instructions in ``module`` (the generated code size)."""
    return sum(
        len(block.instrs) for func in module for block in func.blocks
    )


@dataclass
class Plan:
    """One kernel call: what to stage, how to call it, what must come back."""

    entry: str
    #: (name, element bytes, values), staged in this order
    arrays: List[Tuple[str, int, List[int]]]
    #: call arguments; a string names a staged array
    args: List[Union[str, int]]
    #: array name -> expected elements, as unsigned integers
    outputs: Dict[str, List[int]]
    #: expected signed return value; None for kernels returning nothing
    result: Optional[int] = None

    def width(self, name: str) -> int:
        return next(w for n, w, _ in self.arrays if n == name)


def _unsigned(values: List[int], width: int) -> List[int]:
    mask = (1 << (8 * width)) - 1
    return [v & mask for v in values]


def _image_pair(entry, reference, width=1, scale=1):
    def build(w, h, seed):
        pixels = w * h
        a = [v * scale for v in W.lcg_bytes(pixels, seed())]
        b = [v * scale for v in W.lcg_bytes(pixels, seed())]
        return Plan(
            entry,
            [("dst", width, [0] * pixels), ("a", width, a),
             ("b", width, b)],
            ["dst", "a", "b", pixels],
            {"dst": reference(a, b)},
        )
    return build


def _convolution(w, h, seed):
    src = W.lcg_bytes(w * h, seed())
    return Plan(
        "convolve",
        [("src", 1, src), ("dst", 1, [0] * (w * h))],
        ["src", "dst", w, h],
        {"dst": W.ref_convolution(src, w, h)},
    )


def _translate(w, h, seed):
    tx, ty = TRANSLATE_SHIFT
    src = W.lcg_bytes(w * h, seed())
    return Plan(
        "translate",
        [("src", 1, src), ("dst", 1, [0] * (w * h))],
        ["src", "dst", w, h, tx, ty],
        {"dst": W.ref_translate(src, w, h, tx, ty)},
    )


def _mirror(w, h, seed):
    src = W.lcg_bytes(w * h, seed())
    return Plan(
        "mirror",
        [("src", 1, src), ("dst", 1, [0] * (w * h))],
        ["src", "dst", w, h],
        {"dst": W.ref_mirror(src, w, h)},
    )


def _eqntott(w, h, seed):
    nterms, term_width = max(h, 4), max(w, 8)
    terms = W.eqntott_terms(nterms, term_width, seed=seed())
    return Plan(
        "eqntott",
        [("terms", 2, terms), ("work", 2, [0] * term_width)],
        ["terms", "work", nterms, term_width],
        {},
        W.ref_eqntott(terms, nterms, term_width),
    )


def _dotproduct(w, h, seed):
    count = w * h
    a = W.lcg_shorts(count, seed=seed(), span=2000)
    b = W.lcg_shorts(count, seed=seed(), span=2000)
    return Plan(
        "dotproduct",
        [("a", 2, a), ("b", 2, b)],
        ["a", "b", count],
        {},
        W.ref_dotproduct(a, b),
    )


def _blockstage(w, h, seed):
    src = W.lcg_bytes(w * h, seed())
    return Plan(
        "blockstage", [("src", 1, src)], ["src", w * h], {},
        W.ref_blockstage(src, w * h),
    )


def _spmv(w, h, seed):
    nrows, ncols = max(h, 4), 128
    vals, cols, rowptr = W.csr_matrix(nrows, ncols, seed=seed())
    x = W.lcg_shorts(ncols, seed=seed(), span=128)
    y, total = W.ref_spmv(vals, cols, rowptr, x, nrows)
    return Plan(
        "spmv",
        [("y", 4, [0] * nrows), ("val", 2, vals), ("col", 2, cols),
         ("rowptr", 4, rowptr), ("x", 2, x)],
        ["y", "val", "col", "rowptr", "x", nrows],
        {"y": _unsigned(y, 4)},
        total,
    )


def _histogram(w, h, seed):
    src = W.lcg_bytes(w * h, seed())
    hist = W.ref_histogram(src)
    return Plan(
        "histogram",
        [("hist", 4, [0] * 256), ("src", 1, src)],
        ["hist", "src", w * h],
        {"hist": hist},
        hist[0],
    )


def _strided_copy(w, h, seed):
    pixels = w * h
    src = W.lcg_bytes(2 * pixels, seed())
    return Plan(
        "strided_copy",
        [("dst", 1, [0] * pixels), ("src", 1, src)],
        ["dst", "src", pixels],
        {"dst": W.ref_strided_copy(src, pixels)},
    )


def _conv2d_rowwalk(w, h, seed):
    rows, width = max(h, 3), max(4, min(w, 64))
    m = W.lcg_bytes(rows * 64, seed())
    out = W.ref_conv2d_rowwalk(m, rows // 2, width)
    return Plan(
        "conv2d_rowwalk",
        [("m", 1, m), ("out", 1, [0] * width)],
        ["m", "out", rows // 2, width],
        {"out": out},
        out[1],
    )


_RECIPES: Dict[str, Callable] = {
    "convolution": _convolution,
    "image_add": _image_pair("image_add", W.ref_image_add),
    "image_add16": _image_pair("image_add16", W.ref_image_add16, 2, 257),
    "image_xor": _image_pair("image_xor", W.ref_image_xor),
    "translate": _translate,
    "eqntott": _eqntott,
    "mirror": _mirror,
    "dotproduct": _dotproduct,
    "blockstage": _blockstage,
    "spmv_csr": _spmv,
    "histogram": _histogram,
    "strided_copy": _strided_copy,
    "conv2d_rowwalk": _conv2d_rowwalk,
}


def make_plan(program: str, size: int, seed: int) -> Plan:
    """Seeded inputs and reference outputs for ``program`` at size x size.

    Each program draws its generator seeds from its own stream of the
    workload seed, so one seed gives the same inputs in every process.
    """
    stream = random.Random(f"{seed}/{program}/{size}")
    return _RECIPES[program](
        size, size, lambda: stream.randrange(1, 1 << 31)
    )


def make_plans(size: int, seed: int) -> Dict[str, Plan]:
    return {program: make_plan(program, size, seed) for program in PROGRAMS}


def to_signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def run_plan(sim, plan: Plan) -> Tuple[bool, int]:
    """Stage, call, read back and compare; returns (output ok, cycles)."""
    addresses = {}
    for name, width, values in plan.arrays:
        address = sim.alloc_array(name, size=max(len(values), 1) * width)
        sim.write_words(address, values, width)
        addresses[name] = address
    value = sim.call(plan.entry, *[
        addresses[arg] if isinstance(arg, str) else arg for arg in plan.args
    ])
    cycles = sim.report().total_cycles
    ok = plan.result is None or (
        value is not None
        and to_signed(value, sim.machine.word_bits) == plan.result
    )
    for name, expected in plan.outputs.items():
        got = sim.read_words(
            addresses[name], len(expected), plan.width(name), signed=False
        )
        ok = ok and got == expected
    return ok, cycles


def check_dump(response: dict, plan: Plan, dumped: int) -> bool:
    """Does a ``simulate`` response match ``plan``'s references?

    The service returns the first ``dumped`` elements of each array
    (reading past the end of a shorter one), so outputs are compared on
    that prefix.
    """
    if plan.result is not None and response.get("result") != plan.result:
        return False
    arrays = response.get("arrays") or {}
    for name, expected in plan.outputs.items():
        count = min(len(expected), dumped)
        got = _unsigned(arrays.get(name, [])[:count], plan.width(name))
        if got != expected[:count]:
            return False
    return True
