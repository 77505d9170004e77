"""Randomized differential testing: generated MiniC programs executed by
the full pipeline must match a Python evaluation of the same program.

The generator builds straight-line integer expression functions and
small array loops from a seed; the oracle evaluates the same AST-free
formula in Python with word-size semantics.  Any divergence between
`naive`, `cc`, `vpo` and `coalesce-all` (or between the `interp` and
`compiled` simulator backends) is a compiler bug.
"""

import random

import pytest

from repro.pipeline import compile_minic
from repro.sim import Simulator
from repro.sim.plan import to_signed

_BIN_OPS = [
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("*", lambda a, b: a * b),
    ("&", lambda a, b: a & b),
    ("|", lambda a, b: a | b),
    ("^", lambda a, b: a ^ b),
]


def _gen_expression(rng, variables, depth):
    """Returns (C text, python lambda over env)."""
    if depth <= 0 or rng.random() < 0.3:
        if variables and rng.random() < 0.7:
            name = rng.choice(variables)
            return name, lambda env, n=name: env[n]
        value = rng.randrange(-64, 64)
        return str(value), lambda env, v=value: v
    symbol, func = rng.choice(_BIN_OPS)
    left_text, left = _gen_expression(rng, variables, depth - 1)
    right_text, right = _gen_expression(rng, variables, depth - 1)
    if symbol == "*" and rng.random() < 0.5:
        # Keep products small-ish to stay meaningful after wraparound.
        factor = rng.randrange(1, 8)
        right_text, right = str(factor), (lambda env, v=factor: v)
    return (
        f"({left_text} {symbol} {right_text})",
        lambda env, f=func, l=left, r=right: f(l(env), r(env)),
    )


def _gen_program(seed):
    rng = random.Random(seed)
    variables = ["a", "b"]
    lines = ["long f(long a, long b) {"]
    assignments = []
    for index in range(rng.randrange(2, 7)):
        name = f"t{index}"
        text, evaluator = _gen_expression(rng, variables, 3)
        lines.append(f"    long {name} = {text};")
        assignments.append((name, evaluator))
        variables.append(name)
    result_text, result_eval = _gen_expression(rng, variables, 3)
    lines.append(f"    return {result_text};")
    lines.append("}")

    def oracle(a, b):
        mask = (1 << 64) - 1
        env = {"a": a & mask, "b": b & mask}

        def wrap(value):
            return value & mask

        for name, evaluator in assignments:
            env[name] = wrap(evaluator(env))
        return wrap(result_eval(env))

    return "\n".join(lines), oracle


@pytest.mark.parametrize("seed", range(25))
def test_random_expression_programs(seed):
    source, oracle = _gen_program(seed)
    rng = random.Random(seed * 31 + 7)
    inputs = [
        (rng.randrange(-1000, 1000), rng.randrange(-1000, 1000))
        for _ in range(4)
    ]
    results = {}
    for config in ("naive", "vpo"):
        program = compile_minic(source, "alpha", config)
        for backend in ("interp", "compiled"):
            sim = Simulator(program.module, program.machine, backend=backend)
            for a, b in inputs:
                got = sim.call("f", a, b)
                expected = oracle(a, b)
                key = (a, b)
                results.setdefault(key, got)
                assert got == expected, (
                    f"seed={seed} config={config} backend={backend} "
                    f"inputs={key}:\n{source}"
                )
                assert got == results[key]


@pytest.mark.parametrize("seed", range(10))
def test_random_array_loops(seed):
    rng = random.Random(seed + 1000)
    scale = rng.randrange(1, 6)
    offset = rng.randrange(-32, 32)
    op = rng.choice(["+", "^", "|", "&"])
    width_kw, width, signed_elem = rng.choice(
        [("unsigned char", 1, False), ("short", 2, True),
         ("int", 4, True)]
    )
    source = f"""
    void k({width_kw} *dst, {width_kw} *src, int n) {{
        int i;
        for (i = 0; i < n; i++)
            dst[i] = (src[i] * {scale}) {op} {offset & 0xFF};
    }}
    """
    n = rng.randrange(1, 40)
    values = [rng.randrange(-100, 100) if signed_elem
              else rng.randrange(256) for _ in range(n)]

    def oracle(value):
        raw = (value * scale)
        other = offset & 0xFF
        raw = {"+": raw + other, "^": raw ^ other,
               "|": raw | other, "&": raw & other}[op]
        raw &= (1 << (8 * width)) - 1
        return to_signed(raw, 8 * width) if signed_elem else raw

    expected = [oracle(v) for v in values]
    for machine in ("alpha", "m88100"):
        for config in ("naive", "coalesce-all"):
            program = compile_minic(source, machine, config)
            sim = program.simulator()
            dst = sim.alloc_array("dst", size=max(n, 1) * width)
            src = sim.alloc_array("src", size=max(n, 1) * width)
            sim.write_words(src, values, width)
            sim.call("k", dst, src, n)
            got = sim.read_words(dst, n, width, signed=signed_elem)
            assert got == expected, (
                f"seed={seed} machine={machine} config={config}\n{source}"
            )
