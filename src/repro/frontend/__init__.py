"""MiniC front end.

The paper's benchmarks are C kernels compiled by ``vpcc``; we provide a
front end for a C subset ("MiniC") rich enough to express all of them:

* types: ``void``, ``char``, ``short``, ``int``, ``long`` with optional
  ``unsigned``, pointers, and one-dimensional arrays;
* declarations: globals, locals, functions;
* statements: blocks, ``if``/``else``, ``while``, ``for``, ``return``,
  ``break``, ``continue``, expression statements;
* expressions: the usual arithmetic/bitwise/relational/logical operators,
  assignments (including compound assignment), pre/post ``++``/``--``,
  calls, subscripts, ``*``/``&``, casts, ``sizeof`` and the conditional
  operator.

One documented deviation from ISO C: arithmetic is performed at machine
word width (narrow types affect memory accesses and conversions, not
intermediate wrap-around).  The paper's kernels never rely on intermediate
overflow, and 1990s RISC compilers made closely related choices.

Use :func:`compile_source` to go straight from source text to an RTL
module.
"""

from repro.frontend.lexer import Token, tokenize
from repro.frontend.parser import Parser, parse
from repro.frontend.sema import analyze
from repro.frontend.codegen import generate
from repro.frontend import cast as ast


def compile_source(source: str, word_bytes: int = 8, name: str = "module"):
    """Compile MiniC ``source`` into an (unoptimized) RTL module."""
    program = parse(source)
    analyze(program, word_bytes=word_bytes)
    return generate(program, word_bytes=word_bytes, name=name)


__all__ = [
    "Parser",
    "Token",
    "analyze",
    "ast",
    "compile_source",
    "generate",
    "parse",
    "tokenize",
]
