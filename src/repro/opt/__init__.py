"""Classic scalar and loop optimizations.

The paper embeds memory access coalescing in vpo's existing repertoire of
code improvements; this package is that repertoire: CFG simplification,
constant folding, copy propagation, local CSE, dead code elimination,
strength reduction with linear function test replacement, and loop
unrolling — everything needed to shape naive front-end output into the
canonical pointer-increment loops of Figure 1b.
"""

from repro.opt.pass_manager import PassContext
from repro.opt.simplify_cfg import simplify_cfg
from repro.opt.constant_fold import constant_fold
from repro.opt.copy_prop import copy_propagate
from repro.opt.cse import local_cse
from repro.opt.dce import dead_code_elimination
from repro.opt.strength_reduction import strength_reduce
from repro.opt.licm import loop_invariant_code_motion
from repro.opt.unroll import UnrollDecision, unroll_counted_loop, unroll_function

__all__ = [
    "PassContext",
    "UnrollDecision",
    "constant_fold",
    "copy_propagate",
    "dead_code_elimination",
    "local_cse",
    "loop_invariant_code_motion",
    "simplify_cfg",
    "strength_reduce",
    "unroll_counted_loop",
    "unroll_function",
]
