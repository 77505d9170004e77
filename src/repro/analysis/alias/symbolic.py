"""Symbolic address expressions.

A base register used by ``M[base + disp]`` is resolved to
``root + offset (+ step per iteration)`` by walking the use-def chains:

* ``FrameAddr`` / ``GlobalAddr`` name the root object directly;
* ``Mov``/``add``/``sub`` with constant operands accumulate the offset;
* ``mul``/``shl`` by a constant scale — a symbolic factor becomes an
  **affine term** ``coeff * reg``, anchored at the register's unique
  reaching definition so equal terms denote equal run-time values;
* a load feeding an address chain becomes an **index-load root**
  (``load:<site>``) — the shape classifier's signature of an indirect
  (gather) reference;
* a register with no reaching definition is an incoming **parameter**
  (its own root: the caller's pointer);
* a register that is a basic induction variable of the enclosing loop
  resolves to its loop-entry value plus the IV's byte step.

Anything else (several competing definitions, a term without a unique
anchor) resolves to ``None`` — the unanalyzable case the verdict
lattice treats as may-alias, exactly as the paper falls back to the
Figure 5 run-time check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.analysis.defuse import DefUseChains
from repro.analysis.induction import BasicIV
from repro.analysis.loops import Loop
from repro.ir.function import Function
from repro.ir.rtl import BinOp, Const, FrameAddr, GlobalAddr, Load, Mov, \
    Reg

#: How many definitions a single resolution may walk through; address
#: computations are short, so hitting this means "give up", not "try
#: harder".
MAX_WALK = 64

FRAME = "frame"
GLOBAL = "global"
PARAM = "param"
CONST = "const"
LOAD = "load"


@dataclass(frozen=True)
class Root:
    """The object a symbolic address points into.

    ``kind`` is ``'frame'`` (a stack slot of this function), ``'global'``
    (a module variable), ``'param'`` (an incoming pointer argument) or
    ``'const'`` (an absolute address).  ``name`` identifies the object
    within its kind: the slot name, the global name, or the parameter's
    register index as text.
    """

    kind: str
    name: str = ""

    def __repr__(self) -> str:
        return f"{self.kind}:{self.name}" if self.name else self.kind


@dataclass(frozen=True)
class Term:
    """One symbolic affine addend: the value of ``reg`` at its unique
    reaching definition ``site`` (``("", -1)`` for a parameter, whose
    value is fixed at entry).  Anchoring on the definition site — not
    just the register number — makes equal terms denote equal run-time
    values, so expressions with identical term tuples stay comparable.
    """

    reg: int
    site: Tuple[str, int] = ("", -1)
    #: ``'load'`` when the anchoring definition is a Load — the factor
    #: is a run-time index, the signature of an indirect reference.
    kind: str = "reg"

    def __repr__(self) -> str:
        label, index = self.site
        anchor = f"@{label}:{index}" if index >= 0 else ""
        return f"r{self.reg}{anchor}"


@dataclass(frozen=True)
class AddressExpr:
    """``root + offset + Σ coeff·term``, advancing ``step`` bytes per
    loop iteration.  ``terms`` is canonically sorted; the empty tuple is
    the plain single-base case every pre-affine consumer assumes."""

    root: Root
    offset: int = 0
    step: int = 0
    #: sorted ``(term, coeff)`` pairs with non-zero coefficients.
    terms: Tuple[Tuple[Term, int], ...] = ()

    def __repr__(self) -> str:
        text = f"{self.root}{self.offset:+d}"
        for term, coeff in self.terms:
            text += f"{coeff:+d}*{term!r}"
        if self.step:
            text += f" (step {self.step:+d}/iter)"
        return text


def _merge_terms(
    a: Tuple[Tuple[Term, int], ...],
    b: Tuple[Tuple[Term, int], ...],
    sign: int = 1,
) -> Tuple[Tuple[Term, int], ...]:
    """Canonical sum ``a + sign*b`` with zero coefficients dropped."""
    acc: Dict[Term, int] = dict(a)
    for term, coeff in b:
        acc[term] = acc.get(term, 0) + sign * coeff
    return tuple(
        sorted(
            ((t, c) for t, c in acc.items() if c != 0),
            key=lambda pair: (pair[0].reg, pair[0].site),
        )
    )


def resolve_reg_at(
    func: Function,
    chains: DefUseChains,
    label: str,
    index: int,
    reg_index: int,
    _depth: int = 0,
) -> Optional[AddressExpr]:
    """The symbolic value of ``reg_index`` just before instruction
    ``index`` of block ``label``, or ``None`` if unanalyzable."""
    if _depth > MAX_WALK:
        return None
    sites = chains.reaching.reaching_at(label, index, reg_index)
    if not sites:
        # No definition reaches: an incoming parameter (the verifier
        # guarantees anything else never executes).
        if any(p.index == reg_index for p in func.params):
            return AddressExpr(Root(PARAM, str(reg_index)))
        return None
    if len(sites) != 1:
        return None
    site_label, site_index = next(iter(sites))
    instr = func.block(site_label).instrs[site_index]

    if isinstance(instr, FrameAddr):
        return AddressExpr(Root(FRAME, instr.slot))
    if isinstance(instr, GlobalAddr):
        return AddressExpr(Root(GLOBAL, instr.name))
    if isinstance(instr, Load):
        # A loaded value feeding an address chain: its own root, named
        # by the load site.  Two chains meeting the same site denote the
        # same value; distinct sites stay may-alias.  This is the
        # signature the shape classifier reads as *indirect*.
        return AddressExpr(Root(LOAD, f"{site_label}:{site_index}"))
    if isinstance(instr, Mov):
        if isinstance(instr.src, Const):
            return AddressExpr(Root(CONST), instr.src.value)
        return resolve_reg_at(
            func, chains, site_label, site_index, instr.src.index,
            _depth + 1,
        )
    if isinstance(instr, BinOp) and instr.op in (
        "add", "sub", "and", "mul", "shl"
    ):
        # Resolve both operands; a literal constant is an absolute value
        # (the ``const`` root), a register resolves recursively.  This
        # folds the unroller's main-bound arithmetic symbolically:
        # ``(base + n) - base`` collapses to a constant even though the
        # operands are pointers no constant propagation can touch.
        def value_of(operand) -> Optional[AddressExpr]:
            if isinstance(operand, Const):
                return AddressExpr(Root(CONST), operand.value)
            if isinstance(operand, Reg):
                return resolve_reg_at(
                    func, chains, site_label, site_index, operand.index,
                    _depth + 1,
                )
            return None

        def term_of(operand) -> Optional[Term]:
            # An unresolvable register still names a value — if exactly
            # one definition reaches it here, anchor an opaque affine
            # term on that site (parameters anchor on entry).
            if not isinstance(operand, Reg):
                return None
            sites = chains.reaching.reaching_at(
                site_label, site_index, operand.index
            )
            if len(sites) == 1:
                site = next(iter(sites))
                defining = func.block(site[0]).instrs[site[1]]
                kind = "load" if isinstance(defining, Load) else "reg"
                return Term(operand.index, site, kind)
            if not sites and any(
                p.index == operand.index for p in func.params
            ):
                return Term(operand.index)
            return None

        lhs = value_of(instr.a)
        rhs = value_of(instr.b)
        if instr.op in ("mul", "shl"):
            # Scaling: constant * symbolic-value.  The scaled side may
            # itself be affine (scale every coefficient) or opaque (a
            # fresh single term); a scaled *pointer* stays unanalyzable.
            if instr.op == "shl":
                if rhs is None or rhs.root.kind != CONST or rhs.terms:
                    return None
                factor = 1 << rhs.offset
                scaled, scaled_operand = lhs, instr.a
            elif rhs is not None and rhs.root.kind == CONST \
                    and not rhs.terms:
                factor, scaled, scaled_operand = rhs.offset, lhs, instr.a
            elif lhs is not None and lhs.root.kind == CONST \
                    and not lhs.terms:
                factor, scaled, scaled_operand = lhs.offset, rhs, instr.b
            else:
                return None
            if factor == 0:
                return AddressExpr(Root(CONST), 0)
            if scaled is not None and scaled.root.kind == CONST:
                return AddressExpr(
                    Root(CONST),
                    scaled.offset * factor,
                    terms=tuple(
                        (t, c * factor) for t, c in scaled.terms
                    ),
                )
            # Anything else — an opaque value, an index load, or a
            # scaled non-constant root (a row offset ``64*(y-1)`` built
            # from an integer parameter resolves param-rooted) — folds
            # to one affine term anchored at the operand's unique
            # definition.
            term = term_of(scaled_operand)
            if term is None:
                return None
            if (
                scaled is not None
                and scaled.root.kind == LOAD
                and term.kind != "load"
            ):
                # The operand resolved through movs to a load; the
                # term is an index whatever its immediate def was.
                term = replace(term, kind="load")
            return AddressExpr(
                Root(CONST), 0, terms=((term, factor),)
            )
        if lhs is None or rhs is None:
            return None
        if instr.op == "add":
            if rhs.root.kind == CONST:
                return replace(
                    lhs,
                    offset=lhs.offset + rhs.offset,
                    terms=_merge_terms(lhs.terms, rhs.terms),
                )
            if lhs.root.kind == CONST:
                return replace(
                    rhs,
                    offset=lhs.offset + rhs.offset,
                    terms=_merge_terms(rhs.terms, lhs.terms),
                )
            return None
        if instr.op == "sub":
            if rhs.root.kind == CONST:
                return replace(
                    lhs,
                    offset=lhs.offset - rhs.offset,
                    terms=_merge_terms(lhs.terms, rhs.terms, sign=-1),
                )
            if lhs.root == rhs.root:
                # Same object: the address difference is the offset
                # difference plus whatever terms fail to cancel.
                return AddressExpr(
                    Root(CONST),
                    lhs.offset - rhs.offset,
                    terms=_merge_terms(lhs.terms, rhs.terms, sign=-1),
                )
            return None
        # 'and' folds only between known absolute values.
        if (
            lhs.root.kind == CONST and rhs.root.kind == CONST
            and not lhs.terms and not rhs.terms
        ):
            return AddressExpr(Root(CONST), lhs.offset & rhs.offset)
        return None
    return None


def resolve_loop_base(
    func: Function,
    chains: DefUseChains,
    loop: Loop,
    reg_index: int,
    ivs: Dict[int, BasicIV],
) -> Optional[AddressExpr]:
    """The symbolic address held by ``reg_index`` on entry to ``loop``,
    with the register's per-iteration byte step filled in.

    A basic IV resolves to its unique loop-entry definition; a
    loop-invariant register resolves to its value at the header.  Several
    competing entry definitions, or any unanalyzable link in the chain,
    yield ``None``.
    """
    entry_sites = {
        site
        for site in chains.reaching.incoming(loop.header, reg_index)
        if site[0] not in loop.blocks
    }
    in_loop_defs = any(
        site[0] in loop.blocks
        for site in chains.reaching.defs_of.get(reg_index, ())
    )
    iv = ivs.get(reg_index)
    if in_loop_defs and iv is None:
        return None  # redefined in the loop but not as a basic IV

    if not entry_sites:
        if in_loop_defs:
            # Only in-loop definitions exist, so on the entry edge the
            # register still holds its incoming value: a parameter
            # advanced directly as the loop's pointer, or undefined
            # (which the verifier guarantees never executes).
            if not any(p.index == reg_index for p in func.params):
                return None
            expr = AddressExpr(Root(PARAM, str(reg_index)))
        else:
            expr = resolve_reg_at(
                func, chains, loop.header, 0, reg_index
            )
    elif len(entry_sites) == 1:
        site_label, site_index = next(iter(entry_sites))
        # Value *after* the defining instruction == value of its
        # definition; resolve the register just past that site.
        expr = resolve_reg_at(
            func, chains, site_label, site_index + 1, reg_index
        )
    else:
        return None
    if expr is None:
        return None
    return replace(expr, step=iv.step if iv is not None else 0)
