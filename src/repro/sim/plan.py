"""One kernel call as data, staged and read back one way for every caller.

The bench harness, ``repro run``, the service's ``simulate`` op,
:func:`repro.pipeline.compile_and_run` and the fixtures of the
differential sanitizer, the ``alias-consistency`` audit and
``repro chaos`` all stage through :func:`run_plan`.  Staging order fixes
the simulated addresses, and the addresses decide which way the paper's
Fig. 5 checks branch and which D-cache lines collide.  An argument
``[name, byte offset]`` points into a staged array, so one plan can pass
a misaligned base or two pointers into one array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.timing import span


def to_signed(value: int, bits: int) -> int:
    """Two's complement reading of a ``bits``-wide machine word."""
    return value - (1 << bits) if value >= 1 << (bits - 1) else value


@dataclass
class Plan:
    """One kernel call: what to stage, how to call it, what must come back.

    ``arrays`` holds ``(name, element bytes, values)`` in staging order;
    a string in ``args`` passes the address of the array it names, and
    ``[name, offset]`` that address plus ``offset`` bytes, which must
    lie inside the array.
    ``outputs`` and ``result`` (signed; None: unchecked) are what the
    call must leave and return.  A malformed plan raises
    :class:`ReproError` when built, before anything is compiled.
    """

    entry: str
    arrays: Sequence[Tuple[str, int, List[int]]]
    args: Sequence[Union[str, int]]
    outputs: Dict[str, List[int]] = field(default_factory=dict)
    result: Optional[int] = None

    def __post_init__(self) -> None:
        if not (isinstance(self.arrays, (list, tuple))
                and isinstance(self.args, (list, tuple))):
            raise ReproError("'arrays' and 'args' must be lists")
        self.arrays = [_array(item) for item in self.arrays]
        sizes: Dict[str, int] = {}
        for name, width, values in self.arrays:
            if name in sizes:
                raise ReproError(f"array {name!r} is staged twice")
            sizes[name] = width * len(values)
        for arg in self.args:
            if isinstance(arg, int) or isinstance(arg, str) and arg in sizes:
                continue
            if not (isinstance(arg, (list, tuple)) and len(arg) == 2
                    and isinstance(arg[0], str)):
                raise ReproError(
                    f"argument {arg!r} is neither an integer nor the name "
                    "of a staged array, bare or as [name, byte offset]"
                )
            name, offset = arg
            if name not in sizes:
                raise ReproError(f"argument {arg!r}: no array named {name!r}")
            if not (isinstance(offset, int) and 0 <= offset < sizes[name]):
                raise ReproError(
                    f"argument {arg!r}: offset {offset!r} is not inside "
                    f"the {sizes[name]} bytes of {name!r}"
                )


def _array(item) -> Tuple[str, int, List[int]]:
    if not isinstance(item, (list, tuple)) or len(item) != 3:
        raise ReproError(f"bad array {item!r}; want [name, width, values]")
    name, width, values = item
    if not (isinstance(name, str) and isinstance(width, int) and width > 0
            and isinstance(values, (list, tuple))):
        raise ReproError(f"bad array {name!r}: want name, width > 0, values")
    for value in values:
        if not isinstance(value, int):
            raise ReproError(f"array {name!r}: {value!r} is not an integer")
    return name, width, list(values)


def run_plan(sim, plan: Plan) -> Optional[int]:
    """Stage ``plan``'s arrays in order and call its entry; returns the
    signed result, or None for an entry that returns nothing."""
    with span("sim.stage"):
        for name, width, values in plan.arrays:
            address = sim.alloc_array(name, size=max(len(values), 1) * width)
            sim.write_words(address, values, width)
    with span("sim.exec"):
        value = sim.call(plan.entry, *[
            arg if isinstance(arg, int)
            else sim.array_addr(arg) if isinstance(arg, str)
            else sim.array_addr(arg[0]) + arg[1]
            for arg in plan.args
        ])
    return None if value is None else to_signed(value, sim.machine.word_bits)


def check(sim, plan: Plan, result: Optional[int]) -> bool:
    """Did the call return ``plan.result`` and leave ``plan.outputs`` in
    the staged arrays?  Elements compare modulo the element width."""
    if plan.result is not None and result != plan.result:
        return False
    widths = {name: width for name, width, _ in plan.arrays}
    with span("sim.readback"):
        for name, expected in plan.outputs.items():
            mask = (1 << (8 * widths[name])) - 1
            got = sim.read_words(
                sim.array_addr(name), len(expected), widths[name], signed=False
            )
            if got != [value & mask for value in expected]:
                return False
    return True


def dump(sim, plan: Plan, count: int) -> Dict[str, List[int]]:
    """The first ``count`` elements of each staged array, signed: at
    most 64, and never past the end of the array."""
    with span("sim.readback"):
        return {
            name: sim.read_words(
                sim.array_addr(name), min(count, 64, len(values)), width
            )
            for name, width, values in plan.arrays
        }
