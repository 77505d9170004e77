"""High-level simulation façade.

:class:`Simulator` ties together memory, interpreter and cost model
behind the interface that :func:`repro.sim.plan.run_plan` stages and
calls through and :meth:`repro.pipeline.CompiledProgram.measure` prices.
"""

from __future__ import annotations

import os
import struct
import weakref
from typing import Dict, Optional, Sequence

from repro.errors import SimulationError
from repro.ir.function import Module
from repro.machine.machine import MachineDescription
from repro.sim.costs import CycleReport, cycle_report
from repro.sim.facts import ModuleFacts
from repro.sim.interp import Interpreter
from repro.sim.memory import SimMemory
from repro.timing import span


#: Backends selectable via ``backend=`` / ``--sim-backend`` /
#: ``REPRO_SIM_BACKEND``.
SIM_BACKENDS = ("interp", "compiled")

#: Unsigned ``struct`` codes of the widths staged in one call; the
#: signed code is the lower-case letter.
_WORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def default_max_steps() -> int:
    """The watchdog step budget: ``REPRO_MAX_STEPS`` or 200M."""
    raw = os.environ.get("REPRO_MAX_STEPS", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise SimulationError(
                f"bad REPRO_MAX_STEPS value {raw!r} (want an integer)"
            ) from None
    return 200_000_000


def default_sim_backend() -> str:
    """The simulator backend: ``REPRO_SIM_BACKEND`` or ``interp``."""
    raw = os.environ.get("REPRO_SIM_BACKEND", "").strip().lower()
    if not raw:
        return "interp"
    if raw not in SIM_BACKENDS:
        raise SimulationError(
            f"bad REPRO_SIM_BACKEND value {raw!r} "
            f"(want {'|'.join(SIM_BACKENDS)})"
        )
    return raw


class Simulator:
    """One module loaded on one machine, ready to run.

    ``backend`` picks one of the two execution engines: ``interp`` (the
    reference interpreter) or ``compiled`` (the block-compiling
    direct-threaded engine, bit-identical on all accounted quantities).
    When it is not given the ``REPRO_SIM_BACKEND`` environment default
    applies.

    A compiled engine lives as long as its Simulator: dropping the
    Simulator closes the engine (:meth:`CompiledEngine.close`), which
    frees the memory arena at once.

    ``facts`` are the module's derived facts (:mod:`repro.sim.facts`):
    a compiled program passes the ones it keeps, so its simulators share
    one layout, registration, set of closure keys and block-cost table;
    without them the Simulator derives its own.

    The compiled backend silently degrades to the interpreter whenever
    observation hooks are installed (``fault_hook``/``trace_hook``) or
    fault injection is active via ``REPRO_FAULTS`` — mirroring how
    alias-check elision auto-disables under chaos.  The decision is
    recorded in ``backend_requested`` / ``backend`` /
    ``fallback_reason``.
    """

    def __init__(
        self,
        module: Module,
        machine: MachineDescription,
        simulate_caches: bool = True,
        max_steps: Optional[int] = None,
        fault_hook=None,
        trace_hook=None,
        backend: Optional[str] = None,
        cancel=None,
        block_cache=None,
        facts: Optional[ModuleFacts] = None,
    ):
        if facts is None:
            facts = ModuleFacts(module, machine)
        elif facts.module is not module or facts.machine is not machine:
            raise SimulationError("facts describe another module or machine")
        self.module = module
        self.machine = machine
        self.facts = facts
        self.memory = SimMemory(endian=machine.endian)
        if max_steps is None:
            max_steps = default_max_steps()
        self.max_steps = max_steps
        requested = backend or default_sim_backend()
        self.backend_requested = requested
        self.fallback_reason: Optional[str] = None
        resolved = requested
        if requested == "compiled":
            reason = None
            if fault_hook is not None:
                reason = "fault_hook installed"
            elif trace_hook is not None:
                reason = "trace_hook installed"
            else:
                from repro.resilience.faults import FaultPlan

                if FaultPlan.from_env():
                    reason = "fault injection active (REPRO_FAULTS)"
            if reason is not None:
                resolved = "interp"
                self.fallback_reason = reason
        self.backend = resolved
        if resolved == "interp":
            self.engine = Interpreter(
                module,
                machine,
                memory=self.memory,
                simulate_caches=simulate_caches,
                max_steps=max_steps,
                fault_hook=fault_hook,
                trace_hook=trace_hook,
                cancel=cancel,
                facts=facts,
            )
        elif resolved == "compiled":
            from repro.sim.translate import CompiledEngine

            # Registers every block; a closure is translated when
            # control first enters it, under the call's sim.exec.
            with span("sim.translate"):
                self.engine = CompiledEngine(
                    module,
                    machine,
                    memory=self.memory,
                    simulate_caches=simulate_caches,
                    max_steps=max_steps,
                    cancel=cancel,
                    block_cache=block_cache,
                    facts=facts,
                )
            # The engine's closures refer to each other in cycles:
            # closing it when this Simulator goes frees the arena at
            # once instead of whenever the cyclic GC runs.
            weakref.finalize(self, self.engine.close).atexit = False
        else:
            raise SimulationError(
                f"unknown simulator backend {resolved!r} "
                f"(want {'|'.join(SIM_BACKENDS)})"
            )
        self._arrays: Dict[str, int] = {}
        self._stagger_counter = 0

    # -- data staging -------------------------------------------------------
    def alloc_array(
        self,
        name: str,
        contents: bytes = b"",
        size: Optional[int] = None,
        align: int = 8,
        offset: int = 0,
        stagger: bool = True,
    ) -> int:
        """Allocate a named buffer, optionally initialized; returns address.

        ``offset`` nudges the buffer off its alignment — used to exercise
        the run-time alignment checks the paper inserts in loop preheaders.
        ``stagger`` (default) inserts a small aligned gap between
        consecutive arrays so power-of-two-sized buffers do not land on
        identical direct-mapped cache indices (the kind of pathological
        conflict layout a real allocator rarely produces).
        """
        nbytes = size if size is not None else len(contents)
        if nbytes <= 0:
            raise SimulationError(f"array {name!r} would be empty")
        if stagger and self._stagger_counter:
            line = self.machine.dcache.line_bytes
            gap = (self._stagger_counter * 5 % 16 + 1) * line
            self.memory.alloc(gap, align=8)
        self._stagger_counter += 1
        addr = self.memory.alloc(nbytes, align=align, offset=offset)
        if contents:
            self.memory.write_bytes(addr, contents)
        self._arrays[name] = addr
        return addr

    def array_addr(self, name: str) -> int:
        try:
            return self._arrays[name]
        except KeyError:
            raise SimulationError(f"no array named {name!r}") from None

    def read_array(self, name: str, count: int) -> bytes:
        return self.memory.read_bytes(self.array_addr(name), count)

    def _word_format(self, count: int, width: int, signed: bool) -> str:
        code = _WORD_CODES[width]
        order = "<" if self.memory.endian == "little" else ">"
        return f"{order}{count}{code.lower() if signed else code}"

    def write_words(
        self, addr: int, values: Sequence[int], width: int
    ) -> None:
        """Write a sequence of fixed-width integers starting at ``addr``.

        Each value is stored as its low ``width`` bytes.  Widths 1, 2, 4
        and 8 pack the whole sequence in one ``struct`` call; other
        widths convert element by element."""
        mask = (1 << (8 * width)) - 1
        if width not in _WORD_CODES:
            payload = b"".join(
                (v & mask).to_bytes(width, self.memory.endian)
                for v in values
            )
        else:
            layout = self._word_format(len(values), width, signed=False)
            try:
                payload = struct.pack(layout, *values)
            except struct.error:  # negative or over-wide values
                payload = struct.pack(layout, *[v & mask for v in values])
        self.memory.write_bytes(addr, payload)

    def read_words(
        self, addr: int, count: int, width: int, signed: bool = True
    ) -> list:
        """Read ``count`` fixed-width integers starting at ``addr``
        (one ``struct`` call for widths 1, 2, 4 and 8)."""
        raw = self.memory.read_bytes(addr, count * width)
        if width in _WORD_CODES:
            # len(raw) // width is count, or 0 for a negative count.
            return list(struct.unpack(
                self._word_format(len(raw) // width, width, signed), raw
            ))
        return [
            int.from_bytes(
                raw[i * width:(i + 1) * width],
                self.memory.endian,
                signed=signed,
            )
            for i in range(count)
        ]

    # -- execution -------------------------------------------------------------
    def call(self, name: str, *args: int) -> Optional[int]:
        return self.engine.call(name, *args)

    def block_count(self, func_name: str, label: str) -> int:
        """How many times a block executed (drives fallback-path tests)."""
        return self.engine.stats.count_for(func_name, label)

    def report(self) -> CycleReport:
        """Price the run so far: each executed block at its static
        cycles from the facts' table, plus cache-miss penalties."""
        stats = self.engine.stats
        return cycle_report(
            self.module,
            self.machine,
            stats,
            icache=self.engine.icache,
            dcache=self.engine.dcache,
            block_cycle_table=self.facts.block_costs(stats.block_counts),
        )
