"""What every workload shares: op samples, rounds, host speed, and the
end-to-end metrics.

A workload runs its ops in *rounds*.  A round covers every cell of the
workload once (the service's rounds add a few cold requests), and a
phase always ends on a round boundary, so every run of one seed does
the same mix of work whatever the host speed.

The benchmark's host is shared, and its speed swings by up to 2x over a
few seconds: the mean op time of a 10-second window moves by a quarter
from one window to the next.  So between ops, while the system under
test is idle, the benchmark times a fixed pure-Python computation that
shares no code with the program (the *probe*).  Every time metric is
reported in nominal seconds: the measured wall time divided by the
probe's slowdown at that moment, the slowdown being the probe's time
over ``PROBE_NOMINAL_S``.  A change to the program moves its times and
not the probe's, so it shows in full.  The raw wall times are printed
beside the metrics on standard error.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from spans import clock, percentile

HERE = Path(__file__).resolve().parent

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
PROBE_ITERATIONS = 5000
#: Times are reported as if the probe took this long; one core of a
#: quiet 2 GHz virtual machine runs it in about 0.7 ms.
PROBE_NOMINAL_S = 0.001
#: Probes on each side of an op whose median is the op's slowdown.
PROBE_WINDOW = 4


#: The probe's table exists before it runs, so the probe allocates no
#: container and never triggers (or pays for) the garbage collector.
_PROBE_TABLE = dict.fromkeys(range(256), 0)


def probe() -> float:
    """The host's slowdown now: the probe's time over its nominal time."""
    table = _PROBE_TABLE
    started = clock()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total = (total * 31 + i) & 0xFFFFFFFF
        table[i & 255] = total
    return (clock() - started) / PROBE_NOMINAL_S


def slowdown(count: int = 5) -> float:
    """The median of ``count`` probes taken back to back."""
    return statistics.median(probe() for _ in range(count))


class PairedSlowdown:
    """The host's slowdown with both of its cores busy: a helper process
    probes at the same time as this one, and the slowdown is the mean of
    the two.  A workload that keeps two processes busy, as the compile
    service and its clients do, slows down when the cores share a
    physical core, which a probe running alone does not see."""

    def __init__(self):
        code = (f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
                "import measure\n"
                "for line in sys.stdin:\n"
                "    print(measure.slowdown(int(line)), flush=True)\n")
        self.helper = subprocess.Popen(
            [sys.executable, "-c", code], text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def __call__(self, count: int) -> float:
        self.helper.stdin.write(f"{count}\n")
        self.helper.stdin.flush()
        here = slowdown(count)
        return (here + float(self.helper.stdout.readline())) / 2

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.stdout.close()
        try:
            self.helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.helper.kill()
            self.helper.wait()


class SpeedLog:
    """The host's slowdown sampled over a phase with ``measure(probes)``."""

    def __init__(self, window: int,
                 measure: Callable[[int], float] = slowdown):
        self.window = window
        self.measure = measure
        self.times: List[float] = []
        self.values: List[float] = []

    def sample(self, probes: int = 1) -> None:
        self.values.append(self.measure(probes))
        self.times.append(clock())

    def at(self, moment: float) -> float:
        """The median of the ``window`` samples on each side of
        ``moment``."""
        index = bisect.bisect(self.times, moment)
        return statistics.median(
            self.values[max(0, index - self.window):index + self.window])


@dataclass
class Sample:
    """One completed op."""

    cell: object
    seconds: float
    ok: bool
    cycles: Optional[int] = None
    #: static RTL instructions of the module the op compiled, if any
    code: Optional[int] = None
    #: was the op's input (its compile key) used by an earlier op or set-up?
    repeated: bool = False
    #: the server's own time for the request (service-mixed only)
    server_s: Optional[float] = None
    #: ``seconds`` at nominal host speed
    nominal: float = 0.0
    #: when the op began (``spans.clock``)
    started: float = 0.0


def import_seconds(module: str) -> float:
    """Seconds a fresh interpreter takes to import ``module``, one of
    the benchmark's workload modules, and with it the compiler."""
    code = (
        "import sys, time\n"
        "started = time.perf_counter()\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]\n"
        f"import {module}\n"
        "print(time.perf_counter() - started)\n"
    )
    child = subprocess.run([sys.executable, "-c", code], check=True,
                           capture_output=True, text=True)
    return float(child.stdout)


def timed_setup(module: str, setup: Callable[[], object],
                repeats: int = SETUP_REPEATS) -> Tuple[object, float]:
    """Set up ``repeats`` times; returns the last state and the median
    set-up time in nominal seconds.  Each repetition times the imports
    of ``module`` in a fresh interpreter plus one call of ``setup`` in
    this process, between two host-speed samples."""
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and hasattr(state, "close"):
            state.close()
        before = slowdown()
        imports = import_seconds(module)
        started = clock()
        state = setup()
        seconds = imports + clock() - started
        times.append(seconds / ((before + slowdown()) / 2))
    return state, statistics.median(times)


def run_rounds(rounds: Iterable[list], op: Callable, budget: Optional[float],
               on_round: Optional[Callable[[], None]] = None,
               recorder=None) -> Tuple[List[Sample], float, SpeedLog]:
    """Run whole rounds of ``op(item) -> Sample`` until ``budget`` seconds
    have passed (or every round when ``budget`` is None); returns the
    samples, the phase's nominal seconds and its host-speed log.

    A probe runs before every op and after the last; an op's slowdown
    is the median of the ``PROBE_WINDOW`` probes on each side of it.
    With a ``recorder``, each op is recorded as a span named ``op``.
    """
    if recorder is not None:
        op = recorder.wrap("op", op)
    samples: List[Sample] = []
    speed = SpeedLog(PROBE_WINDOW)
    started = clock()
    for items in rounds:
        if budget is not None and clock() - started >= budget:
            break
        if on_round is not None:
            on_round()
        for item in items:
            speed.sample()
            if recorder is not None:
                recorder.op = len(samples)
            begun = clock()
            try:
                sample = op(item)
            except Exception:  # noqa: BLE001 - a failed op is counted
                traceback.print_exc(file=sys.stderr)
                sample = Sample(item, 0.0, False)
            sample.seconds = clock() - begun
            sample.started = begun
            samples.append(sample)
    speed.sample()
    for sample in samples:
        sample.nominal = sample.seconds / speed.at(sample.started)
    return samples, sum(s.nominal for s in samples), speed


def per_cell(samples: List[Sample], field: str) -> Dict[object, int]:
    """The value of ``field`` for each cell, from its first good op.

    Every op of one cell must agree: the simulator and the compiler are
    both deterministic.  An op that disagrees with the cell's first
    value is reported and marked failed, never averaged away.
    """
    values: Dict[object, int] = {}
    for sample in samples:
        value = getattr(sample, field)
        if not sample.ok or value is None:
            continue
        first = values.setdefault(sample.cell, value)
        if first != value:
            print(f"perfbench: finding: {field} of {sample.cell} differs "
                  f"between ops of one run: {first} then {value}",
                  file=sys.stderr)
            sample.ok = False
    return values


def geomean(values: Iterable[int]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def own_peak_rss_mb() -> float:
    """Peak resident MiB of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(samples: List[Sample], phase_s: float, setup_s: float,
               peak_rss_mb: float, code_instrs: int) -> Dict[str, float]:
    """The end-to-end metrics; ``phase_s`` is the timed phase's nominal
    seconds."""
    latencies = [s.nominal * 1000.0 for s in samples]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(samples) / phase_s if phase_s else 0.0,
        "op_ms_p50": percentile(latencies, 0.50),
        "op_ms_p90": percentile(latencies, 0.90),
        "peak_rss_mb": peak_rss_mb,
        "sim_cycles_geomean": geomean(per_cell(samples, "cycles").values()),
        "code_instrs": code_instrs,
    }


def repeated_ratio(samples: List[Sample]) -> float:
    return sum(s.repeated for s in samples) / len(samples) if samples else 0.0
