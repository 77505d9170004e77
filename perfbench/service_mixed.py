"""The service-mixed workload: a closed loop against ``python -m repro serve``.

The server runs in its default shape (one process, two worker threads)
on a private socket with a fresh ``--cache-dir``.  Set-up starts it and
warms the 78 (program, machine, ``vpo``/``coalesce-all``) compile keys
with ``compile`` requests.  The timed phase is a closed loop of two
connections, each sending its next ``simulate`` request (16x16, compiled
backend) only when the previous one has been answered, as ``submit`` and
CI shards do.

Each round requests every warm key once, except that one key per
program is replaced by a never-seen source (a unique trailing comment).
In a third of the rounds, rotating over the programs, a cold request is
sent twice back to back so both connections race for one cold key.
About four in five requests repeat a warm key.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import cells
import measure
import spans
from measure import Sample

from repro.errors import ReproError
from repro.ir import parse_module
from repro.service.client import ServiceClient

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZE = 16
#: The server returns at most this many elements of each staged array.
DUMP = 64
MAX_ROUNDS = 64
TRACE_ROUNDS = 3
RESPONSE_TIMEOUT = 120.0
READY_TIMEOUT = 60.0


class Server:
    """One ``repro serve`` process; ``spans_path`` runs it traced."""

    def __init__(self, run_dir: Path, spans_path: Optional[Path] = None):
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        # Relative to the checkout root, the cwd of both processes: an
        # absolute path could pass the 108-byte limit on socket paths.
        self.socket = os.path.relpath(run_dir / "serve.sock", ROOT)
        argv = ["serve", "--socket", self.socket,
                "--cache-dir", str(run_dir / "cache")]
        if spans_path is None:
            command = [sys.executable, "-m", "repro"] + argv
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(spans_path)] + argv
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.log = open(run_dir / "serve.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env,
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        client = ServiceClient(self.socket, retries=0)
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}")
            if client.ping():
                return
            time.sleep(0.02)
        raise RuntimeError("repro serve did not answer ping in time")

    def status(self) -> dict:
        return ServiceClient(self.socket, retries=0).status()

    def close(self) -> None:
        """Shut the server down and wait until it has exited."""
        if self.proc.poll() is None:
            ServiceClient(self.socket, retries=0).shutdown_server()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _request(cell: cells.Cell, tag: Optional[str],
             plan: cells.Plan) -> Dict:
    preset, overrides = cells.compile_args(cell)
    return dict(
        source=cells.source_of(cell, tag), entry=plan.entry,
        args=plan.args, arrays=plan.arrays, machine=cell.machine,
        config=preset, overrides=overrides, sim_backend="compiled",
        dump=DUMP,
    )


def _schedule(seed: int, warm_cells: List[cells.Cell]):
    """Rounds of (cell, tag) items; a tag marks a cold request.

    Every round sends each warm key once, except that each program's
    key is replaced by a cold one in one of its cells, rotating over the
    program's six cells so every cell is sent cold once in six rounds.
    The cold requests are spread evenly through the round, one after
    every five warm ones, and in every third round, rotating over the
    programs, a cold request is sent twice in a row so both connections
    race for one cold key.  The rotation and the spacing are the same
    for every seed, so how cold compiles overlap warm requests does not
    hang on the seed; the seed draws the order of the warm requests and
    of the cold ones.
    """
    draw = random.Random(f"{seed}/service")
    by_program = {
        program: [c for c in warm_cells if c.program == program]
        for program in cells.PROGRAMS
    }
    rounds = []
    for number in range(MAX_ROUNDS):
        cold = [by_program[program][(number + index) % 6]
                for index, program in enumerate(cells.PROGRAMS)]
        draw.shuffle(cold)
        warm = [cell for cell in warm_cells if cell not in cold]
        draw.shuffle(warm)
        stride = len(warm) // len(cold)
        tag = f"perfbench cold {seed}.{number}"
        items = []
        for index, cell in enumerate(cold):
            items.extend((c, None) for c in warm[index * stride:
                                                 (index + 1) * stride])
            items.append((cell, tag))
            if (cells.PROGRAMS.index(cell.program) + number) % 3 == 0:
                items.append((cell, tag))
        items.extend((c, None) for c in warm[len(cold) * stride:])
        rounds.append(items)
    return rounds


def _round(socket: str, items, send) -> List[Sample]:
    """One round: two callers, each sending the round's next item when
    its last one is answered."""
    lock = threading.Lock()
    pending = list(reversed(items))
    samples: List[Sample] = []

    def caller():
        # No retries: a retry would hide a rejection or timeout, and
        # every one of those counts as a failed op.
        client = ServiceClient(socket, retries=0,
                               response_timeout=RESPONSE_TIMEOUT)
        while True:
            with lock:
                if not pending:
                    return
                item = pending.pop()
            try:
                sample = send(client, *item)
            except Exception:  # noqa: BLE001 - a failed op is counted
                traceback.print_exc(file=sys.stderr)
                sample = Sample(item[0], 0.0, False)
            with lock:
                samples.append(sample)

    threads = [threading.Thread(target=caller) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def closed_loop(socket: str, rounds, send, budget: Optional[float]
                ) -> Tuple[List[Sample], float, measure.SpeedLog]:
    """Whole rounds until ``budget`` seconds have passed (or every round
    when ``budget`` is None); returns the samples, the nominal seconds
    the rounds took and the host-speed log.  The host's slowdown is
    sampled on both cores between rounds, while the server is idle, and
    a round's is the mean of the samples on either side of it."""
    samples: List[Sample] = []
    nominal_s = 0.0
    paired = measure.PairedSlowdown()
    try:
        speed = measure.SpeedLog(1, paired)
        speed.sample(5)
        started = spans.clock()
        for items in rounds:
            if budget is not None and spans.clock() - started >= budget:
                break
            begun = spans.clock()
            done = _round(socket, items, send)
            seconds = spans.clock() - begun
            speed.sample(5)
            factor = speed.at(begun)
            for sample in done:
                sample.nominal = sample.seconds / factor
            nominal_s += seconds / factor
            samples.extend(done)
    finally:
        paired.close()
    return samples, nominal_s, speed


class ServiceMixed:
    """Set-up state: seeded inputs, the schedule and a warm server."""

    def __init__(self, seed: int, run_dir: Path,
                 spans_path: Optional[Path] = None):
        self.plans = cells.make_plans(SIZE, seed)
        self.warm_cells = cells.matrix(("vpo", "coalesce-all"))
        self.rounds = _schedule(seed, self.warm_cells)
        self.server = Server(run_dir, spans_path)
        try:
            self.code_instrs = self._warm()
        except BaseException:
            self.server.close()
            raise

    def _warm(self) -> int:
        """Compile every warm key once; returns the static RTL
        instructions of the 78 modules the server sent back."""
        code = {}

        def compile_one(client, cell, _tag):
            preset, overrides = cells.compile_args(cell)
            response = client.compile(
                cells.source_of(cell), cell.machine, preset,
                overrides=overrides, include_rtl=True,
            )
            if response.get("status") != "ok":
                raise RuntimeError(f"warm-up of {cell} failed: {response}")
            code[cell] = cells.static_instrs(parse_module(response["rtl"]))
            return Sample(cell, 0.0, True)

        _round(self.server.socket,
               [(cell, None) for cell in self.warm_cells], compile_one)
        if len(code) != len(self.warm_cells):
            raise RuntimeError("warm-up did not compile every key")
        return sum(code.values())

    def send(self, client: ServiceClient, cell: cells.Cell,
             tag: Optional[str]) -> Sample:
        plan = self.plans[cell.program]
        started = spans.clock()
        try:
            response = client.simulate(**_request(cell, tag, plan))
        except (ReproError, OSError) as exc:
            print(f"perfbench: {cell} failed: {exc}", file=sys.stderr)
            return Sample(cell, spans.clock() - started, False)
        seconds = spans.clock() - started
        ok = (response.get("status") == "ok"
              and cells.check_dump(response, plan, DUMP))
        if not ok:
            print(f"perfbench: {cell} answered {response.get('status')}: "
                  f"{response.get('error', 'wrong output')}",
                  file=sys.stderr)
        return Sample(cell, seconds, ok, response.get("cycles"),
                      repeated=tag is None,
                      server_s=response.get("wall_seconds"))

    def close(self) -> None:
        self.server.close()


def _counters(status: dict) -> Dict[str, int]:
    return {
        "service.single_flight_shared": status["single_flight_shared"],
        "service.rejected": status["server"]["rejected"],
        "bench.cache.publishes": status["cache"]["publishes"],
    }


def run(seed: int, seconds: float, trace: bool,
        out_dir: Path) -> Tuple[List[Sample], Dict]:
    run_dir = out_dir / f"service-mixed-{os.getpid()}"
    try:
        if not trace:
            return _measure(seed, seconds, run_dir)
        return _trace(seed, run_dir, out_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(seed, seconds, run_dir):
    state, setup_s = measure.timed_setup(
        "service_mixed", lambda: ServiceMixed(seed, run_dir))
    try:
        samples, phase_s, _ = closed_loop(
            state.server.socket, state.rounds, state.send, seconds)
    finally:
        state.close()
    # Every child this run started has exited and been waited for, and
    # the largest of them is a serve process: this is its VmHWM.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return samples, measure.end_to_end(
        samples, phase_s, setup_s, peak, state.code_instrs)


def _trace(seed, run_dir, out_dir):
    plain = ServiceMixed(seed, run_dir)
    try:
        reference, reference_s, _ = closed_loop(
            plain.server.socket, plain.rounds[:TRACE_ROUNDS], plain.send,
            None)
    finally:
        plain.close()

    spans_path = out_dir / f"service-mixed-seed{seed}.spans.jsonl"
    traced = ServiceMixed(seed, run_dir, spans_path)
    try:
        before = _counters(traced.server.status())
        started = spans.clock()
        samples, phase_s, speed = closed_loop(
            traced.server.socket,
            traced.rounds[TRACE_ROUNDS:2 * TRACE_ROUNDS], traced.send, None)
        window = (started, spans.clock())
        after = _counters(traced.server.status())
    finally:
        traced.close()
    print(f"perfbench: spans written to {spans_path}", file=sys.stderr)

    records = spans.load(spans_path)
    metrics = spans.layer_metrics(records, window, speed.at)
    metrics.update({name: after[name] - before[name] for name in after})
    layers, _ = spans.layer_time(records, window)
    good = [s for s in samples if s.ok]
    middle = spans.percentile([s.nominal for s in good], 0.5)
    below = [s for s in good if s.nominal <= middle]

    def nominal_ms(sample, seconds):
        return 1000.0 * seconds * sample.nominal / sample.seconds

    metrics.update({
        "service.wait_ms_p50": spans.median(
            [nominal_ms(s, s.seconds - s.server_s) for s in good]),
        "service.server_ms_p50": spans.median(
            [nominal_ms(s, s.server_s) for s in good]),
        "service.hit_ms_p50": spans.median(
            [1000.0 * s.nominal for s in good if s.repeated]),
        "service.cold_ms_p50": spans.median(
            [1000.0 * s.nominal for s in good if not s.repeated]),
        "inputs.repeated_ratio": measure.repeated_ratio(samples),
        "trace.ops": len(samples),
        "trace.overhead_ratio": (len(samples) / phase_s)
        / (len(reference) / reference_s),
        "trace.unattributed_ratio": 1.0 - layers / sum(
            s.seconds for s in samples),
        "trace.stress_share": (
            sum(s.repeated for s in below) / len(below) if below else 0.0),
    })
    return reference + samples, metrics
