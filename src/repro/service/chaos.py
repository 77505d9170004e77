"""Service-level chaos: ``python -m repro chaos --fleet`` and ``--disk``.

Both runs start a :class:`~repro.service.fleet.FleetSupervisor`, drive
one seeded mixed workload through it with :func:`drive` while planted
faults fire, and audit what came back.  :func:`run_fleet_chaos`
SIGKILLs and SIGSTOPs workers mid-compile; :func:`run_disk_chaos` adds
a shared artifact cache battered by per-worker disk faults.  The audits
are pure functions of what a run recorded — :func:`audit_answers` of
the workload, its answers and their times, :func:`audit_fleet` of the
fired faults and the final status, :func:`audit_journal` of the
artifact store's journal — and each returns a list of problems (empty
is a pass).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    wait_until_ready,
)
from repro.service.fleet import (
    DEFAULT_FLEET_WORKERS,
    FleetSupervisor,
    shard_index,
)
from repro.service.supervisor import WORKER_UP

_CHAOS_DOT = """
int dot(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""

_CHAOS_COPY = """
void copy(char *dst, char *src, int n) {
    int i;
    for (i = 0; i < n; i++)
        dst[i] = src[i];
}
"""

_CHAOS_ADD = "int add(int a, int b) { return a + b; }"

#: What every ``simulate`` of the workload must return:
#: ``[3,1,4,1,5,9,2,6] . [1]*8``.  A wrong number means a corrupt
#: artifact (or a broken compile) was served.
EXPECTED_DOT = 31

#: (machine, config) pairs the mixed workload cycles through — enough
#: keys that a 4-worker fleet has populated *and* untouched shards.
_CHAOS_KEYS = (
    ("alpha", "coalesce-all"),
    ("alpha", "vpo"),
    ("m88100", "coalesce-all"),
    ("m68030", "cc"),
    ("alpha", "cc"),
    ("m88100", "vpo"),
)

#: Answers that end a request on the contract's terms.
_TERMINAL = ("ok", "degraded", "timeout", "client-deadline")


def build_chaos_plan(
    rng: random.Random,
    workers: int,
    workload: List[dict],
    kills: int,
    hangs: int,
) -> FaultPlan:
    """A seeded fleet fault plan: ``kills`` SIGKILLs and ``hangs``
    SIGSTOPs spread over worker dispatch arrivals.

    Sites and hit counts are drawn against the *actual* dispatch
    distribution of ``workload`` (sharding is deterministic), so every
    planted fault lands on a worker that really receives requests, at
    an arrival it will really reach.
    """
    arrivals: Dict[int, int] = {}
    for request in workload:
        shard = shard_index(request, workers)
        arrivals[shard] = arrivals.get(shard, 0) + 1
    busy = sorted(
        shard for shard, count in arrivals.items() if count >= 4
    ) or sorted(arrivals)
    specs: List[FaultSpec] = []
    seen = set()
    for kind, count in (("kill", kills), ("hang", hangs)):
        for _ in range(count):
            for _ in range(64):  # resample collisions
                shard = busy[rng.randrange(len(busy))]
                site = f"worker:{shard}"
                # Leave headroom below the arrival ceiling: requeues
                # shift later arrivals, and the last dispatches must
                # find a live worker to drain through.
                hit = rng.randint(
                    2, max(2, (arrivals[shard] * 2) // 3)
                )
                if (site, hit) not in seen:
                    seen.add((site, hit))
                    break
            else:
                continue
            specs.append(FaultSpec(
                site, kind, hit=hit,
                seconds=round(rng.uniform(0.02, 0.25), 3),
            ))
    return FaultPlan(specs)


def build_chaos_workload(
    rng: random.Random, requests: int, deadline: float
) -> List[dict]:
    """``requests`` mixed compile/simulate requests over several
    (machine, config) shards; a slice carry ``sleep`` faults to hold
    workers mid-compile (widening the kill window), a slice carry
    deliberately tight deadlines."""
    workload: List[dict] = []
    for index in range(requests):
        machine, config = _CHAOS_KEYS[index % len(_CHAOS_KEYS)]
        roll = rng.random()
        if roll < 0.15:
            request = {
                "op": "simulate",
                "source": _CHAOS_DOT,
                "entry": "dot",
                "machine": machine,
                "config": config,
                "arrays": [
                    ["a", 2, [3, 1, 4, 1, 5, 9, 2, 6]],
                    ["b", 2, [1, 1, 1, 1, 1, 1, 1, 1]],
                ],
                "args": ["a", "b", 8],
            }
        else:
            source = (
                _CHAOS_DOT, _CHAOS_COPY, _CHAOS_ADD
            )[index % 3]
            request = {
                "op": "compile",
                "source": source,
                "machine": machine,
                "config": config,
            }
        if roll > 0.7:
            # Hold the worker in the pipeline so armed kills land
            # mid-compile, not between requests.
            request["faults"] = (
                f"cleanup=sleep:{round(rng.uniform(0.1, 0.3), 2)}"
            )
        if roll > 0.95:
            request["deadline"] = 0.4  # must come back 'timeout'
        else:
            request["deadline"] = deadline
        workload.append(request)
    return workload


# -- the client loop ----------------------------------------------------------
def _client(socket_path: str, retries: int = 8,
            backoff_cap: float = 0.2) -> ServiceClient:
    return ServiceClient(
        socket_path, retries=retries,
        backoff_base=0.02, backoff_cap=backoff_cap,
    )


def _ask(client: ServiceClient, request: dict) -> dict:
    """One request's answer; client-side failures become typed answers
    for the audit instead of exceptions."""
    try:
        return client.request(
            request["op"],
            **{k: v for k, v in request.items() if k != "op"},
        )
    except ServiceUnavailable as exc:
        return {
            "status": "client-deadline"
            if "deadline" in str(exc) else "unavailable",
            "error": str(exc),
        }
    except Exception as exc:  # noqa: BLE001 — audit, don't die
        return {
            "status": "client-error",
            "error": f"{type(exc).__name__}: {exc}",
        }


def drive(
    socket_path: str,
    workload: List[dict],
    client_threads: int = 8,
) -> Tuple[List[Optional[dict]], List[float]]:
    """Send every request of ``workload`` through ``socket_path`` from
    ``client_threads`` closed-loop clients.

    Returns ``(answers, elapsed)`` indexed like the workload; a request
    no client finished keeps the answer ``None`` (lost).
    """
    answers: List[Optional[dict]] = [None] * len(workload)
    elapsed: List[float] = [0.0] * len(workload)
    pending = iter(range(len(workload)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = _client(socket_path)
        while True:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            began = time.monotonic()
            answers[index] = _ask(client, workload[index])
            elapsed[index] = time.monotonic() - began

    threads = [
        threading.Thread(target=client_loop, name=f"chaos-client-{i}")
        for i in range(max(1, client_threads))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=len(workload) * 10.0)
    return answers, elapsed


# -- the audits ---------------------------------------------------------------
def audit_answers(
    workload: Sequence[dict],
    answers: Sequence[Optional[dict]],
    elapsed: Sequence[float],
) -> List[str]:
    """Every request answered, within 2x its deadline (+5 s of
    scheduling slack), with a typed outcome, and every served
    ``simulate`` with :data:`EXPECTED_DOT`."""
    problems: List[str] = []
    for index, (request, answer, seconds) in enumerate(
        zip(workload, answers, elapsed)
    ):
        if answer is None:
            problems.append(f"request {index}: LOST (no answer)")
            continue
        got = answer.get("status")
        budget = request.get("deadline")
        if budget is not None and seconds > 2 * budget + 5.0:
            problems.append(
                f"request {index}: answered but only after "
                f"{seconds:.1f}s against a {budget:g}s deadline"
            )
        if (
            request["op"] == "simulate"
            and got in ("ok", "degraded")
            and answer.get("result") != EXPECTED_DOT
        ):
            problems.append(
                f"request {index}: simulate answered "
                f"{answer.get('result')!r}, wanted {EXPECTED_DOT} — "
                "a wrong program was served"
            )
        if got in _TERMINAL or (
            got == "error"
            and answer.get("error_type") == "QuarantinedRequest"
        ):
            continue
        problems.append(
            f"request {index}: untyped outcome {got!r} "
            f"({answer.get('error', '')})"
        )
    return problems


def audit_fleet(fired: Sequence[FaultSpec], status: dict) -> List[str]:
    """Every fired kill or hang was followed by a worker restart, and
    some worker was alive and reachable at the end of the run."""
    problems: List[str] = []
    fatal = [spec for spec in fired if spec.kind in ("kill", "hang")]
    if fatal and status["fleet"]["worker_restarts"] == 0:
        problems.append(
            f"{len(fatal)} kill/hang fault(s) fired but no worker was "
            "ever restarted"
        )
    live = [
        w for w in status["workers"]
        if w["state"] == WORKER_UP and not w.get("unreachable")
    ]
    if not live:
        problems.append("no worker was alive at the end of the run")
    return problems


def _journal_tally(events: Sequence[dict]) -> Dict[str, Dict[str, int]]:
    """Per-key event counts from an :class:`ArtifactStore` journal."""
    tally: Dict[str, Dict[str, int]] = {}
    for event in events:
        key = event.get("key")
        if not key:
            continue
        per = tally.setdefault(str(key), {})
        name = str(event.get("ev"))
        if name == "disk-error" and event.get("op") == "publish":
            name = "disk-error-publish"
        per[name] = per.get(name, 0) + 1
    return tally


def _excused_compiles(per: Dict[str, int]) -> int:
    """How many *extra* compiles of one key the journal can explain.

    Each term is a recorded fault or crash consequence: a stolen lease
    (the thief recompiles), a dropped corrupt artifact, a publish that
    tore or hit a disk error (the artifact never became readable), or
    a fenced publish (the loser's bytes were discarded).
    """
    return (
        per.get("steal", 0)
        + per.get("corrupt-drop", 0)
        + per.get("publish-torn", 0)
        + per.get("disk-error-publish", 0)
        + per.get("publish-fenced", 0)
    )


def audit_journal(events: Sequence[dict]) -> List[str]:
    """Per-key invariants of the artifact store's journal: link-once
    (no two surviving publishes without a corruption drop between), no
    compile beyond the first without an excusing event, and a writer
    after every steal."""
    problems: List[str] = []
    for key, per in sorted(_journal_tally(events).items()):
        if per.get("publish", 0) > 1 + per.get("corrupt-drop", 0):
            problems.append(
                f"key {key}: {per['publish']} publishes with only "
                f"{per.get('corrupt-drop', 0)} corruption drop(s) — "
                "link-once violated"
            )
        if per.get("compile", 0) - 1 > _excused_compiles(per):
            problems.append(
                f"key {key}: {per['compile']} compiles but only "
                f"{_excused_compiles(per)} excusing event(s) — "
                "redundant compile of a warm key"
            )
        writers = (
            per.get("publish", 0) + per.get("publish-fenced", 0)
            + per.get("publish-torn", 0) + per.get("disk-error-publish", 0)
        )
        if per.get("steal", 0) and not writers:
            problems.append(
                f"key {key}: a lease was stolen but no writer "
                "(surviving, fenced, torn, or errored) ever followed"
            )
    return problems


# -- the runs -----------------------------------------------------------------
def _chaos_fleet(
    run_dir: str,
    socket_path: Optional[str],
    workers: int,
    crash_dir: Optional[str],
    plan: FaultPlan,
    **extra,
) -> FleetSupervisor:
    return FleetSupervisor(
        # Never the default service socket: a chaos sweep must not
        # hijack (or probe-steal) a production server's address.
        socket_path=socket_path or os.path.join(run_dir, "fleet.sock"),
        workers=workers,
        run_dir=run_dir,
        crash_dir=crash_dir,
        fleet_faults=plan,
        heartbeat_interval=0.1,
        heartbeat_timeout=1.0,
        **extra,
    )


def _under_fleet(fleet: FleetSupervisor, body: Callable[[], object]):
    """Start ``fleet``, run ``body`` against it, and return ``(what
    body returned, the fleet's final status)`` with the workers
    scraped; the fleet is always shut down."""
    try:
        fleet.start()
        if not wait_until_ready(fleet.socket_path, timeout=10.0):
            raise OSError(
                f"fleet never became ready on {fleet.socket_path}"
            )
        result = body()
        return result, fleet._status_payload(scrape=True)
    finally:
        fleet.shutdown()


def _summary(
    workload: List[dict],
    answers: List[Optional[dict]],
    elapsed: List[float],
    plan: FaultPlan,
    status: dict,
    fleet: FleetSupervisor,
    problems: List[str],
) -> dict:
    by_status = Counter(a.get("status") for a in answers if a is not None)
    return {
        "requests": len(workload),
        "answered": sum(by_status.values()),
        "by_status": dict(sorted(by_status.items())),
        "faults_planned": [str(s) for s in plan.specs],
        "faults_fired": [str(s) for s in plan.fired],
        "worker_restarts": status["fleet"]["worker_restarts"],
        "requeued": status["fleet"]["requeued"],
        "quarantined": status["fleet"]["quarantined"],
        "hang_kills": status["fleet"]["hang_kills"],
        "max_elapsed": round(max(elapsed, default=0.0), 3),
        "run_dir": fleet.run_dir,
        "supervisor_log": fleet.supervisor_log,
        "problems": len(problems),
    }


def run_fleet_chaos(
    requests: int = 100,
    workers: int = DEFAULT_FLEET_WORKERS,
    seed: int = 0,
    deadline: float = 10.0,
    kills: int = 3,
    hangs: int = 1,
    socket_path: Optional[str] = None,
    run_dir: Optional[str] = None,
    crash_dir: Optional[str] = None,
    client_threads: int = 8,
    echo=None,
) -> Tuple[dict, List[str]]:
    """SIGKILL/SIGSTOP workers under a live mixed workload and audit
    the zero-lost-requests contract.

    Returns ``(summary, problems)``; an empty ``problems`` list is a
    pass.  The audit is :func:`audit_answers` plus :func:`audit_fleet`.
    """
    rng = random.Random(seed)
    workload = build_chaos_workload(rng, requests, deadline)
    plan = build_chaos_plan(rng, workers, workload, kills, hangs)
    if echo is not None:
        echo(f"fleet chaos: plan {plan}")

    fleet = _chaos_fleet(
        run_dir or tempfile.mkdtemp(prefix="repro-fleet-chaos-"),
        socket_path, workers, crash_dir, plan,
    )
    (answers, elapsed), status = _under_fleet(
        fleet, lambda: drive(fleet.socket_path, workload, client_threads)
    )
    problems = (
        audit_answers(workload, answers, elapsed)
        + audit_fleet(plan.fired, status)
    )
    summary = _summary(
        workload, answers, elapsed, plan, status, fleet, problems
    )
    if echo is not None:
        echo(
            f"fleet chaos: {summary['answered']}/{summary['requests']} "
            f"answered {summary['by_status']}; "
            f"{summary['worker_restarts']} restart(s), "
            f"{summary['requeued']} requeue(s), "
            f"{summary['quarantined']} quarantine(s), "
            f"{len(problems)} problem(s)"
        )
    return summary, problems


# -- the disk chaos run -------------------------------------------------------

#: A dot-product the mixed workload never compiles: the contention
#: squad races it cold across every worker's private socket, so the
#: front-end sharding (which would route identical requests to one
#: worker) cannot hide a broken cross-process dedup.
_DISK_SQUAD = """
int dotsq(short *a, short *b, int n) {
    int i, s;
    s = 0;
    for (i = 0; i < n; i++)
        s += a[i] * b[i];
    return s;
}
"""

#: A key requested exactly once, after the harness has planted a dead
#: holder's lease for it — the canonical SIGKILLed-mid-compile wreck.
_DISK_ORPHAN = """
int orphan(int a, int b) {
    return a * b + 7;
}
"""

_DISK_SWEEP_KINDS = (
    "torn-write|corrupt-artifact|stale-lease|lease-steal-race|enospc"
)


def build_disk_chaos_inject(seed: int, rate: float = 0.08) -> str:
    """The per-worker disk-fault sweep (a seeded, disk-only plan).

    Every worker gets the same plan string; each process rolls its own
    deterministic dice per (site, arrival), so faults land where that
    worker's actual artifact traffic goes.  All candidate kinds are
    disk kinds, so ``FaultPlan.disk_only()`` holds and the workers keep
    their cache ON — the whole point is to batter the artifact store.
    """
    return f"seed={seed},rate={rate:g},kinds={_DISK_SWEEP_KINDS}"


def _disk_key(source: str, machine: str, config: str) -> str:
    """The exact artifact key a worker will compute for this request
    (same source tree, same pass fingerprint)."""
    from repro.bench.cache import cache_key
    from repro.machine import get_machine
    from repro.pipeline import get_config

    return cache_key(source, get_machine(machine).name, get_config(config))


def _plant_dead_lease(cache_dir: str, key: str, ttl: float) -> int:
    """Leave the wreckage of a SIGKILLed holder: a lease file whose pid
    is already reaped and whose heartbeat stopped long ago.  Returns
    the dead pid."""
    proc = subprocess.Popen(
        [sys.executable, "-c", "pass"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    proc.wait()
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{key}.lease")
    body = json.dumps({
        "pid": proc.pid,
        "nonce": "deadc0de" * 2,
        "token": 1,
        "ttl": ttl,
        "created": round(time.time(), 4),
    })
    with open(path, "w") as handle:
        handle.write(body)
    past = time.time() - (ttl * 2.0 + 5.0)
    os.utime(path, (past, past))
    return proc.pid


def run_disk_chaos(
    requests: int = 100,
    workers: int = DEFAULT_FLEET_WORKERS,
    seed: int = 0,
    deadline: float = 20.0,
    kills: int = 2,
    rate: float = 0.08,
    socket_path: Optional[str] = None,
    run_dir: Optional[str] = None,
    crash_dir: Optional[str] = None,
    client_threads: int = 8,
    lease_ttl: float = 1.0,
    echo=None,
) -> Tuple[dict, List[str]]:
    """Batter a shared artifact cache under a live fleet and audit the
    exactly-once dedup contract.

    Four stages, one shared on-disk store:

    1. a *contention squad* races one cold key straight at every
       worker's private socket (bypassing the sharded front end);
    2. the same key is re-raced warm — it must not compile again;
    3. an *orphan* key is requested once over a planted dead-holder
       lease — the worker must steal it and publish under the next
       fencing token;
    4. the standard mixed workload runs through the front socket while
       seeded worker SIGKILLs and per-worker disk-fault sweeps
       (torn writes, corrupt artifacts, silent leases, steal races,
       ENOSPC) fire underneath.

    The audit is the fleet run's (:func:`audit_answers`,
    :func:`audit_fleet`) plus :func:`audit_journal` over the store's
    durable event journal, and the stage checks: the cold squad
    compiled fewer times than it had racers, the warm squad compiled
    only with an excuse, the planted wreck was stolen and published at
    most once, and some read was a dedup hit.
    """
    from repro.service.artifacts import ArtifactStore

    rng = random.Random(seed)
    workload = build_chaos_workload(rng, requests, deadline)
    plan = build_chaos_plan(rng, workers, workload, kills, 0)
    inject = build_disk_chaos_inject(seed, rate)
    if echo is not None:
        echo(f"disk chaos: fleet plan {plan}; worker sweep {inject}")

    if run_dir is None:
        run_dir = tempfile.mkdtemp(prefix="repro-disk-chaos-")
    cache_dir = os.path.join(run_dir, "artifact-cache")

    squad_key = _disk_key(_DISK_SQUAD, "alpha", "coalesce-all")
    orphan_key = _disk_key(_DISK_ORPHAN, "alpha", "coalesce-all")
    dead_pid = _plant_dead_lease(cache_dir, orphan_key, lease_ttl)
    if echo is not None:
        echo(
            f"disk chaos: planted dead lease pid={dead_pid} "
            f"for {orphan_key[:12]}"
        )

    fleet = _chaos_fleet(
        run_dir, socket_path, workers, crash_dir, plan,
        worker_inject=inject, cache_dir=cache_dir, lease_ttl=lease_ttl,
    )
    store = ArtifactStore(cache_dir, ttl=lease_ttl)
    squad = {
        "op": "compile", "source": _DISK_SQUAD, "machine": "alpha",
        "config": "coalesce-all", "deadline": deadline,
    }
    squad_rounds: List[List[dict]] = []
    tallies: List[Dict[str, Dict[str, int]]] = []
    orphan_answer: Dict[str, object] = {}

    def race() -> None:
        """Stages 1 and 2: one squad request per worker socket."""
        results: List[dict] = [{} for _ in fleet._workers]

        def hit_worker(index: int, wsock: str) -> None:
            client = _client(wsock, retries=10, backoff_cap=0.3)
            results[index] = _ask(client, squad)

        threads = [
            threading.Thread(
                target=hit_worker, args=(w.index, w.socket_path),
                name=f"disk-squad-{w.index}",
            )
            for w in fleet._workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=deadline * 2 + 30.0)
        squad_rounds.append(results)
        tallies.append(_journal_tally(store.events()))

    def body():
        for worker in fleet._workers:
            if not wait_until_ready(worker.socket_path, timeout=15.0):
                raise OSError(
                    f"worker {worker.index} never became ready"
                )
        race()  # cold
        race()  # warm
        orphan_answer.update(_ask(_client(fleet.socket_path), {
            **squad, "source": _DISK_ORPHAN,
        }))
        return drive(fleet.socket_path, workload, client_threads)

    (answers, elapsed), status = _under_fleet(fleet, body)

    # -- audit ---------------------------------------------------------------
    events = store.events()
    counters = store.counters()
    squad12 = squad_key[:12]
    orphan12 = orphan_key[:12]
    problems: List[str] = []

    # Stage 1: every racer answered, and dedup saved at least one of
    # the `workers` simultaneous cold requesters.
    for which, results in zip(("cold", "warm"), squad_rounds):
        for worker_index, answer in enumerate(results):
            got = answer.get("status")
            if got not in ("ok", "degraded"):
                problems.append(
                    f"squad {which} racer at worker {worker_index}: "
                    f"outcome {got!r} "
                    f"({answer.get('error', 'no answer')})"
                )
    cold = tallies[0].get(squad12, {})
    cold_compiles = cold.get("compile", 0)
    cold_fallbacks = cold.get("fallback", 0)
    if cold_compiles + cold_fallbacks >= workers:
        problems.append(
            f"squad key {squad12}: all {workers} cold racers compiled "
            f"({cold_compiles} compiles, {cold_fallbacks} fallbacks) — "
            "cross-process dedup saved nothing"
        )

    # Stage 2: a warm key must not compile again without a recorded
    # corruption drop / steal / failed publish in between.
    warm = tallies[1].get(squad12, {})
    warm_compiles = warm.get("compile", 0) - cold_compiles
    warm_excuse = _excused_compiles(warm) - _excused_compiles(cold)
    if warm_compiles > warm_excuse:
        problems.append(
            f"squad key {squad12}: {warm_compiles} warm-round "
            f"compile(s) with only {warm_excuse} excusing event(s) — "
            "duplicate compile of a warm key"
        )

    # Stage 3: the planted wreck was stolen (fencing token advanced)
    # and at most one publish survived.
    orphan = _journal_tally(events).get(orphan12, {})
    orphan_status = orphan_answer.get("status")
    if orphan_status not in ("ok", "degraded"):
        problems.append(
            f"orphan request: outcome {orphan_status!r} "
            f"({orphan_answer.get('error', 'no answer')})"
        )
    if orphan.get("steal", 0) < 1:
        problems.append(
            f"orphan key {orphan12}: planted dead-holder lease was "
            "never stolen"
        )
    if orphan.get("publish", 0) > 1:
        problems.append(
            f"orphan key {orphan12}: {orphan['publish']} surviving "
            "publishes after a steal — the fencing rule failed"
        )

    problems += audit_journal(events)
    problems += audit_answers(workload, answers, elapsed)
    if counters.get("dedup_hits", 0) < 1:
        problems.append(
            "no dedup hit was ever journalled — the shared store "
            "deduplicated nothing"
        )
    problems += audit_fleet(plan.fired, status)

    summary = _summary(
        workload, answers, elapsed, plan, status, fleet, problems
    )
    summary.update(
        squad_key=squad12,
        orphan_key=orphan12,
        cache_dir=cache_dir,
        cache=counters,
        worker_inject=inject,
        latency={
            str(w["index"]): w.get("latency") for w in status["workers"]
        },
    )
    if echo is not None:
        echo(
            f"disk chaos: {summary['answered']}/{summary['requests']} "
            f"answered {summary['by_status']}; cache "
            f"{counters.get('publishes', 0)} publish(es), "
            f"{counters.get('dedup_hits', 0)} dedup hit(s), "
            f"{counters.get('steals', 0)} steal(s), "
            f"{counters.get('corruption_drops', 0)} corruption drop(s), "
            f"{counters.get('fallbacks', 0)} fallback(s); "
            f"{summary['worker_restarts']} restart(s), "
            f"{len(problems)} problem(s)"
        )
    return summary, problems
