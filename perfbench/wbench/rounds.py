"""Set-up, the measured rounds, and the output checks.

One measured run serves one workload on a freshly set-up plane, in
``ROUNDS`` rounds of two phases each:

1. **steady window** — a seeded Poisson schedule at the workload's
   offered rate. The generator thread sends each ticket when it is due,
   through ``parse_ticket_request`` → ``AdmissionController.admit`` →
   ``TicketService.submit_batch`` (which calls ``ControlPlane.try_submit``).
   A ticket's latency runs from its due time to the moment its future
   settles, so a late generator is charged to the tickets it delayed.
2. **burst** — a fixed number of tickets admitted at once through
   ``ControlPlane.submit_many``; tickets settled per second is the
   backlog-free capacity.

Each phase waits until everything it admitted has settled. The plane is
then closed and every output is checked against the store.
"""

from __future__ import annotations

import json
import os
import random
import resource
import time
from concurrent.futures import Future, wait
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import TicketResult
from repro.controlplane import ControlPlane
from repro.errors import ReproError
from repro.service import wire
from repro.service.server import ServiceConfig, TicketService
from repro.store.replay import verify_trail
from repro.store.sqlite import SQLiteStore
from repro.workload.storm import (
    STORM_MACHINES,
    STORM_USERS,
    StormTicket,
    generate_storm,
    train_storm_classifier,
)

from wbench import workloads
from wbench.tracing import Recorder
from wbench.workloads import PLANTED_NAME, ROUNDS, Workload

__all__ = ["Inputs", "Round", "Run", "Serving", "check_outputs",
           "make_inputs", "measure", "percentile", "set_up"]

ADMIN = "it-duty"
ORG = "bench"
#: every class of the shipped image catalog gets warm pools before timing
TICKET_CLASSES = tuple(f"T-{i}" for i in range(1, 12))
#: warm containers kept per (machine, ticket class), as in every workload
POOL_SIZE = 2
#: tickets per generated storm (one incident mix)
STORM_TICKETS = 40
#: a phase whose tickets have not all settled by then fails the run
SETTLE_TIMEOUT_S = 30.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``inf`` samples rank last; 0 when empty)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    rank = max(0, min(len(ranked) - 1,
                      int(round(pct / 100.0 * len(ranked) + 0.5)) - 1))
    return ranked[rank]


@dataclass
class Round:
    """One round's inputs: a steady Poisson window, then a burst."""

    bodies: List[Dict[str, object]]
    #: due time of each steady ticket, seconds after the round starts
    offsets: List[float]
    burst: List[Tuple[str, str, str]]


@dataclass
class Inputs:
    """What one seed generates for one run."""

    rounds: List[Round]

    @property
    def offered_tps(self) -> float:
        return (sum(len(r.offsets) for r in self.rounds)
                / sum(r.offsets[-1] for r in self.rounds))


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Tickets come as a stream of small storms, one incident mix each.

    Within one storm the first copy of each distinct report comes early,
    so memo misses cluster at its start. A stream of ``STORM_TICKETS``-
    ticket storms keeps the misses at the workload's duplicate rate in
    every stretch of the run, so every round — and every burst, of which
    capacity takes the best — sees the same mix.
    """
    n_steady = workload.window_tickets(seconds)
    n_burst = workload.burst_tickets(seconds)
    rng = random.Random(seed)
    rounds: List[Round] = []
    for _ in range(ROUNDS):
        tickets: List[StormTicket] = []
        while len(tickets) < n_steady + n_burst:
            tickets.extend(generate_storm(
                n=STORM_TICKETS, seed=rng.randrange(1 << 30),
                duplicate_rate=workload.duplicate_rate,
                machines=STORM_MACHINES, users=STORM_USERS))
        offsets: List[float] = []
        due = 0.0
        for _ in range(n_steady):
            due += rng.expovariate(workload.rate_tps)
            offsets.append(due)
        bodies = [{"schema": wire.WIRE_SCHEMA, "org": ORG, "admin": ADMIN,
                   "tickets": [{"reporter": t.reporter, "text": t.text,
                                "machine": t.machine}]}
                  for t in tickets[:n_steady]]
        burst = [(t.reporter, t.text, t.machine)
                 for t in tickets[n_steady:n_steady + n_burst]]
        rounds.append(Round(bodies=bodies, offsets=offsets, burst=burst))
    return Inputs(rounds=rounds)


@dataclass
class Serving:
    """A started plane behind the service tier, ready to admit."""

    plane: ControlPlane
    service: TicketService
    store: SQLiteStore
    setup_s: float

    def close(self) -> None:
        self.plane.close()
        self.store.close()


def set_up(workload: Workload, run_dir: Path, tag: str) -> Serving:
    """Train, open the store, start the plane, prewarm: timed as a whole."""
    started = time.perf_counter()
    classifier = train_storm_classifier()
    store = SQLiteStore(run_dir / f"events-{tag}.db")
    plane = ControlPlane(machines=STORM_MACHINES, users=STORM_USERS,
                         shards=workload.shard_count(),
                         pool_size=POOL_SIZE,
                         classifier=classifier, workers=workload.workers,
                         store=store, org=ORG)
    service = TicketService(plane, ServiceConfig(default_admin=ADMIN),
                            default_ops=workload.ops)
    plane.register_admin(ADMIN)
    plane.start()
    plane.prewarm(TICKET_CLASSES)
    return Serving(plane, service, store, time.perf_counter() - started)


@dataclass
class Run:
    """Everything one measured run observed.

    The steady tickets of every round are concatenated, as are the bursts.
    """

    workload: Workload
    #: clock reading the first round's schedule is laid from
    started: float
    #: seconds from each round's first due time until its window settled
    steady_s: List[float]
    due: List[float]
    sent: List[float]
    settled: List[float]
    callbacks: List[int]
    futures: List[Optional["Future[TicketResult]"]]
    burst_futures: List["Future[TicketResult]"]
    burst_callbacks: List[int]
    #: seconds each round's burst took to settle completely
    burst_s: List[float]
    cpu_s: float
    peak_rss_mb: float
    #: (command, seconds) for every timed admin command
    commands: List[Tuple[str, float]]
    planted: List[bool]
    spans: List[List[list]] = field(default_factory=list)
    #: store session id -> trail, filled by check_outputs
    trails: Dict[str, object] = field(default_factory=dict)

    def outcome(self, future: Optional["Future[TicketResult]"]) -> str:
        """One of refused, resolved, errored, raised or untyped."""
        if future is None:
            return "refused"
        if not future.done():
            return "untyped"
        exc = future.exception()
        if exc is not None:
            return "raised" if isinstance(exc, ReproError) else "untyped"
        result = future.result()
        if not isinstance(result, TicketResult):
            return "untyped"
        return "resolved" if result.resolved else "errored"

    def results(self) -> List[TicketResult]:
        """Every served ticket's result, steady then burst."""
        return [f.result() for f in self.futures + self.burst_futures
                if self.outcome(f) in ("resolved", "errored")]

    def steady_latencies_ms(self) -> List[float]:
        """Due-to-settled per steady ticket; anything not resolved is inf."""
        return [(self.settled[i] - self.due[i]) * 1000.0
                if self.outcome(f) == "resolved" else float("inf")
                for i, f in enumerate(self.futures)]

    @property
    def attempted(self) -> int:
        return len(self.futures) + len(self.burst_futures)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.futures + self.burst_futures
                   if self.outcome(f) != "resolved")

    @property
    def settled_count(self) -> int:
        return sum(1 for f in self.futures + self.burst_futures
                   if self.outcome(f) in ("resolved", "errored", "raised"))


def _cpu_seconds(worker_pids: Sequence[int]) -> Tuple[float, float]:
    """(this process, its reaped children + live ``worker_pids``) CPU."""
    times = os.times()
    children = times.children_user + times.children_system
    ticks = os.sysconf("SC_CLK_TCK")
    for pid in worker_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        children += (int(fields[11]) + int(fields[12])) / ticks
    return times.user + times.system, children


def _settle_hook(counts: List[int], index: int,
                 stamps: Optional[List[float]] = None):
    """Count the settlements of ticket ``index``; stamp when it settled."""
    def done(_future: "Future[TicketResult]") -> None:
        if stamps is not None:
            stamps[index] = time.perf_counter()
        counts[index] += 1
    return done


class _Meter:
    """Per-ticket stamps of one run, filled round by round."""

    def __init__(self) -> None:
        self.due: List[float] = []
        self.sent: List[float] = []
        self.settled: List[float] = []
        self.callbacks: List[int] = []
        self.futures: List[Optional["Future[TicketResult]"]] = []
        self.burst_callbacks: List[int] = []
        self.burst_futures: List["Future[TicketResult]"] = []
        self.burst_s: List[float] = []
        self.steady_s: List[float] = []


def _steady(meter: _Meter, round_: Round, serving: Serving,
            machines: set, recorder: Optional[Recorder]) -> None:
    """Send one round's steady tickets on their Poisson schedule."""
    service = serving.service
    origin = time.perf_counter() + 0.005
    for offset, body in zip(round_.offsets, round_.bodies):
        i = len(meter.futures)
        meter.due.append(origin + offset)
        meter.settled.append(0.0)
        meter.callbacks.append(0)
        meter.futures.append(None)
        delay = meter.due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        meter.sent.append(time.perf_counter())
        with recorder.context(i) if recorder is not None else nullcontext():
            request = wire.parse_ticket_request(body, machines)
            decision = service.admission.admit(request.org,
                                               len(request.tickets))
            if not decision.admitted:
                continue
            outcome = service.submit_batch(request.rows(), request.admin,
                                           request.org)
        if outcome.futures:
            future = meter.futures[i] = outcome.futures[0]
            future.add_done_callback(
                _settle_hook(meter.callbacks, i, meter.settled))
    wait([f for f in meter.futures if f is not None],
         timeout=SETTLE_TIMEOUT_S)
    meter.steady_s.append(time.perf_counter() - origin)


def _burst(meter: _Meter, round_: Round, serving: Serving,
           workload: Workload) -> None:
    """Admit one round's burst at once and wait for all of it."""
    first = len(meter.burst_futures)
    meter.burst_callbacks.extend([0] * len(round_.burst))
    started = time.perf_counter()
    futures = serving.plane.submit_many(round_.burst, ADMIN,
                                        ops=workload.ops, org=ORG)
    for i, future in enumerate(futures, start=first):
        future.add_done_callback(_settle_hook(meter.burst_callbacks, i))
    meter.burst_futures.extend(futures)
    wait(futures, timeout=SETTLE_TIMEOUT_S)
    meter.burst_s.append(time.perf_counter() - started)


def measure(serving: Serving, workload: Workload, inputs: Inputs,
            run_dir: Path, recorder: Optional[Recorder] = None) -> Run:
    """Every round (steady window, then burst), close; what was observed."""
    plane = serving.plane
    machines = set(plane.router.machines)
    workloads.COMMAND_SECONDS.clear()
    workloads.PLANTED_DENIED.clear()
    if recorder is not None:
        recorder.spans.clear()
    for stale in run_dir.glob("worker-*.json"):
        # left by the workers of planes closed during set-up
        stale.unlink()
    pids = [pid for pid in plane.worker_pids().values() if pid]
    self_cpu0, children_cpu0 = _cpu_seconds(pids)
    meter = _Meter()
    started = time.perf_counter()
    for round_ in inputs.rounds:
        _steady(meter, round_, serving, machines, recorder)
        _burst(meter, round_, serving, workload)

    plane.close()
    self_cpu1, children_cpu1 = _cpu_seconds(())
    commands = list(workloads.COMMAND_SECONDS)
    planted = list(workloads.PLANTED_DENIED)
    spans = [list(recorder.spans)] if recorder is not None else []
    for path in sorted(run_dir.glob("worker-*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        commands.extend(tuple(c) for c in payload["commands"])
        planted.extend(payload["planted"])
        if recorder is not None:
            spans.append(payload["spans"])
        path.unlink()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return Run(workload=workload, started=started, steady_s=meter.steady_s,
               due=meter.due, sent=meter.sent, settled=meter.settled,
               callbacks=meter.callbacks, futures=meter.futures,
               burst_futures=meter.burst_futures,
               burst_callbacks=meter.burst_callbacks, burst_s=meter.burst_s,
               cpu_s=(self_cpu1 - self_cpu0)
               + (children_cpu1 - children_cpu0),
               peak_rss_mb=rss_kb / 1024.0, commands=commands,
               planted=planted, spans=spans)


def check_outputs(run: Run, store: SQLiteStore) -> List[str]:
    """Every failed output check, as one line each (empty when correct)."""
    failures: List[str] = []
    for label, futures, counts in (
            ("steady", run.futures, run.callbacks),
            ("burst", run.burst_futures, run.burst_callbacks)):
        for i, future in enumerate(futures):
            outcome = run.outcome(future)
            if outcome == "untyped":
                failures.append(f"{label} ticket {i} has no typed outcome")
            elif outcome != "refused" and counts[i] != 1:
                failures.append(f"{label} ticket {i} settled "
                                f"{counts[i]} times")
    settled_ids = [r.session_id for r in run.results()]
    stored_ids = [row.session_id for row in store.sessions(org=ORG)]
    if sorted(settled_ids) != sorted(stored_ids):
        failures.append(f"store holds {len(stored_ids)} sessions for "
                        f"{len(settled_ids)} settled tickets")
    for session_id in stored_ids:
        trail = store.get_trail(session_id)
        try:
            verify_trail(trail)
        except ReproError as exc:
            failures.append(f"trail {session_id} fails verification: {exc}")
        run.trails[session_id] = trail
    if run.workload.planted:
        failures.extend(_check_planted(run))
    return failures


def _check_planted(run: Run) -> List[str]:
    """Every planted access was refused, and audited as a deny."""
    failures: List[str] = []
    resolved = sum(1 for r in run.results() if r.resolved)
    if len(run.planted) != resolved or not all(run.planted):
        failures.append(f"{run.planted.count(True)} of {resolved} planted "
                        f"accesses were refused")
    for session_id, trail in run.trails.items():
        decisions = [e.decision for e in trail.events
                     if e.path.endswith(PLANTED_NAME)]
        if "allow" in decisions or "deny" not in decisions:
            failures.append(f"session {session_id} audited the planted "
                            f"access as {decisions}")
    return failures
