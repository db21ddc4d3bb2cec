"""Synthetic ticket storms: load for the control plane's internal checks.

A *storm* models an outage aftermath: within minutes, many users report
the same few incidents in nearly the same words. ``duplicate_rate``
controls how duplicate-heavy the storm is — at the default 0.9, a
200-ticket storm contains only ~20 distinct report texts, which is the
regime the control plane's memoized classification and pre-warmed pools
are built for.

:func:`run_storm_sharded` submits a whole storm to a
:class:`~repro.controlplane.ControlPlane` at once and drains it. It is a
load driver, not a latency benchmark: with every ticket queued at once,
per-ticket times would be mostly queue wait. Serving latency is measured
open-loop by ``perfbench/run.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

from repro.controlplane import ControlPlane
from repro.framework.classifier import LDAClassifier
from repro.workload.corpus import generate_corpus

__all__ = [
    "STORM_MACHINES",
    "STORM_USERS",
    "StormReport",
    "StormTicket",
    "generate_storm",
    "run_storm_sharded",
    "train_storm_classifier",
]

#: An eight-workstation office: enough machines that four shards all
#: own some, small enough that pools stay warm.
STORM_MACHINES: Tuple[str, ...] = tuple(f"ws-{i:02d}" for i in range(1, 9))
STORM_USERS: Tuple[str, ...] = ("alice", "bob", "carol", "dave")
#: the duty admin every storm ticket is assigned to
STORM_ADMIN = "it-duty"


@dataclass(frozen=True)
class StormTicket:
    """One report in the storm."""

    reporter: str
    text: str
    machine: str
    true_class: str


@dataclass
class StormReport:
    """What one storm run served: its size, its error count, its rate."""

    tickets: int
    unique_texts: int
    elapsed_s: float
    tickets_per_s: float
    errors: int
    shards: int
    pool_hit_rate: float
    workers: str                 # "thread" | "process"

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def generate_storm(n: int = 200, seed: int = 11,
                   duplicate_rate: float = 0.9,
                   machines: Sequence[str] = STORM_MACHINES,
                   users: Sequence[str] = STORM_USERS) -> List[StormTicket]:
    """A duplicate-heavy storm of ``n`` reports.

    ``duplicate_rate`` is the fraction of reports that repeat an earlier
    report verbatim (users pasting the same error); the rest are distinct
    texts drawn from the corpus generator. Reporters and machines cycle
    so load spreads across every workstation.
    """
    import random
    if not 0.0 <= duplicate_rate < 1.0:
        raise ValueError(
            f"duplicate_rate must be in [0, 1), got {duplicate_rate}")
    rng = random.Random(seed)
    n_unique = max(1, round(n * (1.0 - duplicate_rate)))
    base = generate_corpus(n_tickets=n_unique, seed=seed)
    storm: List[StormTicket] = []
    for i in range(n):
        source = base[i] if i < n_unique else rng.choice(base)
        storm.append(StormTicket(
            reporter=users[i % len(users)],
            text=source.text,
            machine=machines[i % len(machines)],
            true_class=source.true_class or "T-11"))
    rng.shuffle(storm)
    return storm


def train_storm_classifier(seed: int = 7, history: int = 300,
                           n_topics: int = 10,
                           n_iter: int = 40) -> LDAClassifier:
    """The paper's LDA pipeline, trained on a labelled ticket history."""
    tickets = generate_corpus(n_tickets=history, seed=seed)
    return LDAClassifier(n_topics=n_topics, n_iter=n_iter,
                         seed=seed).train(tickets)


def run_storm_sharded(storm: Sequence[StormTicket], classifier=None,
                      shards: int = 4, pool_size: int = 2,
                      queue_depth: int = 64, workers: str = "thread",
                      store=None, org: str = "default") -> StormReport:
    """Serve ``storm`` on a fresh control plane; count what failed.

    ``workers`` picks the shard worker mode (``"thread"`` or
    ``"process"``). Pools are prewarmed for the storm's incident classes
    before the clock starts; the timed region then covers submitting and
    draining every ticket, cold classifications included.
    """
    plane = ControlPlane(machines=tuple(sorted({t.machine for t in storm})),
                         users=tuple(sorted({t.reporter for t in storm})),
                         shards=shards,
                         pool_size=pool_size, queue_depth=queue_depth,
                         classifier=classifier, workers=workers,
                         store=store, org=org)
    try:
        plane.register_admin(STORM_ADMIN)
        plane.start()
        plane.prewarm(sorted({t.true_class for t in storm}))
        items = [(t.reporter, t.text, t.machine) for t in storm]
        started = time.perf_counter()
        futures = plane.submit_many(items, STORM_ADMIN)
        plane.drain()
        elapsed = time.perf_counter() - started
        errors = sum(1 for f in futures if not f.result().resolved)
        return StormReport(
            tickets=len(items),
            unique_texts=len({t.text for t in storm}),
            elapsed_s=elapsed, tickets_per_s=len(items) / elapsed,
            errors=errors, shards=len(plane.router.plans),
            pool_hit_rate=plane.pool_hit_rate(), workers=plane.workers)
    finally:
        plane.close()
