"""Kernel sharding: N independent simulated organizations, hash-routed.

One simulated :class:`~repro.kernel.Kernel` serializes every syscall of
every session on a machine, so a single organization cannot scale past
one worker. The control plane instead boots *N* fully independent
organizations (each with its own network fabric, service hosts, ticket
database, CA, and cluster manager) and routes each ticket to the shard
that owns its workstation.

Routing is a stable hash of the workstation name (CRC-32 mod N): the same
machine always lands on the same shard, so all state for a workstation —
its kernel, its audit history, its warm containers — lives in exactly one
place and shard workers never contend.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.policy import BrokerPolicy
from repro.controlplane._types import ClassifierLike, MetricScope
from repro.controlplane.pool import ContainerPool
from repro.errors import InvalidArgument
from repro.framework.orchestrator import (
    DEFAULT_USERS,
    WatchITDeployment,
)

__all__ = ["KernelShard", "ShardPlan", "ShardRouter", "shard_of"]


def shard_of(machine: str, shards: int) -> int:
    """Stable machine -> shard index (CRC-32 of the hostname, mod N)."""
    return zlib.crc32(machine.encode()) % shards


@dataclass(frozen=True)
class ShardPlan:
    """The routing-only description of one shard: index + owned machines.

    Pickle-safe by construction — process-mode workers receive a plan and
    bootstrap their own :class:`KernelShard` from it inside the worker
    process, so no simulated-kernel state ever crosses the process
    boundary.
    """

    index: int
    machines: Tuple[str, ...]


class KernelShard:
    """One shard: an independent organization plus its container pool."""

    def __init__(self, index: int, machines: Sequence[str],
                 users: Sequence[str] = DEFAULT_USERS,
                 pool_capacity: int = 2,
                 classifier: Optional[ClassifierLike] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 registry: Optional[MetricScope] = None) -> None:
        self.index = index
        self.machines: Tuple[str, ...] = tuple(machines)
        self.org = WatchITDeployment.bootstrap(
            machines=self.machines, users=tuple(users),
            classifier=classifier, broker_policy=broker_policy)
        self.pool = ContainerPool(self.org.cluster, capacity=pool_capacity,
                                  registry=registry)

    def prewarm(self, ticket_class: str, count: Optional[int] = None) -> int:
        """Warm ``count`` containers of ``ticket_class`` on every machine."""
        spec = self.org.images.get(ticket_class)
        return sum(self.pool.prewarm(spec, machine, ticket_class, count=count)
                   for machine in self.machines)

    def close(self) -> None:
        self.pool.close()


class ShardRouter:
    """Builds the shard fleet and owns the machine -> shard map."""

    def __init__(self, machines: Sequence[str], shards: int,
                 users: Sequence[str] = DEFAULT_USERS,
                 pool_capacity: int = 2,
                 classifier: Optional[ClassifierLike] = None,
                 broker_policy: Optional[BrokerPolicy] = None,
                 registry: Optional[MetricScope] = None,
                 build: bool = True) -> None:
        if shards < 1:
            raise InvalidArgument(f"need at least one shard, got {shards}")
        machines = tuple(machines)
        if not machines:
            raise InvalidArgument("need at least one machine")
        assignment: Dict[str, int] = {m: shard_of(m, shards) for m in machines}
        by_shard: List[List[str]] = [[] for _ in range(shards)]
        for machine, index in assignment.items():
            by_shard[index].append(machine)
        #: shards owning zero machines are never built — they could never
        #: receive a ticket
        self.plans: List[ShardPlan] = [
            ShardPlan(index, tuple(sorted(owned)))
            for index, owned in enumerate(by_shard) if owned]
        #: machine -> shard index (a T-9 target must share its ticket's)
        self.indexes: Dict[str, int] = dict(assignment)
        #: with ``build=False`` (process mode) the router is routing-only:
        #: the organizations live inside the worker processes, built from
        #: the pickled :class:`ShardPlan`s, and ``self.shards`` stays empty
        self.shards: List[KernelShard] = []
        self._routes: Dict[str, KernelShard] = {}
        if not build:
            return
        for plan in self.plans:
            shard = KernelShard(plan.index, plan.machines, users=users,
                                pool_capacity=pool_capacity,
                                classifier=classifier,
                                broker_policy=broker_policy,
                                registry=registry)
            self.shards.append(shard)
            for machine in plan.machines:
                self._routes[machine] = shard

    def route(self, machine: str) -> KernelShard:
        shard = self._routes.get(machine)
        if shard is None:
            raise InvalidArgument(f"unknown machine {machine!r}")
        return shard

    def route_index(self, machine: str) -> int:
        """Machine -> shard index; works in routing-only (lazy) mode too."""
        index = self.indexes.get(machine)
        if index is None:
            raise InvalidArgument(f"unknown machine {machine!r}")
        return index

    @property
    def machines(self) -> Tuple[str, ...]:
        return tuple(sorted(self.indexes))

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
