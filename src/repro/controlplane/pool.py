"""Pre-warmed container pools with verified scrub-on-release isolation.

Deploy + teardown dominate the serial Figure 3 session cost, so the
control plane keeps warm :class:`~repro.framework.cluster.Deployment`\\ s
per ``(machine, ticket class)`` and leases them to sessions. Reuse is
only sound if *nothing* from one tenant's session reaches the next, so a
released container is scrubbed and the scrub is **verified** before the
container may serve again:

* every process the session spawned under the container init is killed
  and the session roster cleared;
* the MNT-namespace mount table and ITFS mount list are restored to the
  warm-time baseline (dropping broker-widened shares);
* the NET namespace's firewall, routes, taps, interfaces, and default
  policy are restored (dropping ``pb-grant`` rules);
* the fs/net/broker audit streams are rotated to fresh *epoch* logs (the
  session's close read the old ones into its trail — history is never
  lost, it just stops being visible from inside the container);
* every ITFS decision cache is dropped;
* the container's private ``conFS`` is proven untouched via its O(1)
  filesystem generation counter — equal generations mean byte-identical
  trees. A dirty conFS takes the slow path: the whole filesystem view is
  rebuilt from the image.

Verification failing — or the container having been terminated mid-lease
(e.g. a :class:`~repro.errors.FatalKernelFault` under chaos testing) —
discards the container entirely. The pool fails closed: an unverifiable
container is never reused.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.broker import PermissionBroker
from repro.containit.container import PerforatedContainer, build_itfs_policy
from repro.controlplane._types import MetricScope
from repro.containit.spec import PerforatedContainerSpec
from repro.errors import ReproError
from repro.framework.cluster import ClusterManager, Deployment
from repro.itfs import AppendOnlyLog

__all__ = ["ContainerPool", "PooledDeployment"]

_EPOCH_SEQ = itertools.count(1)

PoolKey = Tuple[str, str]  # (machine, ticket_class)


@dataclass
class _Baseline:
    """The known-clean state a pooled container must return to."""

    mounts: List[object]
    itfs_mounts: List[object]
    confs_generation: Optional[int]
    firewall: List[object]
    routes: List[object]
    taps: List[object]
    interfaces: Dict[str, object]
    default_policy: str


def _snapshot(container: PerforatedContainer) -> _Baseline:
    net_ns = container.init_proc.namespaces.net
    return _Baseline(
        mounts=list(container.init_proc.namespaces.mnt.table),
        itfs_mounts=list(container.itfs_mounts),
        confs_generation=(container.conFS.generation
                          if container.conFS is not None else None),
        firewall=list(net_ns.firewall),
        routes=list(net_ns.routes),
        taps=list(net_ns.taps),
        interfaces=dict(net_ns.interfaces),
        default_policy=net_ns.default_policy)


@dataclass
class PooledDeployment:
    """One leased (or idle) pooled deployment plus its clean baseline."""

    deployment: Deployment
    spec: PerforatedContainerSpec
    machine: str
    ticket_class: str
    user: str
    baseline: _Baseline
    #: True when the current lease came from the warm pool (vs a cold
    #: deploy); the control plane counts ``controlplane_pool_acquires``
    #: from it when the lease's ticket settles
    pool_hit: bool = False
    leases_served: int = field(default=0)
    #: user -> already-built ``{user}``-templated share mounts, so rebinding
    #: a container to a returning user is a list swap, not a remount
    share_cache: Dict[str, List[object]] = field(default_factory=dict)

    @property
    def container(self) -> PerforatedContainer:
        return self.deployment.container

    @property
    def broker(self) -> PermissionBroker:
        return self.deployment.broker


class ContainerPool:
    """Warm-deployment pool over one shard's :class:`ClusterManager`.

    ``capacity`` bounds the *idle* deployments kept per
    ``(machine, ticket class)``; acquire never blocks — a pool miss is a
    cold deploy, a release into a full pool is a teardown. A single lock
    guards the free lists; the scrub itself runs outside any lock since a
    deployment under scrub is owned by exactly one worker.
    """

    def __init__(self, cluster: ClusterManager, capacity: int = 2,
                 registry: Optional[MetricScope] = None) -> None:
        if capacity < 0:
            raise ValueError(f"pool capacity must be >= 0, got {capacity}")
        self.cluster = cluster
        self.capacity = capacity
        self._idle: Dict[PoolKey, List[PooledDeployment]] = {}
        self._gauges: Dict[PoolKey, object] = {}
        self._lock = threading.Lock()
        self.closed = False
        # hot-path metric handles, resolved once (registry lookups are
        # get-or-create dict probes — cheap, but not free 6+ times a lease).
        # ``registry`` may be a per-plane scoped view — that is what keeps
        # two control planes' pool counters apart in one process.
        registry = registry if registry is not None else obs.registry()
        self._registry = registry
        self._m_reused = registry.counter("controlplane_pool_releases",
                                          outcome="reused")
        self._m_discarded = registry.counter("controlplane_pool_releases",
                                             outcome="discarded")
        self._m_overflow = registry.counter("controlplane_pool_releases",
                                            outcome="overflow")
        self._m_scrub_fast = registry.counter("controlplane_pool_scrubs",
                                              outcome="fast")
        self._m_scrub_rebuild = registry.counter("controlplane_pool_scrubs",
                                                 outcome="rebuild")
        self._m_scrub_term = registry.counter("controlplane_pool_scrubs",
                                              outcome="terminated")
        self._m_scrub_bad = registry.counter("controlplane_pool_scrubs",
                                             outcome="verify_failed")

    # ------------------------------------------------------------------
    # acquire / release
    # ------------------------------------------------------------------

    def acquire(self, spec: PerforatedContainerSpec, machine: str,
                user: str, ticket_class: str) -> PooledDeployment:
        """Lease a clean deployment: warm if available, cold otherwise."""
        key = (machine, ticket_class)
        with self._lock:
            bucket = self._idle.get(key)
            pooled = bucket.pop() if bucket else None
        if pooled is not None:
            try:
                self._rebind_user(pooled, user)
            except ReproError:
                # rebind touched the kernel and faulted (chaos): the
                # container's state is no longer provably clean — discard
                pooled.container.terminate("pool user rebind failed")
                pooled = None
        if pooled is not None:
            pooled.pool_hit = True
            pooled.leases_served += 1
            return pooled
        pooled = self._deploy(spec, machine, user, ticket_class)
        pooled.pool_hit = False
        pooled.leases_served += 1
        return pooled

    def release(self, pooled: PooledDeployment) -> bool:
        """Scrub, verify, and return to the pool. False = discarded."""
        key = (pooled.machine, pooled.ticket_class)
        try:
            ok = self._scrub(pooled)
        except ReproError:
            ok = False
        if not ok or self.closed:
            pooled.container.terminate("pool scrub failed" if not ok
                                       else "pool closed")
            self._m_discarded.inc()
            return False
        with self._lock:
            bucket = self._idle.setdefault(key, [])
            if len(bucket) >= self.capacity:
                overflow = True
            else:
                bucket.append(pooled)
                overflow = False
        if overflow:
            pooled.container.terminate("pool at capacity")
            self._m_overflow.inc()
            return False
        self._m_reused.inc()
        self._set_idle_gauge(key)
        return True

    def prewarm(self, spec: PerforatedContainerSpec, machine: str,
                ticket_class: str, count: Optional[int] = None,
                user: str = "end-user") -> int:
        """Deploy up to ``count`` (default: capacity) idle containers."""
        key = (machine, ticket_class)
        wanted = self.capacity if count is None else min(count, self.capacity)
        warmed = 0
        while True:
            with self._lock:
                if len(self._idle.get(key, [])) >= wanted:
                    break
            pooled = self._deploy(spec, machine, user, ticket_class)
            with self._lock:
                self._idle.setdefault(key, []).append(pooled)
            warmed += 1
        self._set_idle_gauge(key)
        return warmed

    def close(self) -> None:
        """Terminate every idle deployment; further releases discard."""
        with self._lock:
            self.closed = True
            idle = [p for bucket in self._idle.values() for p in bucket]
            self._idle.clear()
        for pooled in idle:
            pooled.container.terminate("pool closed")

    def idle_count(self, machine: Optional[str] = None,
                   ticket_class: Optional[str] = None) -> int:
        with self._lock:
            return sum(len(bucket) for (m, c), bucket in self._idle.items()
                       if (machine is None or m == machine)
                       and (ticket_class is None or c == ticket_class))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _deploy(self, spec: PerforatedContainerSpec, machine: str,
                user: str, ticket_class: str) -> PooledDeployment:
        deployment = self.cluster.deploy(spec, machine, user=user)
        return PooledDeployment(
            deployment=deployment, spec=spec, machine=machine,
            ticket_class=ticket_class, user=user,
            baseline=_snapshot(deployment.container))

    def _set_idle_gauge(self, key: PoolKey) -> None:
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._registry.gauge("controlplane_pool_idle",
                                         machine=key[0],
                                         ticket_class=key[1])
            self._gauges[key] = gauge
        with self._lock:
            gauge.set(len(self._idle.get(key, [])))

    def _rebind_user(self, pooled: PooledDeployment, user: str) -> None:
        """Swap the ``{user}``-templated shares over to a new tenant.

        Pools are keyed by (machine, ticket class), not user — but specs
        like T-1 expose ``/home/{user}``. The first lease for each user
        builds that user's share mounts (ITFS wrappers + conFS skeleton
        dirs); they are cached on the pooled deployment, so later leases
        for a returning user swap mount lists instead of remounting
        through the kernel. Skeleton directories stay in conFS across
        tenants — they expose only usernames (as a shared host's ``/home``
        does), never content, and keeping them is what lets the conFS
        generation counter stay stable for the O(1) scrub proof.
        """
        if user == pooled.user:
            return
        container = pooled.container
        templated = [s for s in pooled.spec.fs_shares if "{user}" in s]
        if templated:
            table = container.init_proc.namespaces.mnt.table
            for share in templated:
                old_mount = table.remove(share.format(user=pooled.user))
                container.itfs_mounts.remove(old_mount.fs)
            cached = pooled.share_cache.get(user)
            if cached is None:
                policy = build_itfs_policy(pooled.spec)
                before = len(table)
                for share in templated:
                    container._mount_share(table, share.format(user=user),
                                           policy)
                cached = list(table)[before:]
                pooled.share_cache[user] = cached
            else:
                for mount in cached:
                    # a cached ITFS carries its previous lease's decision
                    # cache and audit binding — both must be per-lease
                    mount.fs.reset_decision_cache()
                    mount.fs.audit = container.fs_audit
                    container.itfs_mounts.append(mount.fs)
                    table.add(mount)
        container.user = user
        pooled.user = user
        # mounts (and, on a first-time user, conFS skeletons) changed:
        # re-baseline so the scrub proves cleanliness against *this* view
        pooled.baseline = _snapshot(container)

    # -- scrub-on-release ----------------------------------------------

    def _scrub(self, pooled: PooledDeployment) -> bool:
        """Reset a released container to its baseline and verify the reset.

        Returns True only when every check passes; the caller discards the
        container otherwise (fail closed).
        """
        container = pooled.container
        baseline = pooled.baseline
        if not container.active:
            # terminated mid-lease (fatal fault, watchdog, expiry): nothing
            # to salvage
            self._m_scrub_term.inc()
            return False

        # 1. kill everything the session spawned under the container init,
        #    then prune the corpses — without the prune, init's child list
        #    grows by one dead shell per lease and every later scrub pays
        #    an ever-longer walk
        stack = list(container.init_proc.children)
        while stack:
            proc = stack.pop()
            stack.extend(proc.children)
            if proc.alive:
                proc.die(0)
            container.kernel.processes.pop(proc.pid, None)  # reap
        container.init_proc.children[:] = []
        container.sessions.clear()

        # 2. restore the filesystem view (drop broker-widened shares)
        table = container.init_proc.namespaces.mnt.table
        table.restore(baseline.mounts)
        container.itfs_mounts[:] = baseline.itfs_mounts

        # 3. restore the network view (drop pb-grant firewall rules, taps,
        #    any interface the broker attached to a previously-isolated ns)
        net_ns = container.init_proc.namespaces.net
        net_ns.firewall[:] = baseline.firewall
        net_ns.routes[:] = baseline.routes
        net_ns.taps[:] = baseline.taps
        net_ns.default_policy = baseline.default_policy
        net_ns.interfaces.clear()
        net_ns.interfaces.update(baseline.interfaces)

        # 4. rotate audit epochs: the next tenant starts with empty logs;
        #    the session's close already read the prior epochs
        self._rotate_audit_epochs(pooled)

        # 5. drop cached ITFS decisions
        for itfs in container.itfs_mounts:
            if itfs.cached_decisions:
                itfs.reset_decision_cache()

        # 6. conFS proof: equal generation == byte-identical private tree
        if container.conFS is not None and \
                container.conFS.generation != baseline.confs_generation:
            self._m_scrub_rebuild.inc()
            self._rebuild_filesystem_view(pooled)
        else:
            self._m_scrub_fast.inc()

        return self._verify(pooled)

    def _rotate_audit_epochs(self, pooled: PooledDeployment) -> None:
        """Give untouched-since-rotation streams a pass, rotate the rest.

        An empty log is indistinguishable from a fresh one — rotating it
        would only churn objects. Any stream the session wrote to gets a
        fresh epoch log; the session's close already read the old one.
        """
        container = pooled.container
        kernel = container.kernel

        def fresh(stream: str) -> AppendOnlyLog:
            return AppendOnlyLog(
                name=f"{pooled.spec.name}#e{next(_EPOCH_SEQ)}-{stream}",
                clock=lambda: kernel.clock)

        if len(container.fs_audit):
            container.fs_audit = fresh("fs-audit")
            for itfs in container.itfs_mounts:
                itfs.audit = container.fs_audit
        if len(container.net_audit):
            container.net_audit = fresh("net-audit")
            if container.monitor is not None:
                container.monitor.audit = container.net_audit
        if len(pooled.deployment.broker.audit):
            pooled.deployment.broker.audit = fresh("broker-audit")

    def _rebuild_filesystem_view(self, pooled: PooledDeployment) -> None:
        """Slow path: the tenant wrote into conFS, so rebuild from image."""
        container = pooled.container
        container.itfs_mounts.clear()
        container._build_filesystem_view(build_itfs_policy(pooled.spec),
                                         hostname="ITContainer")
        for itfs in container.itfs_mounts:
            itfs.audit = container.fs_audit
        pooled.baseline = _snapshot(container)

    def _verify(self, pooled: PooledDeployment) -> bool:
        """Prove the scrub took. Any failed check poisons the container."""
        container = pooled.container
        baseline = pooled.baseline
        net_ns = container.init_proc.namespaces.net
        table = container.init_proc.namespaces.mnt.table
        checks = (
            container.active,
            all(a is b for a, b in zip(table, baseline.mounts))
            and len(table) == len(baseline.mounts),
            container.itfs_mounts == baseline.itfs_mounts,
            container.conFS is None
            or container.conFS.generation == baseline.confs_generation,
            net_ns.firewall == baseline.firewall,
            net_ns.taps == baseline.taps,
            sorted(net_ns.interfaces) == sorted(baseline.interfaces),
            net_ns.default_policy == baseline.default_policy,
            len(container.fs_audit) == 0,
            len(container.net_audit) == 0,
            len(pooled.deployment.broker.audit) == 0,
            all(itfs.cached_decisions == 0 for itfs in container.itfs_mounts),
            not container.sessions,
            all(not p.alive for p in container.init_proc.children),
        )
        ok = all(checks)
        if not ok:
            self._m_scrub_bad.inc()
        return ok
