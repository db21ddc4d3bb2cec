"""Scrub-on-release isolation: nothing crosses tenants through a pool.

The acceptance scenario: a session widens its filesystem view through the
permission broker (``PB share-path``), touches files, escalates network
access — then releases its container back to the pool. The *next* tenant
of that pooled container must see none of it: not the widened view, not
the cached ITFS decisions, not the audit entries, not the firewall holes.
The chaos variant proves the same invariant holds under fault injection:
the pool fails closed, discarding any container it cannot prove clean.
"""

from dataclasses import replace

import pytest

from repro.broker import BrokerClient
from repro.controlplane.pool import ContainerPool
from repro.errors import ReproError
from repro.faults import FaultPlane, scope
from repro.faults.chaos import default_chaos_rules
from repro.framework.orchestrator import WatchITDeployment

MACHINE = "ws-01"
ADMIN = "it-duty"
TICKET_CLASS = "T-1"  # shares /home/{user}, has network perforations
STORAGE_IP = "10.0.1.20"


@pytest.fixture()
def org():
    org = WatchITDeployment.bootstrap(machines=("ws-01", "ws-02"),
                                      users=("alice", "bob"))
    org.register_admin(ADMIN)
    return org


@pytest.fixture()
def pool(org):
    pool = ContainerPool(org.cluster, capacity=2)
    yield pool
    pool.close()


def _lease(org, pool, reporter, text="my matlab license expired"):
    """The executor's serve path up to the live session, by hand.

    The spec runs with ``fs_passthrough`` on so reads populate the ITFS
    decision cache — the cache the scrub must prove empty per lease.
    """
    ticket = org.submit_ticket(reporter, text, machine=MACHINE)
    ticket.classify_as(TICKET_CLASS)
    ticket.assign_to(ADMIN)
    spec = replace(org.images.get(TICKET_CLASS), fs_passthrough=True)
    pooled = pool.acquire(spec, MACHINE, user=reporter,
                          ticket_class=TICKET_CLASS)
    certificate = org.certificates.issue(ADMIN, ticket.ticket_id, MACHINE,
                                         TICKET_CLASS)
    shell = pooled.container.login(
        ADMIN, certificate=certificate,
        authenticator=org.certificates.authenticator(machine=MACHINE))
    client = BrokerClient(shell, pooled.deployment.broker,
                          ticket_class=TICKET_CLASS)
    return ticket, pooled, shell, client


def _finish(org, pool, ticket, pooled, shell):
    if shell is not None and pooled.container.active:
        shell.exit()
    org.certificates.revoke_ticket(ticket.ticket_id)
    reused = pool.release(pooled)
    org.tickets.resolve(ticket)
    return reused


class TestScrubOnRelease:
    def test_widened_view_does_not_leak_to_next_tenant(self, org, pool):
        host = org.machines[MACHINE]
        host.rootfs.populate({"srv": {"data": {"notes.txt": "shared note"}}})

        ticket, pooled, shell, client = _lease(org, pool, "alice")
        assert not shell.exists("/srv/data/notes.txt")
        assert client.share_path("/srv/data").ok
        assert shell.read_file("/srv/data/notes.txt") == b"shared note"
        first_container = pooled.container
        assert _finish(org, pool, ticket, pooled, shell)

        ticket2, pooled2, shell2, _ = _lease(org, pool, "bob")
        assert pooled2.container is first_container  # actually reused
        assert pooled2.pool_hit
        assert not shell2.exists("/srv/data/notes.txt")
        assert not shell2.exists("/srv/data")
        _finish(org, pool, ticket2, pooled2, shell2)

    def test_audit_streams_and_decision_caches_reset(self, org, pool):
        host = org.machines[MACHINE]
        host.rootfs.populate({"srv": {"data": {"f.txt": "x"}}})

        ticket, pooled, shell, client = _lease(org, pool, "alice")
        client.share_path("/srv/data")
        shell.read_file("/srv/data/f.txt")
        # the home share is the passthrough ITFS: reads there populate the
        # per-lease decision cache the scrub must drop
        shell.read_file("/home/alice/matlab/license.lic")
        container = pooled.container
        assert len(container.fs_audit) > 0
        assert len(pooled.deployment.broker.audit) > 0
        assert any(itfs.cached_decisions for itfs in container.itfs_mounts)
        assert _finish(org, pool, ticket, pooled, shell)

        # the next tenant starts with empty logs and cold caches
        ticket2, pooled2, shell2, _ = _lease(org, pool, "bob")
        assert len(pooled2.container.fs_audit) == 0
        assert len(pooled2.container.net_audit) == 0
        assert len(pooled2.deployment.broker.audit) == 0
        assert all(itfs.cached_decisions == 0
                   for itfs in pooled2.container.itfs_mounts)
        _finish(org, pool, ticket2, pooled2, shell2)

    def test_network_grant_does_not_leak(self, org, pool):
        ticket, pooled, shell, client = _lease(org, pool, "alice")
        assert not shell.net_reachable(STORAGE_IP, 2049)
        assert client.grant_network("shared-storage").ok
        assert shell.net_reachable(STORAGE_IP, 2049)
        assert _finish(org, pool, ticket, pooled, shell)

        ticket2, pooled2, shell2, _ = _lease(org, pool, "bob")
        assert pooled2.pool_hit
        assert not shell2.net_reachable(STORAGE_IP, 2049)
        _finish(org, pool, ticket2, pooled2, shell2)

    def test_session_processes_do_not_leak(self, org, pool):
        ticket, pooled, shell, client = _lease(org, pool, "alice")
        client.pb("ps -a")
        assert _finish(org, pool, ticket, pooled, shell)
        container = pooled.container
        assert not container.sessions
        assert not container.init_proc.children

    def test_terminated_container_is_never_reused(self, org, pool):
        ticket, pooled, shell, _ = _lease(org, pool, "alice")
        pooled.container.terminate("killed mid-lease")
        assert not _finish(org, pool, ticket, pooled, shell)
        assert pool.idle_count(machine=MACHINE) == 0


class TestScrubUnderChaos:
    """The acceptance bar: isolation holds under ``repro chaos`` faults.

    Each cycle leases a container, escalates through the broker, and
    releases. Whatever the fault plane broke, the next lease must start
    clean — the pool may discard (fail closed) but may never hand over a
    dirty container.
    """

    @pytest.mark.parametrize("seed", [7, 23, 99])
    def test_next_tenant_always_starts_clean(self, org, pool, seed):
        host = org.machines[MACHINE]
        host.rootfs.populate({"srv": {"data": {"notes.txt": "shared"}}})
        plane = FaultPlane(rules=default_chaos_rules(0.08), seed=seed)
        users = ["alice", "bob"]
        reuses = discards = 0
        with scope(plane):
            for i in range(12):
                ticket = pooled = shell = None
                try:
                    ticket, pooled, shell, client = _lease(
                        org, pool, users[i % 2])
                except ReproError:
                    continue  # lease itself faulted; nothing to check
                # the clean-start invariant, before this tenant acts
                container = pooled.container
                assert len(container.fs_audit) == 0
                assert len(container.net_audit) == 0
                assert len(pooled.deployment.broker.audit) == 0
                assert all(itfs.cached_decisions == 0
                           for itfs in container.itfs_mounts)
                try:
                    widened = shell.exists("/srv/data")
                except ReproError:
                    widened = False  # the probe itself drew a fault
                assert not widened
                try:
                    client.share_path("/srv/data")
                    shell.read_file("/srv/data/notes.txt")
                except ReproError:
                    pass  # injected fault mid-session; release must cope
                if _finish(org, pool, ticket, pooled, shell):
                    reuses += 1
                else:
                    discards += 1
        # the loop must have exercised the pool both ways at least once
        # across the seeds; within one seed just require progress
        assert reuses + discards > 0
