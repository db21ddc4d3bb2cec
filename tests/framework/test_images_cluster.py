"""Image repository (Table 3) and the cluster manager."""

import pytest

from repro.errors import IntegrityError, InvalidArgument
from repro.framework import (
    SCRIPT_SPECS_CHEF_PUPPET,
    SCRIPT_SPECS_CLUSTER,
    TABLE3_SPECS,
    ClusterManager,
    ImageRepository,
)
from repro.kernel import Kernel, NamespaceKind, Network
from repro.tcb import WATCHIT_COMPONENT_ROOT, install_watchit_components


class TestTable3Specs:
    def test_all_eleven_classes_present(self):
        assert set(TABLE3_SPECS) == {f"T-{i}" for i in range(1, 12)}

    def test_t1_license_row(self):
        spec = TABLE3_SPECS["T-1"]
        assert spec.fs_shares == ("/home/{user}",)
        assert spec.network_allowed == ("license-server",)
        assert not spec.process_management

    def test_t4_shares_network_namespace(self):
        assert TABLE3_SPECS["T-4"].share_network_ns
        assert NamespaceKind.NET not in TABLE3_SPECS["T-4"].clone_flags()

    def test_t6_full_root(self):
        assert TABLE3_SPECS["T-6"].shares_full_root

    def test_t9_five_grants(self):
        spec = TABLE3_SPECS["T-9"]
        assert spec.process_management
        assert set(spec.fs_shares) == {"/home/{user}", "/etc"}
        assert set(spec.network_allowed) == {"batch-server", "target-machine"}

    def test_t11_fully_isolated(self):
        spec = TABLE3_SPECS["T-11"]
        assert spec.fs_shares == () and spec.network_allowed == ()

    def test_hard_constraints_on_every_class(self):
        # the anti-stringing floor: documents blocked everywhere
        assert all(spec.block_documents for spec in TABLE3_SPECS.values())

    def test_script_spec_counts(self):
        assert len(SCRIPT_SPECS_CHEF_PUPPET) == 4
        assert len(SCRIPT_SPECS_CLUSTER) == 2


class TestImageRepository:
    def test_get_known_class(self):
        repo = ImageRepository()
        assert repo.get("T-3").name == "T-3"

    def test_unknown_class_falls_back_to_t11(self):
        repo = ImageRepository()
        assert repo.get("T-99").fs_shares == ()

    def test_register_custom_image(self):
        from repro.containit import PerforatedContainerSpec
        repo = ImageRepository()
        repo.register(PerforatedContainerSpec(name="custom"))
        assert repo.get("custom").name == "custom"

    def test_table3_rows_cover_all(self):
        rows = ImageRepository().table3_rows()
        assert len(rows) == 11
        assert {r["class"] for r in rows} == set(TABLE3_SPECS)


@pytest.fixture()
def managed():
    net = Network()
    host = Kernel("ws-01", ip="10.0.0.5", network=net)
    install_watchit_components(host.rootfs)
    manager = ClusterManager(network=net)
    manager.register_machine(host)
    return net, host, manager


class TestClusterManager:
    def test_secure_boot_on_registration(self, managed):
        net, host, manager = managed
        assert any(e["kind"] == "secure_boot" for e in host.events)

    def test_tampered_host_refused(self):
        net = Network()
        host = Kernel("bad-host", ip="10.0.0.9", network=net)
        install_watchit_components(host.rootfs)
        host.rootfs.write(f"{WATCHIT_COMPONENT_ROOT}/itfs", b"trojan")
        # hmm — manifest is built over current content, so tamper AFTER
        # manifest creation is the attack; SecureBoot builds its manifest
        # from pristine sources at construction. Simulate by building the
        # manifest first and then tampering before boot.
        from repro.tcb import IntegrityManifest, SecureBoot
        pristine = Kernel("gold", ip="10.0.0.10", network=net)
        install_watchit_components(pristine.rootfs)
        manifest = IntegrityManifest.for_watchit(pristine.rootfs)
        with pytest.raises(IntegrityError):
            SecureBoot(host, manifest=manifest).boot()

    def test_deploy_on_unmanaged_machine_rejected(self, managed):
        net, host, manager = managed
        from repro.framework import TABLE3_SPECS
        with pytest.raises(InvalidArgument):
            manager.deploy(TABLE3_SPECS["T-1"], "nonexistent")

    def test_deploy_returns_container_and_broker(self, managed):
        net, host, manager = managed
        deployment = manager.deploy(TABLE3_SPECS["T-11"], "ws-01", user="alice")
        assert deployment.container.active
        assert deployment.broker.container is deployment.container

    def test_unique_container_ips(self, managed):
        net, host, manager = managed
        a = manager.deploy(TABLE3_SPECS["T-1"], "ws-01")
        b = manager.deploy(TABLE3_SPECS["T-1"], "ws-01")
        assert a.container.container_ip != b.container.container_ip

    def test_teardown(self, managed):
        net, host, manager = managed
        deployment = manager.deploy(TABLE3_SPECS["T-1"], "ws-01")
        manager.teardown(deployment)
        assert not deployment.container.active
