"""Stress: many sequential deployments on one host stay isolated and clean."""


from repro.containit import PerforatedContainer
from repro.framework.images import TABLE3_SPECS
from repro.experiments.rig import build_case_study_rig


class TestDeploymentChurn:
    def test_hundred_deployments_one_host(self):
        rig = build_case_study_rig()
        baseline_procs = len(rig.host.alive_processes())
        baseline_mounts = len(rig.host.sys.mounts(rig.host.init))
        classes = sorted(TABLE3_SPECS)
        for i in range(100):
            spec = TABLE3_SPECS[classes[i % len(classes)]]
            container = PerforatedContainer.deploy(
                rig.host, spec, user="alice",
                address_book=rig.address_book,
                container_ip=f"10.0.95.{i % 250 + 2}")
            shell = container.login(f"admin-{i}")
            shell.listdir("/")
            shell.write_file("/tmp/scratch", b"x")
            container.terminate("churn")
            assert not container.active
        # no process or mount leaks on the host
        assert len(rig.host.alive_processes()) == baseline_procs
        assert len(rig.host.sys.mounts(rig.host.init)) == baseline_mounts

    def test_parallel_containers_distinct_views(self):
        rig = build_case_study_rig()
        containers = []
        for i, class_id in enumerate(("T-1", "T-2", "T-5", "T-11")):
            containers.append(PerforatedContainer.deploy(
                rig.host, TABLE3_SPECS[class_id], user="alice",
                address_book=rig.address_book, container_ip=f"10.0.94.{i+2}"))
        shells = [c.login("admin") for c in containers]
        # each writes into its own /tmp; none sees another's file
        for i, shell in enumerate(shells):
            shell.write_file("/tmp/mine", f"container-{i}".encode())
        for i, shell in enumerate(shells):
            assert shell.read_file("/tmp/mine") == f"container-{i}".encode()
        # pid views are disjoint (except procmgmt T-5 which sees the host)
        t1_pids = {r["comm"] for r in shells[0].ps()}
        assert "containIT" in t1_pids and len(t1_pids) == 2
        for container in containers:
            container.terminate("done")

    def test_audit_chains_survive_churn(self):
        rig = build_case_study_rig()
        for i in range(20):
            container = PerforatedContainer.deploy(
                rig.host, TABLE3_SPECS["T-11"], user="alice",
                address_book=rig.address_book)
            shell = container.login("admin")
            shell.write_file("/tmp/f", b"x")
            container.terminate("done")
            assert container.fs_audit.verify()
            assert len(container.fs_audit) >= 1
