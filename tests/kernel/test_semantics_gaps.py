"""Fidelity details: ITFS privilege inheritance (§5.3), ro mounts, IPC I/O."""

import pytest

from repro.containit import HOME_DIRECTORY, PerforatedContainerSpec
from repro.errors import PermissionDenied, ReadOnlyFilesystem
from repro.kernel import (
    MemoryFilesystem,
    user_credentials,
)
from tests.conftest import deploy


class TestITFSPrivilegeInheritance:
    """'The user logged in to the container inherits the privileges of the
    user that invokes the ITFS on the host ... if ITFS is mounted with
    superuser privileges, the user inside the container also has superuser
    privileges for all the files that are exposed' (§5.3)."""

    def test_contained_root_overrides_file_modes(self, rig):
        net, host = rig
        # a file the *owner* locked down — root still reads it through ITFS
        host.sys.write_file(host.init, "/home/alice/private.key", b"k")
        host.sys.chown(host.init, "/home/alice/private.key", 1000, 1000)
        host.sys.chmod(host.init, "/home/alice/private.key", 0o600)
        container = deploy(host, PerforatedContainerSpec(
            name="T-1", fs_shares=(HOME_DIRECTORY,)))
        shell = container.login("it-bob")
        assert shell.read_file("/home/alice/private.key") == b"k"

    def test_files_created_in_container_are_root_owned_on_host(self, rig):
        net, host = rig
        container = deploy(host, PerforatedContainerSpec(
            name="T-1", fs_shares=(HOME_DIRECTORY,)))
        shell = container.login("it-bob")
        shell.write_file("/home/alice/it-note.txt", b"done")
        st = host.sys.stat(host.init, "/home/alice/it-note.txt")
        assert st.uid == 0

    def test_unprivileged_contained_user_still_bound_by_dac(self, rig):
        net, host = rig
        host.sys.write_file(host.init, "/home/alice/private.key", b"k")
        host.sys.chown(host.init, "/home/alice/private.key", 1000, 1000)
        host.sys.chmod(host.init, "/home/alice/private.key", 0o600)
        container = deploy(host, PerforatedContainerSpec(
            name="T-1", fs_shares=(HOME_DIRECTORY,)))
        shell = container.login("it-bob")
        shell.proc.creds = user_credentials(2000)
        with pytest.raises(PermissionDenied):
            shell.read_file("/home/alice/private.key")


class TestReadOnlyMounts:
    def test_ro_mount_rejects_writes(self, kernel):
        extra = MemoryFilesystem()
        extra.populate({"f": "frozen"})
        kernel.sys.mount(kernel.init, extra, "/mnt", flags=("ro",))
        assert kernel.sys.read_file(kernel.init, "/mnt/f") == b"frozen"
        with pytest.raises(ReadOnlyFilesystem):
            kernel.sys.write_file(kernel.init, "/mnt/f", b"thaw")
        with pytest.raises(ReadOnlyFilesystem):
            kernel.sys.unlink(kernel.init, "/mnt/f")
        with pytest.raises(ReadOnlyFilesystem):
            kernel.sys.mkdir(kernel.init, "/mnt/d")

    def test_ro_bind_mount(self, kernel):
        kernel.sys.bind_mount(kernel.init, "/home/alice", "/mnt", flags=("ro",))
        with pytest.raises(ReadOnlyFilesystem):
            kernel.sys.write_file(kernel.init, "/mnt/notes.txt", b"x")
        # the original path is still writable
        kernel.sys.write_file(kernel.init, "/home/alice/notes.txt", b"ok")


class TestSharedMemoryIO:
    def test_shm_write_visible_through_other_handle(self, kernel):
        seg = kernel.sys.shmget(kernel.init, key=9, size=16, create=True)
        seg.data[0:5] = b"hello"
        again = kernel.sys.shmget(kernel.init, key=9)
        assert bytes(again.data[0:5]) == b"hello"

    def test_shm_size_allocated(self, kernel):
        seg = kernel.sys.shmget(kernel.init, key=3, size=32, create=True)
        assert len(seg.data) == 32

    def test_shm_owner_recorded(self, kernel):
        bob = kernel.sys.clone(kernel.init, "bob", creds=user_credentials(1000))
        seg = kernel.sys.shmget(bob, key=4, size=8, create=True)
        assert seg.owner_uid == 1000

    def test_perforated_ipc_shares_segments_with_host(self, rig):
        net, host = rig
        seg = host.sys.shmget(host.init, key=77, size=8, create=True)
        seg.data[0:2] = b"ok"
        container = deploy(host, PerforatedContainerSpec(
            name="ipc-open", share_ipc=True))
        shell = container.login("it-bob")
        shared = host.sys.shmget(shell.proc, key=77)
        assert bytes(shared.data[0:2]) == b"ok"


class TestKernelEvents:
    def test_deploy_login_terminate_events(self, rig):
        # per-session facts live in the containit counters (and the
        # session trail), not in the host's event list
        from repro import obs

        net, host = rig
        names = ("containit_deployments", "containit_logins",
                 "containit_terminations")
        before = [obs.registry().total(n, spec="T-11") for n in names]
        container = deploy(host, PerforatedContainerSpec(name="T-11"))
        container.login("it-bob")
        container.terminate("done")
        after = [obs.registry().total(n, spec="T-11") for n in names]
        assert [a - b for a, b in zip(after, before)] == [1, 1, 1]
        assert host.events == []

    def test_capability_drop_matrix_documented(self):
        from repro.kernel import CONTAINER_DROPPED_CAPABILITIES
        names = {c.name for c in CONTAINER_DROPPED_CAPABILITIES}
        assert {"CAP_SYS_CHROOT", "CAP_SYS_PTRACE", "CAP_MKNOD",
                "CAP_DEV_MEM", "CAP_SYS_MODULE"} == names
