"""Gate-walk edges of the escape actions' kernel gates.

The three configurations the routine catalog never exercises: a chroot
attempt from *under* a bind-mounted share (full-root and subtree
variants), a fully-dropped capability set, and a spec with zero fs
shares. Each walk is ``action.gates(initial_state(target))``, the same
walk WIT001–005 read. Property tests pin the template-matching algebra
the path gates are built on.
"""

from hypothesis import given, strategies as st

from repro.analysis.model import (
    DEV_MEM_PATH,
    TCB_SURFACE_PREFIXES,
    LintTarget,
    template_covers,
    templates_overlap,
)
from repro.analysis.modelcheck import (
    Reachability,
    check_target,
    escape_actions,
    escape_predicates,
    initial_state,
)
from repro.analysis.modelcheck.actions import (
    ChrootAction,
    OpenDevMemAction,
    ShmRendezvousAction,
    residual_defense,
)
from repro.containit.spec import PerforatedContainerSpec
from repro.kernel.capabilities import (
    Capability,
    container_capability_set,
)


def spec_with(name="EDGE", **overrides):
    return PerforatedContainerSpec(name=name, description="edge case",
                                   **overrides)


def walk(action, spec, capabilities=None):
    """The action's gates from the spec's initial state."""
    target = LintTarget(spec=spec, capabilities=capabilities)
    return action.gates(initial_state(target))


def fully_reachable(gates):
    return not any(g.blocked for g in gates)


class TestChrootUnderBindMount:
    """Bind-mounted shares must not re-open the chroot escape route."""

    def test_subtree_share_leaves_chroot_capability_gated(self):
        chroot = walk(ChrootAction(),
                      spec_with(fs_shares=("/home/{user}", "/etc")))
        assert not fully_reachable(chroot)
        assert residual_defense(chroot) == "CAP_SYS_CHROOT dropped"

    def test_full_root_bind_mount_still_blocks_chroot(self):
        # T-6 shape: the whole host root is ITFS-bind-mounted into the
        # container; everything is path-visible, yet the double-chroot
        # escape stays dead because the capability was dropped
        spec = spec_with(fs_shares=("/",))
        state = initial_state(LintTarget(spec=spec))
        assert spec.shares_full_root
        assert state.path_visible("/anything/at/all")
        assert not fully_reachable(ChrootAction().gates(state))

    def test_retained_chroot_cap_under_bind_mount_is_fully_reachable(self):
        caps = frozenset(container_capability_set()
                         | {Capability.CAP_SYS_CHROOT})
        chroot = walk(ChrootAction(), spec_with(fs_shares=("/",)),
                      capabilities=caps)
        assert fully_reachable(chroot) and residual_defense(chroot) == ""

    def test_model_checker_agrees_chroot_needs_the_cap(self):
        caps = frozenset(container_capability_set()
                         | {Capability.CAP_SYS_CHROOT})
        target = LintTarget(spec=spec_with(fs_shares=("/home/{user}",)),
                            capabilities=caps)
        result = check_target(target)
        assert (result.verdict("host-fs-raw").reachability
                is Reachability.REACHABLE)
        actions = {s.action
                   for s in result.verdict("host-fs-raw").witness}
        assert actions == {"syscall:chroot"}


class TestEmptyCapabilitySet:
    """With every capability dropped, only namespace holes matter."""

    def test_all_capability_gates_blocked(self):
        spec = spec_with(process_management=True, share_ipc=True)
        for action in escape_actions():
            for gate in walk(action, spec, capabilities=frozenset()):
                if gate.layer == "capability":
                    assert gate.blocked, (action.route, gate.name)

    def test_ipc_escape_survives_empty_caps(self):
        # shm rendezvous carries no capability gate: sharing the IPC
        # namespace is sufficient even for a fully de-capabilitied admin
        ipc = walk(ShmRendezvousAction(), spec_with(share_ipc=True),
                   capabilities=frozenset())
        assert fully_reachable(ipc)

    def test_model_checker_finds_no_syscall_escape(self):
        target = LintTarget(spec=spec_with(fs_shares=("/home/{user}",),
                                           process_management=True),
                            capabilities=frozenset())
        result = check_target(target)
        for predicate in escape_predicates():
            assert (result.verdict(predicate.key).reachability
                    is Reachability.UNREACHABLE), predicate.key

    def test_initial_state_has_no_caps(self):
        target = LintTarget(spec=spec_with(), capabilities=frozenset())
        state = initial_state(target)
        assert all(not state.has_cap(c) for c in Capability)


class TestZeroShares:
    """A windowless container: no fs shares at all (S-3/T-11 shape)."""

    def test_nothing_is_path_visible(self):
        spec = spec_with()
        state = initial_state(LintTarget(spec=spec))
        assert spec.fs_shares == () and state.view == frozenset()
        assert not state.path_visible("/etc")
        assert not state.path_visible(DEV_MEM_PATH)
        assert not any(templates_overlap(share, "/")
                       for share in state.view)
        assert not any(templates_overlap(share, prefix)
                       for share in state.view
                       for prefix in TCB_SURFACE_PREFIXES)

    def test_devmem_blocked_by_path_even_with_the_cap(self):
        caps = frozenset(container_capability_set()
                         | {Capability.CAP_DEV_MEM})
        devmem = walk(OpenDevMemAction(), spec_with(), capabilities=caps)
        assert not fully_reachable(devmem)
        assert residual_defense(devmem) == "filesystem isolation"

    def test_host_write_unreachable_without_shares(self):
        target = LintTarget(spec=spec_with())
        result = check_target(target)
        assert (result.verdict("host-data-write").reachability
                is Reachability.UNREACHABLE)


# -- template-matching algebra (property tests) -------------------------

SEGMENT = st.sampled_from(["home", "etc", "dev", "{user}", "alice", "log"])
PATHS = st.lists(SEGMENT, min_size=0, max_size=4).map(
    lambda segs: "/" + "/".join(segs))


class TestTemplateProperties:
    @given(PATHS)
    def test_covers_is_reflexive(self, path):
        assert template_covers(path, path)

    @given(PATHS, SEGMENT)
    def test_covers_extends_downward(self, prefix, extra):
        assert template_covers(prefix, prefix.rstrip("/") + "/" + extra)

    @given(PATHS, PATHS)
    def test_overlap_is_symmetric(self, a, b):
        assert templates_overlap(a, b) == templates_overlap(b, a)

    @given(PATHS, PATHS)
    def test_covers_implies_overlap(self, a, b):
        if template_covers(a, b):
            assert templates_overlap(a, b)

    @given(st.lists(SEGMENT, min_size=1, max_size=3))
    def test_user_template_matches_any_single_segment(self, segs):
        concrete = "/" + "/".join(segs)
        templated = "/" + "/".join("{user}" for _ in segs)
        assert template_covers(templated, concrete)
        assert template_covers(concrete, templated)

    @given(PATHS)
    def test_longer_path_never_covers_its_parent(self, path):
        child = path.rstrip("/") + "/leaf"
        assert not template_covers(child, path)
