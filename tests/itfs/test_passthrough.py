"""ITFS pass-through read/write mode (the paper's cited optimization)."""

import pytest

from repro.errors import AccessBlocked
from repro.itfs import ITFS, AppendOnlyLog, PolicyManager, document_blocking_policy
from repro.kernel import MemoryFilesystem


@pytest.fixture()
def fs():
    backing = MemoryFilesystem()
    backing.populate({"data": {"a.txt": "aaa", "doc.pdf": b"%PDF secret"}})
    return backing


class TestPassthroughSemantics:
    def test_repeat_reads_hit_cache(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        for _ in range(5):
            itfs.read("/data/a.txt")
        assert itfs.cache_hits == 4
        # only the first read is audited
        assert len(itfs.audit.filter(op="read")) == 1

    def test_denials_also_cached(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        for _ in range(3):
            with pytest.raises(AccessBlocked):
                itfs.read("/data/doc.pdf")
        assert itfs.cache_hits == 2
        assert itfs.ops_denied == 3

    def test_cache_invalidated_on_rename(self, fs):
        policy = document_blocking_policy()
        itfs = ITFS(fs, policy, audit=AppendOnlyLog(), passthrough=True)
        itfs.read("/data/a.txt")  # cached: allowed
        # a rename turns the path into a blocked type; stale 'allow' must die
        itfs_unchecked = ITFS(fs, PolicyManager(log_all=False))
        itfs_unchecked.rename("/data/a.txt", "/data/a.bak")
        fs.write("/data/a.txt", b"%PDF now a document")
        with pytest.raises(AccessBlocked):
            # signature policy would miss by extension; use signature mode
            sig = ITFS(fs, document_blocking_policy(by_signature=True),
                       audit=AppendOnlyLog(), passthrough=True)
            sig.read("/data/a.txt")

    def test_own_mutations_invalidate_cache(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        itfs.read("/data/a.txt")
        assert ("read", "/data/a.txt") in itfs._decision_cache
        itfs.unlink("/data/a.txt")
        assert ("read", "/data/a.txt") not in itfs._decision_cache

    def test_disabled_by_default(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog())
        for _ in range(3):
            itfs.read("/data/a.txt")
        assert itfs.cache_hits == 0
        assert len(itfs.audit.filter(op="read")) == 3

    def test_passthrough_is_faster_on_signature_mode(self, fs):
        import time
        big = MemoryFilesystem()
        for i in range(300):
            big.write(f"/f{i}", b"payload " * 8)

        def sweep(target, repeats=4):
            start = time.perf_counter()
            for _ in range(repeats):
                for i in range(300):
                    target.read(f"/f{i}")
            return time.perf_counter() - start

        plain = ITFS(big, document_blocking_policy(by_signature=True),
                     audit=AppendOnlyLog())
        fast = ITFS(big, document_blocking_policy(by_signature=True),
                    audit=AppendOnlyLog(), passthrough=True)
        assert sweep(fast) < sweep(plain)

    def test_passthrough_reads_each_unchanged_head_once(self):
        # the work behind the wall-clock test above, counted instead of
        # timed: a second Figure 9 grep sweep over unchanged files costs
        # no head load with the decision cache, one per file without it
        from repro.experiments.figure9_itfs import _workloads

        files = {"grep-small": 120, "grep-large": 10}
        loads = {}
        for name, build, drive in _workloads(1):
            if name not in files:
                continue
            for passthrough in (True, False):
                itfs = ITFS(build(), document_blocking_policy(
                    log_all=False, by_signature=True),
                    audit=AppendOnlyLog("fig9"), passthrough=passthrough)
                drive(itfs)
                drive(itfs)
                loads[name, passthrough] = itfs.head_loads
        assert loads == {
            **{(name, True): n for name, n in files.items()},
            **{(name, False): 2 * n for name, n in files.items()}}
