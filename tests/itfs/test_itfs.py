"""ITFS: pass-through monitoring, policy enforcement, visibility semantics."""

import pytest

from repro.errors import AccessBlocked, FileNotFound
from repro.itfs import (
    ITFS,
    AppendOnlyLog,
    ContentRule,
    CustomRule,
    PathRule,
    PolicyManager,
    document_blocking_policy,
)
from repro.kernel import MemoryFilesystem


@pytest.fixture()
def backing():
    fs = MemoryFilesystem()
    fs.populate({
        "home": {
            "alice": {
                "notes.txt": "plain notes",
                "payroll.docx": b"PK\x03\x04 payroll",
                "cat.jpg": b"\xff\xd8\xff\xe0cat",
                "mystery": b"%PDF-1.4 hidden pdf no extension",
            },
        },
        "opt": {"watchit": {"policy.cfg": "rules"}},
        "matlab": {"license.lic": "EXPIRED"},
    })
    return fs


def make_itfs(backing, policy):
    return ITFS(backing_fs=backing, policy=policy, audit=AppendOnlyLog("t"))


class TestPassThrough:
    def test_reads_forward_to_backing(self, backing):
        itfs = make_itfs(backing, PolicyManager())
        assert itfs.read("/home/alice/notes.txt") == b"plain notes"

    def test_writes_forward_to_backing(self, backing):
        itfs = make_itfs(backing, PolicyManager())
        itfs.write("/matlab/license.lic", b"VALID-2018")
        assert backing.read("/matlab/license.lic") == b"VALID-2018"

    def test_subtree_itfs_translates(self, backing):
        itfs = ITFS(backing, PolicyManager(), backing_subpath="/home/alice")
        assert itfs.read("/notes.txt") == b"plain notes"

    def test_mkdir_unlink_roundtrip(self, backing):
        itfs = make_itfs(backing, PolicyManager())
        itfs.mkdir("/newdir")
        itfs.write("/newdir/f", b"x")
        itfs.unlink("/newdir/f")
        itfs.rmdir("/newdir")
        assert not backing.exists("/newdir")

    def test_stat_and_readdir_pass_through(self, backing):
        itfs = make_itfs(backing, PolicyManager())
        assert itfs.stat("/home/alice/notes.txt").size == len(b"plain notes")
        assert "alice" in itfs.readdir("/home")


class TestExtensionPolicy:
    def test_document_extension_denied(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(AccessBlocked) as err:
            itfs.read("/home/alice/payroll.docx")
        assert err.value.rule == "no-documents"

    def test_image_extension_denied(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/cat.jpg")

    def test_plain_file_allowed(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        assert itfs.read("/home/alice/notes.txt") == b"plain notes"

    def test_extension_policy_misses_disguised_pdf(self, backing):
        # the cheap mode's known blind spot — motivates signature mode
        itfs = make_itfs(backing, document_blocking_policy(by_signature=False))
        assert itfs.read("/home/alice/mystery").startswith(b"%PDF")

    def test_write_of_blocked_type_denied(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(AccessBlocked):
            itfs.write("/home/alice/new.pdf", b"data")


class TestSignaturePolicy:
    def test_signature_catches_disguised_pdf(self, backing):
        itfs = make_itfs(backing, document_blocking_policy(by_signature=True))
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/mystery")

    def test_signature_catches_docx(self, backing):
        itfs = make_itfs(backing, document_blocking_policy(by_signature=True))
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/payroll.docx")

    def test_signature_allows_text(self, backing):
        itfs = make_itfs(backing, document_blocking_policy(by_signature=True))
        assert itfs.read("/home/alice/notes.txt") == b"plain notes"

    def test_head_loaded_lazily_only_for_signature_rules(self, backing):
        calls = []
        original = backing.read_head

        def counting_read_head(path, size, ctx=None):
            calls.append(path)
            return original(path, size, ctx)

        backing.read_head = counting_read_head
        ext_itfs = make_itfs(backing, document_blocking_policy(by_signature=False))
        ext_itfs.read("/home/alice/notes.txt")
        assert calls == []  # extension mode never touches content
        sig_itfs = make_itfs(backing, document_blocking_policy(by_signature=True))
        sig_itfs.read("/home/alice/notes.txt")
        assert len(calls) == 1


class TestVisibilitySemantics:
    """Blocked files remain visible (paper: block access, not existence)."""

    def test_blocked_file_listed_in_readdir(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        assert "payroll.docx" in itfs.readdir("/home/alice")

    def test_blocked_file_stat_succeeds(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        assert itfs.stat("/home/alice/payroll.docx").size > 0

    def test_blocked_file_lookup_succeeds(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        assert itfs.lookup("/home/alice/payroll.docx") is not None


class TestPathAndCustomRules:
    def test_watchit_files_shielded(self, backing):
        policy = PolicyManager()
        policy.add_rule(PathRule("watchit-shield", prefixes=["/opt/watchit"]))
        itfs = make_itfs(backing, policy)
        with pytest.raises(AccessBlocked):
            itfs.read("/opt/watchit/policy.cfg")
        with pytest.raises(AccessBlocked):
            itfs.write("/opt/watchit/policy.cfg", b"evil")

    def test_allow_rule_short_circuits(self, backing):
        policy = PolicyManager()
        policy.add_rule(PathRule("matlab-ok", prefixes=["/matlab"],
                                 decision="allow", log=False))
        policy.add_rule(PathRule("deny-everything", prefixes=["/"]))
        itfs = make_itfs(backing, policy)
        assert itfs.read("/matlab/license.lic") == b"EXPIRED"
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/notes.txt")

    def test_content_rule_predicate(self, backing):
        policy = PolicyManager()
        policy.add_rule(ContentRule(
            "no-pdf-text", predicate=lambda path, head: b"%PDF" in head))
        itfs = make_itfs(backing, policy)
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/mystery")

    def test_custom_rule_sees_op(self, backing):
        policy = PolicyManager()
        policy.add_rule(CustomRule(
            "read-only-alice",
            hook=lambda op, path, head: op == "write" and path.startswith("/home")))
        itfs = make_itfs(backing, policy)
        assert itfs.read("/home/alice/notes.txt")
        with pytest.raises(AccessBlocked):
            itfs.write("/home/alice/notes.txt", b"x")


class TestAuditing:
    def test_denials_logged(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/payroll.docx")
        denies = itfs.audit.filter(decision="deny")
        assert len(denies) == 1
        assert denies[0].path == "/home/alice/payroll.docx"
        assert denies[0].rule == "no-documents"

    def test_log_all_records_allowed_content_ops(self, backing):
        itfs = make_itfs(backing, PolicyManager(log_all=True))
        itfs.read("/home/alice/notes.txt")
        allows = itfs.audit.filter(decision="allow", op="read")
        assert len(allows) == 1

    def test_log_all_off_stays_silent_for_allows(self, backing):
        itfs = make_itfs(backing, PolicyManager(log_all=False))
        itfs.read("/home/alice/notes.txt")
        assert len(itfs.audit) == 0

    def test_log_meta_audits_every_metadata_op(self, backing):
        policy = PolicyManager(log_all=True, log_meta=True)
        assert policy.evaluate("stat", "/home").log
        itfs = make_itfs(backing, policy)
        itfs.lookup("/home/alice")
        itfs.readdir("/home/alice")
        itfs.stat("/home/alice/notes.txt")
        assert [(r.op, r.path) for r in itfs.audit.records] == [
            ("lookup", "/home/alice"), ("readdir", "/home/alice"),
            ("stat", "/home/alice/notes.txt")]

    def test_metadata_ops_silent_without_log_meta(self, backing):
        itfs = make_itfs(backing, PolicyManager(log_all=True))
        itfs.lookup("/home/alice")
        itfs.readdir("/home/alice")
        itfs.stat("/home/alice/notes.txt")
        assert len(itfs.audit) == 0

    def test_audit_chain_remains_valid(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        for _ in range(3):
            with pytest.raises(AccessBlocked):
                itfs.read("/home/alice/cat.jpg")
        assert itfs.audit.verify()

    def test_op_counters(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        itfs.read("/home/alice/notes.txt")
        with pytest.raises(AccessBlocked):
            itfs.read("/home/alice/cat.jpg")
        assert itfs.ops_total == 2 and itfs.ops_denied == 1


class TestRenameSemantics:
    def test_rename_checked_on_both_ends(self, backing):
        # renaming a blocked type away (or into) a name is still denied
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(AccessBlocked):
            itfs.rename("/home/alice/payroll.docx", "/home/alice/innocent.txt")
        with pytest.raises(AccessBlocked):
            itfs.rename("/home/alice/notes.txt", "/home/alice/notes.pdf")

    def test_missing_file_read_raises_enoent_not_blocked(self, backing):
        itfs = make_itfs(backing, document_blocking_policy())
        with pytest.raises(FileNotFound):
            itfs.read("/home/alice/nope.txt")
