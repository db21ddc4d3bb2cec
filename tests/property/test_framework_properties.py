"""Property-based tests: preprocessing, LDA, protocol, certificates."""

import ast
import contextlib
import marshal
import resource
import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.broker import BrokerRequest, BrokerResponse, RequestKind
from repro.errors import InvalidArgument
from repro.framework import CertificateAuthority, LDA, stem, tokenize
from repro.framework.preprocess import NOISE_WORDS, STOPWORDS

word = st.text(alphabet=string.ascii_lowercase, min_size=2, max_size=10)

# every output shape the broker emits: ``ps`` rows, ``mounts`` tuples, the
# ``host_info`` dict, plain strings, and None (error replies)
path = st.text(alphabet=string.ascii_lowercase + "/", max_size=12)
ps_rows = st.lists(st.fixed_dictionaries({
    "pid": st.integers(min_value=1, max_value=2**22), "comm": st.text(max_size=12),
    "state": st.just("running"), "uid": st.integers(0, 65535)}), max_size=6)
mounts = st.lists(st.tuples(path, path, st.sampled_from(["bind", "itfs"])),
                  max_size=4)
host_info = st.fixed_dictionaries({
    "hostname": word, "mounts": mounts,
    "process_count": st.integers(min_value=0)})
reply_output = st.one_of(st.none(), st.text(max_size=30), ps_rows, mounts,
                         host_info)


@contextlib.contextmanager
def _address_space_cap(headroom: int = 64 << 20):
    """Cap the address space near its current size while decoding.

    A forged container count makes ``marshal`` allocate that many slots
    before it notices the data is short; under the cap such a count fails
    at once with MemoryError instead of claiming gigabytes.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    pages = int(Path("/proc/self/statm").read_text().split()[0])
    cap = min(limit for limit in (soft, pages * resource.getpagesize() + headroom)
              if limit != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestPreprocessProperties:
    @given(st.lists(word, min_size=0, max_size=20))
    def test_tokens_never_contain_stopwords_or_noise(self, words):
        tokens = tokenize(" ".join(words))
        for token in tokens:
            assert token not in STOPWORDS
            assert token not in NOISE_WORDS

    @given(word)
    def test_stem_idempotent_enough(self, w):
        # stemming twice never diverges into garbage (fixed point within 2)
        once = stem(w)
        assert stem(stem(once)) == stem(once)

    @given(word)
    def test_stem_never_longer(self, w):
        assert len(stem(w)) <= len(w) + 1  # ("ied" -> "y" style swaps only)

    @given(st.text(max_size=80))
    def test_tokenize_total(self, text):
        # arbitrary input never crashes the pipeline
        tokens = tokenize(text)
        assert all(isinstance(t, str) and t for t in tokens)


class TestLDAProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=3))
    def test_distributions_are_simplex_points(self, k, seed):
        rng = np.random.default_rng(seed)
        docs = [list(rng.integers(0, 12, size=6)) for _ in range(20)]
        model = LDA(n_topics=k, n_iter=10, seed=seed).fit(docs, 12)
        phi = model.topic_word_distribution()
        theta = model.doc_topic_distribution()
        assert np.all(phi >= 0) and np.allclose(phi.sum(axis=1), 1.0)
        assert np.all(theta >= 0) and np.allclose(theta.sum(axis=1), 1.0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=5))
    def test_token_counts_conserved(self, seed):
        rng = np.random.default_rng(seed)
        docs = [list(rng.integers(0, 9, size=5)) for _ in range(15)]
        model = LDA(n_topics=3, n_iter=8, seed=seed).fit(docs, 9)
        assert model.topic_counts.sum() == sum(len(d) for d in docs)
        assert np.all(model.topic_word_counts >= 0)
        assert np.all(model.doc_topic_counts >= 0)


class TestProtocolProperties:
    args_strategy = st.dictionaries(
        st.sampled_from(["command", "host_path", "destination", "package",
                         "argv", "port", "target", "container_path"]),
        st.one_of(st.text(max_size=20), st.integers(),
                  st.lists(st.text(max_size=5), max_size=3)),
        max_size=4)

    @given(st.sampled_from(list(RequestKind)), word, word, args_strategy)
    def test_roundtrip_or_clean_rejection(self, kind, requester, klass, args):
        request = BrokerRequest(kind=kind, requester=requester,
                                ticket_class=klass, args=args)
        try:
            data = request.to_bytes()
        except InvalidArgument:
            return  # schema rejected it — acceptable outcome
        back = BrokerRequest.from_bytes(data)
        assert back.kind is kind
        assert back.requester == requester
        assert back.args == args

    @given(st.binary(max_size=64))
    def test_arbitrary_bytes_never_crash_parser(self, blob):
        try:
            BrokerRequest.from_bytes(blob)
        except InvalidArgument:
            pass  # the only acceptable failure mode

    @given(st.booleans(), reply_output, st.text(max_size=30))
    def test_response_roundtrip(self, ok, output, error):
        resp = BrokerResponse(ok=ok, output=output, error=error)
        back = BrokerResponse.from_bytes(resp.to_bytes())
        assert back == resp
        # repr tells tuples from lists: output keeps its Python types
        assert repr(back.output) == repr(output)

    @given(st.binary(max_size=64))
    @example(b"(\x00\x00\x00\x7f")           # forged tuple count
    @example(b")\x03T[\xff\xff\xff\x7f")    # forged count inside a triple
    @example(marshal.dumps((1, None, "")))      # ok is not a bool
    @example(marshal.dumps((True, None, b"")))  # error is not a str
    @example(marshal.dumps([True, None, ""]))   # a list, not a tuple
    def test_arbitrary_reply_bytes_decode_or_raise_invalid(self, blob):
        try:
            with _address_space_cap():
                resp = BrokerResponse.from_bytes(blob)
        except InvalidArgument:
            return  # the only acceptable failure mode
        assert type(resp.ok) is bool and type(resp.error) is str

    @given(st.booleans(), reply_output, st.text(max_size=30))
    def test_request_parser_rejects_every_reply(self, ok, output, error):
        with pytest.raises(InvalidArgument):
            BrokerRequest.from_bytes(
                BrokerResponse(ok=ok, output=output, error=error).to_bytes())

    def test_only_the_protocol_module_imports_marshal(self):
        root = Path(repro.__file__).parent
        importers = set()
        for source in root.rglob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if "marshal" in names:
                    importers.add(source.relative_to(root).as_posix())
        assert importers == {"broker/protocol.py"}


class TestCertificateProperties:
    @settings(max_examples=30)
    @given(word, st.integers(min_value=1, max_value=1000),
           st.integers(min_value=0, max_value=50),
           st.integers(min_value=1, max_value=100))
    def test_valid_until_expiry_then_invalid(self, admin, ticket, now, ttl):
        clock = {"t": now}
        ca = CertificateAuthority(clock=lambda: clock["t"])
        cert = ca.issue(admin, ticket, "m", "T-1", ttl=ttl)
        ca.validate(cert, admin)          # valid at issuance
        clock["t"] = now + ttl
        ca.validate(cert, admin)          # valid at the boundary
        clock["t"] = now + ttl + 1
        import pytest
        from repro.errors import CertificateError
        with pytest.raises(CertificateError):
            ca.validate(cert, admin)

    @settings(max_examples=30)
    @given(word, word)
    def test_signature_binds_admin(self, admin, other):
        ca = CertificateAuthority(clock=lambda: 0)
        cert = ca.issue(admin, 1, "m", "T-1")
        if other != admin:
            import pytest
            from repro.errors import CertificateError
            with pytest.raises(CertificateError):
                ca.validate(cert, other)
