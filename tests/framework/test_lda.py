"""LDA: Gibbs sampling recovers planted topic structure."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framework import LDA
from repro.workload.corpus import generate_corpus
from repro.workload.storm import train_storm_classifier


def planted_corpus(n_docs=120, seed=3):
    """Three disjoint vocabularies, one per planted topic."""
    rng = np.random.default_rng(seed)
    groups = [list(range(0, 8)), list(range(8, 16)), list(range(16, 24))]
    docs, labels = [], []
    for i in range(n_docs):
        g = i % 3
        docs.append(list(rng.choice(groups[g], size=12)))
        labels.append(g)
    return docs, labels, 24


@pytest.fixture(scope="module")
def fitted():
    docs, labels, V = planted_corpus()
    model = LDA(n_topics=3, n_iter=80, seed=1).fit(docs, V)
    return model, docs, labels, V


class TestFit:
    def test_counts_conserved(self, fitted):
        model, docs, labels, V = fitted
        n_tokens = sum(len(d) for d in docs)
        assert model.topic_word_counts.sum() == pytest.approx(n_tokens)
        assert model.doc_topic_counts.sum() == pytest.approx(n_tokens)
        assert model.topic_counts.sum() == pytest.approx(n_tokens)

    def test_distributions_normalized(self, fitted):
        model, *_ = fitted
        phi = model.topic_word_distribution()
        theta = model.doc_topic_distribution()
        assert np.allclose(phi.sum(axis=1), 1.0)
        assert np.allclose(theta.sum(axis=1), 1.0)

    def test_planted_topics_recovered(self, fitted):
        # each planted group should map to a distinct learned topic
        model, docs, labels, V = fitted
        dominant = np.argmax(model.doc_topic_counts, axis=1)
        mapping = {}
        for label, topic in zip(labels, dominant):
            mapping.setdefault(label, []).append(int(topic))
        majority = {lbl: max(set(ts), key=ts.count) for lbl, ts in mapping.items()}
        assert len(set(majority.values())) == 3
        purity = sum(ts.count(majority[lbl]) for lbl, ts in mapping.items()) \
            / len(labels)
        assert purity > 0.9

    def test_top_words_come_from_planted_group(self, fitted):
        model, docs, labels, V = fitted
        vocab = [str(i) for i in range(V)]
        for k in range(3):
            top = [int(w) for w in model.top_words(k, vocab, n=5)]
            groups = [set(range(0, 8)), set(range(8, 16)), set(range(16, 24))]
            assert any(set(top) <= g for g in groups)

    def test_deterministic_given_seed(self):
        docs, _, V = planted_corpus(n_docs=30)
        a = LDA(n_topics=3, n_iter=20, seed=5).fit(docs, V)
        b = LDA(n_topics=3, n_iter=20, seed=5).fit(docs, V)
        assert np.array_equal(a.topic_word_counts, b.topic_word_counts)

    def test_too_few_topics_rejected(self):
        with pytest.raises(ValueError):
            LDA(n_topics=1)

    def test_unfitted_model_raises(self):
        with pytest.raises(RuntimeError):
            LDA(n_topics=3).top_words(0, ["a"])

    def test_negative_word_id_rejected(self):
        with pytest.raises(ValueError, match="word id -1"):
            LDA(n_topics=3, n_iter=2).fit([[0, 1], [2, -1]], 4)

    def test_word_id_past_vocabulary_rejected(self):
        with pytest.raises(ValueError, match="word id 4"):
            LDA(n_topics=3, n_iter=2).fit([[0, 4]], 4)


class TestInference:
    def test_fold_in_classifies_unseen_doc(self, fitted):
        model, docs, labels, V = fitted
        dominant = np.argmax(model.doc_topic_counts, axis=1)
        group0_topic = int(np.bincount(
            [dominant[i] for i in range(len(labels)) if labels[i] == 0]).argmax())
        unseen = [0, 1, 2, 3, 4, 5, 0, 1]  # pure group-0 words
        assert model.classify(unseen) == group0_topic

    def test_infer_returns_distribution(self, fitted):
        model, *_ = fitted
        theta = model.infer([0, 1, 2])
        assert theta.shape == (3,) and theta.sum() == pytest.approx(1.0)
        assert (theta >= 0).all()

    def test_empty_doc_uniform(self, fitted):
        model, *_ = fitted
        theta = model.infer([])
        assert np.allclose(theta, 1.0 / 3)

    def test_oov_tokens_dropped(self, fitted):
        model, *_ = fitted
        theta = model.infer([999, 1000])
        assert np.allclose(theta, 1.0 / 3)

    def test_negative_ids_dropped(self, fitted):
        model, *_ = fitted
        assert np.allclose(model.infer([-1]), 1.0 / 3)
        assert np.array_equal(model.infer([0, -1, 1, -24]),
                              model.infer([0, 1]))


class TestMetrics:
    def test_coherence_prefers_true_topic_count(self):
        # coherent (k=3) model should beat a badly mismatched one on
        # held-out perplexity for this strongly separated corpus
        docs, labels, V = planted_corpus(n_docs=90)
        good = LDA(n_topics=3, n_iter=60, seed=2).fit(docs, V)
        assert good.coherence(docs) > -3.5  # tight planted topics

    def test_perplexity_finite_and_positive(self):
        docs, labels, V = planted_corpus(n_docs=60)
        model = LDA(n_topics=3, n_iter=40, seed=2).fit(docs, V)
        ppl = model.perplexity(docs[:10])
        assert 1.0 < ppl < V * 2

    def test_perplexity_better_than_uniform(self):
        docs, labels, V = planted_corpus(n_docs=60)
        model = LDA(n_topics=3, n_iter=40, seed=2).fit(docs, V)
        assert model.perplexity(docs[:10]) < V  # uniform would be ~V=24

    def test_perplexity_drops_out_of_range_ids(self):
        docs, labels, V = planted_corpus(n_docs=60)
        model = LDA(n_topics=3, n_iter=40, seed=2).fit(docs, V)
        held_out = [list(d) for d in docs[:5]]
        noisy = [[-1] + d + [V, -V] for d in held_out] + [[-3]]
        assert model.perplexity(noisy) == model.perplexity(held_out)


# ----------------------------------------------------------------------
# bit-identity of the list-based sampler
# ----------------------------------------------------------------------

#: sha256 over the storm classifier's count matrices and 500 fold-ins,
#: recorded from the vectorised numpy sampler this one replaced
GOLDEN_DIGEST = \
    "cdb12c26471dbad8011e20ccb18c790024de261ef10ae45a33a047a552b03edd"


def oracle_fit(docs, V, K, alpha, beta, n_iter, seed):
    """The vectorised numpy sweep: the reference the list sampler matches."""
    rng = np.random.default_rng(seed)
    doc_ids = np.asarray([d for d, doc in enumerate(docs) for _ in doc],
                         dtype=np.int32)
    word_ids = np.asarray([w for doc in docs for w in doc], dtype=np.int32)
    n_tokens = len(word_ids)
    z = rng.integers(0, K, size=n_tokens, dtype=np.int32)
    nwk = np.zeros((K, V), dtype=np.float64)
    ndk = np.zeros((len(docs), K), dtype=np.float64)
    nk = np.zeros(K, dtype=np.float64)
    np.add.at(nwk, (z, word_ids), 1.0)
    np.add.at(ndk, (doc_ids, z), 1.0)
    np.add.at(nk, z, 1.0)
    v_beta = V * beta
    for _ in range(n_iter):
        uniforms = rng.random(n_tokens)
        for i in range(n_tokens):
            w = word_ids[i]
            d = doc_ids[i]
            k_old = z[i]
            nwk[k_old, w] -= 1.0
            ndk[d, k_old] -= 1.0
            nk[k_old] -= 1.0
            probs = (nwk[:, w] + beta) / (nk + v_beta) * (ndk[d] + alpha)
            cumulative = np.cumsum(probs)
            k_new = int(np.searchsorted(cumulative,
                                        uniforms[i] * cumulative[-1]))
            z[i] = k_new
            nwk[k_new, w] += 1.0
            ndk[d, k_new] += 1.0
            nk[k_new] += 1.0
    return nwk, ndk, nk


def oracle_infer(nwk, nk, alpha, beta, doc, n_iter, seed):
    """The vectorised numpy fold-in over in-vocabulary ``doc``."""
    K, V = nwk.shape
    rng = np.random.default_rng(seed)
    doc_arr = np.asarray(doc, dtype=np.int32)
    if doc_arr.size == 0:
        return np.full(K, 1.0 / K)
    z = rng.integers(0, K, size=doc_arr.size, dtype=np.int32)
    ndk = np.bincount(z, minlength=K).astype(np.float64)
    phi_num = nwk + beta
    phi_den = nk + V * beta
    for _ in range(n_iter):
        for i in range(doc_arr.size):
            w = doc_arr[i]
            ndk[z[i]] -= 1.0
            probs = phi_num[:, w] / phi_den * (ndk + alpha)
            cumulative = np.cumsum(probs)
            k_new = int(np.searchsorted(cumulative,
                                        rng.random() * cumulative[-1]))
            z[i] = k_new
            ndk[k_new] += 1.0
    dist = ndk + alpha
    return dist / dist.sum()


@st.composite
def corpora(draw):
    V = draw(st.integers(min_value=1, max_value=16))
    word = st.integers(min_value=0, max_value=V - 1)
    # empty and single-token documents are drawn as often as long ones
    doc = st.one_of(st.just([]), st.lists(word, min_size=1, max_size=1),
                    st.lists(word, max_size=12))
    return draw(st.lists(doc, max_size=10)), V, draw(doc)


class TestBitIdentity:
    @settings(max_examples=100, deadline=None)
    @given(corpora(),
           st.integers(min_value=2, max_value=12),
           st.sampled_from([0.05, 0.5, 1.0]),
           st.sampled_from([0.01, 0.1, 0.3]),
           st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_numpy_oracle(self, corpus, k, alpha, beta, fit_iter,
                                  infer_iter, seed, infer_seed):
        docs, V, unseen = corpus
        model = LDA(n_topics=k, alpha=alpha, beta=beta, n_iter=fit_iter,
                    seed=seed).fit(docs, V)
        nwk, ndk, nk = oracle_fit(docs, V, k, alpha, beta, fit_iter, seed)
        assert np.array_equal(model.topic_word_counts, nwk)
        assert np.array_equal(model.doc_topic_counts, ndk)
        assert np.array_equal(model.topic_counts, nk)
        for doc in [unseen] + docs[:3]:
            theta = model.infer(doc, n_iter=infer_iter, seed=infer_seed)
            expected = oracle_infer(nwk, nk, alpha, beta, doc, infer_iter,
                                    infer_seed)
            assert np.array_equal(theta, expected)

    def test_storm_classifier_golden_digest(self):
        # realistic scale: the serving classifier (143 words, 300 docs,
        # 40 sweeps) and 500 fold-ins must reproduce the recorded bytes
        clf = train_storm_classifier()
        digest = hashlib.sha256()
        digest.update(clf.model.topic_word_counts.tobytes())
        digest.update(clf.model.doc_topic_counts.tobytes())
        for ticket in generate_corpus(n_tickets=500, seed=99):
            doc = clf._encode(ticket.text)
            if doc:
                digest.update(clf.model.infer(doc).tobytes())
            digest.update(clf.classify(ticket.text).encode())
        assert digest.hexdigest() == GOLDEN_DIGEST
