"""Latent Dirichlet Allocation via collapsed Gibbs sampling.

The paper clusters 17k Linux tickets with LDA (Blei et al. 2003), sweeping
7-14 topics and settling on ten (Table 2). We implement the standard
collapsed Gibbs sampler (Griffiths & Steyvers 2004) from scratch:

    p(z_i = k | rest) ∝ (n_wk + β) / (n_k + Vβ) · (n_dk + α)

plus fold-in inference for classifying *new* tickets, per-topic top words
(the Table 2 output), UMass topic coherence (used by the topic-count
ablation), and held-out perplexity.

The per-token step runs on Python float lists: with ten topics it is ~30
flops, far less than the overhead of numpy calls on 10-element arrays.
It makes the IEEE-754 operations of the vectorised form in the same
order on the same PCG64 stream, so counts and thetas are bit-identical
to it (see docs/architecture.md, "Classification").
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

FloatArray = npt.NDArray[np.float64]


class LDA:
    """Collapsed-Gibbs LDA.

    Attributes (after :meth:`fit`):
        topic_word_counts: (K, V) token assignment counts.
        doc_topic_counts: (D, K) per-document topic counts.
        topic_counts: (K,) total tokens per topic.
    """

    def __init__(self, n_topics: int = 10, alpha: float = 0.5,
                 beta: float = 0.01, n_iter: int = 120, seed: int = 0):
        if n_topics < 2:
            raise ValueError("need at least two topics")
        self.n_topics = n_topics
        self.alpha = alpha
        self.beta = beta
        self.n_iter = n_iter
        self.seed = seed
        self.vocab_size = 0
        self.topic_word_counts: FloatArray = np.zeros((n_topics, 0))
        self.doc_topic_counts: FloatArray = np.zeros((0, n_topics))
        self.topic_counts: FloatArray = np.zeros(n_topics)
        # word-major (n_wk + β) / (n_k + Vβ): fixed during fold-in
        self._phi_rows: List[List[float]] = []
        self._fitted = False

    # ------------------------------------------------------------------

    def fit(self, docs: Sequence[Sequence[int]], vocab_size: int) -> "LDA":
        """Run the Gibbs sampler over encoded documents.

        Raises ``ValueError`` on a word id outside ``[0, vocab_size)``.
        """
        rng = np.random.default_rng(self.seed)
        K, V = self.n_topics, vocab_size
        self.vocab_size = V

        # flatten for cache-friendly sweeps
        doc_ids: List[int] = []
        word_ids: List[int] = []
        for d, doc in enumerate(docs):
            for w in doc:
                if not 0 <= w < V:
                    raise ValueError(f"word id {w} in document {d} is "
                                     f"outside the vocabulary [0, {V})")
                doc_ids.append(d)
                word_ids.append(int(w))
        n_tokens = len(word_ids)

        z: List[int] = rng.integers(0, K, size=n_tokens,
                                    dtype=np.int32).tolist()
        nwk = [[0.0] * K for _ in range(V)]  # word-major: one row per word
        ndk = [[0.0] * K for _ in range(len(docs))]
        nk = [0.0] * K
        for d, w, k in zip(doc_ids, word_ids, z):
            nwk[w][k] += 1.0
            ndk[d][k] += 1.0
            nk[k] += 1.0

        alpha, beta = self.alpha, self.beta
        v_beta = V * beta
        topics = range(K)
        cumulative = [0.0] * K  # rewritten in full by every step
        for _ in range(self.n_iter):
            uniforms: List[float] = rng.random(n_tokens).tolist()
            for i, (w, d, u) in enumerate(zip(word_ids, doc_ids, uniforms)):
                k = z[i]
                nw, nd = nwk[w], ndk[d]
                nw[k] -= 1.0
                nd[k] -= 1.0
                nk[k] -= 1.0
                acc = 0.0
                for j in topics:
                    acc += (nw[j] + beta) / (nk[j] + v_beta) * (nd[j] + alpha)
                    cumulative[j] = acc
                k = bisect_left(cumulative, u * acc)
                z[i] = k
                nw[k] += 1.0
                nd[k] += 1.0
                nk[k] += 1.0

        self.topic_word_counts = np.ascontiguousarray(
            np.array(nwk, dtype=np.float64).reshape(V, K).T)
        self.doc_topic_counts = np.array(
            ndk, dtype=np.float64).reshape(len(docs), K)
        self.topic_counts = np.array(nk, dtype=np.float64)
        self._phi_rows = [[(n_w + beta) / (n_k + v_beta)
                           for n_w, n_k in zip(nw, nk)] for nw in nwk]
        self._fitted = True
        return self

    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("LDA model is not fitted")

    def topic_word_distribution(self) -> FloatArray:
        """(K, V) matrix of p(word | topic)."""
        self._require_fitted()
        num = self.topic_word_counts + self.beta
        total: FloatArray = num.sum(axis=1, keepdims=True)
        return num / total

    def doc_topic_distribution(self) -> FloatArray:
        """(D, K) matrix of p(topic | doc) for the training corpus."""
        self._require_fitted()
        num = self.doc_topic_counts + self.alpha
        total: FloatArray = num.sum(axis=1, keepdims=True)
        return num / total

    def top_words(self, topic: int, vocab: Sequence[str],
                  n: int = 20) -> List[str]:
        """The Table 2 output: most likely words of one topic."""
        self._require_fitted()
        order = np.argsort(-self.topic_word_counts[topic])
        return [vocab[int(i)] for i in order[:n]]

    def _in_vocab(self, doc: Sequence[int]) -> List[int]:
        """Word ids of ``doc`` inside ``[0, V)``; the rest are dropped."""
        return [int(w) for w in doc if 0 <= w < self.vocab_size]

    def infer(self, doc: Sequence[int], n_iter: int = 30,
              seed: int = 1) -> FloatArray:
        """Fold-in Gibbs: topic distribution of an unseen document.

        Word ids outside the vocabulary are dropped, like OOV tokens.
        """
        self._require_fitted()
        rng = np.random.default_rng(seed)
        rows = [self._phi_rows[w] for w in self._in_vocab(doc)]
        K = self.n_topics
        if not rows:
            return np.full(K, 1.0 / K)
        z: List[int] = rng.integers(0, K, size=len(rows),
                                    dtype=np.int32).tolist()
        ndk = [0.0] * K
        for k in z:
            ndk[k] += 1.0
        alpha = self.alpha
        topics = range(K)
        cumulative = [0.0] * K  # rewritten in full by every step
        uniforms = iter(rng.random(n_iter * len(rows)).tolist())
        for _ in range(n_iter):
            # zip pulls from ``rows`` first, so each sweep takes exactly
            # len(rows) uniforms off the shared iterator
            for i, (phi, u) in enumerate(zip(rows, uniforms)):
                k = z[i]
                ndk[k] -= 1.0
                acc = 0.0
                for j in topics:
                    acc += phi[j] * (ndk[j] + alpha)
                    cumulative[j] = acc
                k = bisect_left(cumulative, u * acc)
                z[i] = k
                ndk[k] += 1.0
        dist = np.array(ndk, dtype=np.float64) + alpha
        return dist / float(dist.sum())

    def classify(self, doc: Sequence[int], n_iter: int = 30) -> int:
        """Most likely topic of an unseen document."""
        return int(np.argmax(self.infer(doc, n_iter=n_iter)))

    # ------------------------------------------------------------------
    # quality metrics
    # ------------------------------------------------------------------

    def coherence(self, docs: Sequence[Sequence[int]], top_n: int = 10) -> float:
        """Mean UMass coherence over topics (closer to 0 is better)."""
        self._require_fitted()
        doc_sets = [set(doc) for doc in docs if doc]
        doc_count: Dict[int, int] = {}
        for s in doc_sets:
            for w in s:
                doc_count[w] = doc_count.get(w, 0) + 1
        scores: List[float] = []
        for k in range(self.n_topics):
            top = list(np.argsort(-self.topic_word_counts[k])[:top_n])
            score = 0.0
            pairs = 0
            for i in range(1, len(top)):
                for j in range(i):
                    wi, wj = int(top[i]), int(top[j])
                    co = sum(1 for s in doc_sets if wi in s and wj in s)
                    denom = doc_count.get(wj, 0)
                    if denom:
                        score += math.log((co + 1.0) / denom)
                        pairs += 1
            if pairs:
                scores.append(score / pairs)
        return float(np.mean(scores)) if scores else float("-inf")

    def perplexity(self, docs: Sequence[Sequence[int]]) -> float:
        """Held-out perplexity under fold-in topic mixtures."""
        self._require_fitted()
        phi = self.topic_word_distribution()
        log_likelihood = 0.0
        n_tokens = 0
        for doc in docs:
            kept = self._in_vocab(doc)
            if not kept:
                continue
            theta = self.infer(kept)
            for w in kept:
                log_likelihood += math.log(float(theta @ phi[:, w]) + 1e-12)
            n_tokens += len(kept)
        if n_tokens == 0:
            return float("inf")
        return math.exp(-log_likelihood / n_tokens)


def sweep_topic_counts(docs: Sequence[Sequence[int]], vocab_size: int,
                       candidates: Sequence[int] = tuple(range(7, 15)),
                       n_iter: int = 60, seed: int = 0
                       ) -> List[Tuple[int, float]]:
    """The paper's 7..14 sweep; returns ``(k, coherence)`` per candidate."""
    results: List[Tuple[int, float]] = []
    for k in candidates:
        model = LDA(n_topics=k, n_iter=n_iter, seed=seed).fit(docs, vocab_size)
        results.append((k, model.coherence(docs)))
    return results
