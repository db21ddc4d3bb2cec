"""Batched + memoized ticket classification.

A ticket storm is duplicate-heavy: many users report the same outage in
nearly the same words, and preprocessing (obfuscation, stemming, stopword
removal — :func:`repro.framework.preprocess.tokenize`) collapses
superficially different reports onto identical token streams. Running the
LDA fold-in (or even the keyword scorer) once per *unique preprocessed
text* instead of once per ticket removes the classifier from the serving
hot path almost entirely.

:class:`BatchingClassifier` wraps any classifier exposing
``classify(text) -> str``; it is safe to share across shard worker
threads — exactly one inner inference runs per unique text, even when
several workers race on the same key: the first caller infers, and later
callers for the same key wait on its in-flight future.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.controlplane._types import ClassifierLike, MetricScope
from repro.framework.preprocess import tokenize

__all__ = ["BatchingClassifier"]

#: memo key: the canonical (preprocessed) token stream of a ticket text.
MemoKey = Tuple[str, ...]


class BatchingClassifier:
    """Memoizing, batch-capable front for a ticket classifier.

    The wrapped classifier runs one inference per unique *preprocessed*
    ticket text; repeats are served from the memo table. ``classify_batch``
    is the bulk API the control-plane uses to pre-classify a whole storm
    in one submission.
    """

    def __init__(self, inner: ClassifierLike, max_entries: int = 65536,
                 registry: Optional[MetricScope] = None) -> None:
        self.inner = inner
        self.max_entries = max_entries
        self._memo: Dict[MemoKey, str] = {}
        #: exact-text front table: verbatim repeats (the common storm case)
        #: skip even the preprocessing pass
        self._by_text: Dict[str, str] = {}
        #: single-flight table: keys whose inference is running right now
        self._inflight: Dict[MemoKey, "Future[str]"] = {}
        self._lock = threading.Lock()
        # ``registry`` may be a per-plane scoped view (see ContainerPool)
        registry = registry if registry is not None else obs.registry()
        self._hits = registry.counter("controlplane_classify_memo",
                                      outcome="hit")
        self._misses = registry.counter("controlplane_classify_memo",
                                        outcome="miss")

    @staticmethod
    def _key(text: str) -> MemoKey:
        return tuple(tokenize(text))

    def _resolve(self, key: MemoKey, text: str) -> str:
        """The label for ``key``: from the memo, from an inference already
        in flight, or from one this call runs.

        Inference runs outside ``_lock``, so distinct keys classify in
        parallel. If it raises, every caller waiting on the key gets the
        same exception and the key stays unmemoized, so a later call
        retries.
        """
        flight: "Future[str]" = Future()
        with self._lock:
            hit = self._memo.get(key)
            if hit is not None:
                self._by_text[text] = hit
            else:
                running = self._inflight.setdefault(key, flight)
        if hit is not None:
            self._hits.inc()
            return hit
        if running is not flight:
            predicted = running.result()
            self._hits.inc()  # no inference ran on this caller's behalf
            return predicted
        try:
            predicted = self.inner.classify(text)
        except BaseException as exc:
            with self._lock:
                del self._inflight[key]
            flight.set_exception(exc)
            raise
        self._misses.inc()
        with self._lock:
            if len(self._memo) >= self.max_entries:
                self._memo.clear()  # storm memo, not an archive: flush whole
                self._by_text.clear()
            self._memo[key] = predicted
            self._by_text[text] = predicted
            del self._inflight[key]
        flight.set_result(predicted)
        return predicted

    # ------------------------------------------------------------------

    def classify(self, text: str) -> str:
        """Single-ticket API — memo lookup, inner inference on miss."""
        with self._lock:
            hit = self._by_text.get(text)
        if hit is not None:
            self._hits.inc()
            return hit
        return self._resolve(self._key(text), text)

    def classify_batch(self, texts: Sequence[str]) -> List[str]:
        """Classify many texts with one inference per unique token stream."""
        keys = [self._key(text) for text in texts]
        labels: Dict[MemoKey, str] = {}
        for key, text in zip(keys, texts):
            if key not in labels:
                labels[key] = self._resolve(key, text)
        self._hits.inc(len(keys) - len(labels))  # repeats within the batch
        return [labels[key] for key in keys]

    # ------------------------------------------------------------------

    @property
    def memo_size(self) -> int:
        with self._lock:
            return len(self._memo)

    def clear(self) -> None:
        with self._lock:
            self._memo.clear()
            self._by_text.clear()
