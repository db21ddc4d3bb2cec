"""Memoized + batched classification: one inference per unique text."""

import sys
import threading
import time

import pytest

from repro.controlplane.batching import BatchingClassifier


class CountingClassifier:
    """Deterministic inner classifier that records every real inference."""

    def __init__(self):
        self.calls = []

    def classify(self, text: str) -> str:
        self.calls.append(text)
        return "T-1" if "license" in text else "T-11"


@pytest.fixture()
def inner():
    return CountingClassifier()


@pytest.fixture()
def classifier(inner):
    return BatchingClassifier(inner)


class TestMemoization:
    def test_repeat_text_runs_one_inference(self, classifier, inner):
        assert classifier.classify("matlab license expired") == "T-1"
        assert classifier.classify("matlab license expired") == "T-1"
        assert classifier.classify("matlab license expired") == "T-1"
        assert len(inner.calls) == 1

    def test_distinct_texts_each_infer(self, classifier, inner):
        classifier.classify("matlab license expired")
        classifier.classify("cannot reach shared storage")
        assert len(inner.calls) == 2
        assert classifier.memo_size == 2

    def test_preprocessing_collapses_superficial_variants(self, classifier,
                                                          inner):
        # case and stopwords vanish in tokenize(): same memo key
        assert classifier.classify("the MATLAB license is expired") == \
            classifier.classify("matlab License expired")
        assert len(inner.calls) == 1

    def test_clear_forgets_everything(self, classifier, inner):
        classifier.classify("matlab license expired")
        classifier.clear()
        assert classifier.memo_size == 0
        classifier.classify("matlab license expired")
        assert len(inner.calls) == 2


class TestBatchAPI:
    def test_batch_runs_one_inference_per_unique(self, classifier, inner):
        texts = ["matlab license expired"] * 5 + \
                ["cannot reach shared storage"] * 4
        predicted = classifier.classify_batch(texts)
        assert predicted == ["T-1"] * 5 + ["T-11"] * 4
        assert len(inner.calls) == 2

    def test_batch_seeds_the_single_ticket_memo(self, classifier, inner):
        classifier.classify_batch(["matlab license expired"])
        assert classifier.classify("matlab license expired") == "T-1"
        assert len(inner.calls) == 1

    def test_batch_reuses_prior_memo(self, classifier, inner):
        classifier.classify("matlab license expired")
        classifier.classify_batch(["matlab license expired",
                                   "cannot reach shared storage"])
        assert len(inner.calls) == 2

    def test_empty_batch(self, classifier, inner):
        assert classifier.classify_batch([]) == []
        assert not inner.calls

    def test_batch_preserves_input_order(self, classifier):
        texts = ["cannot reach shared storage", "matlab license expired",
                 "cannot reach shared storage"]
        assert classifier.classify_batch(texts) == ["T-11", "T-1", "T-11"]


class TestBoundedMemo:
    def test_overflow_flushes_whole_table(self, inner):
        classifier = BatchingClassifier(inner, max_entries=2)
        classifier.classify("matlab license expired")
        classifier.classify("cannot reach shared storage")
        assert classifier.memo_size == 2
        classifier.classify("vpn connection keeps dropping")
        # storm memo, not an archive: hitting the cap clears everything
        assert classifier.memo_size == 1
        classifier.classify("matlab license expired")
        assert inner.calls.count("matlab license expired") == 2


class BlockingClassifier:
    """Inner classifier whose inference blocks until the test releases it.

    Each inference that ``fail`` marks raises its own, fresh exception,
    so a caller can tell whose failure it received.
    """

    def __init__(self, fail: bool = False):
        self.calls = 0
        self.fail = fail
        self.entered = threading.Event()
        self.release = threading.Event()

    def classify(self, text: str) -> str:
        self.calls += 1
        self.entered.set()
        assert self.release.wait(10), "test never released the inference"
        if self.fail:
            raise RuntimeError(f"inference {self.calls} failed")
        return "T-1"


def _in_thread(call):
    """Run ``call`` on a thread; the box receives its value or exception."""
    box = {}

    def run():
        try:
            box["value"] = call()
        except RuntimeError as exc:
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


TEXT = "matlab license expired"
SECOND_CALLERS = {
    "classify": lambda c: c.classify(TEXT),
    "classify_batch": lambda c: c.classify_batch([TEXT])[0],
}


class TestSingleFlight:
    """A duplicate that arrives during the first copy's inference waits
    for that inference instead of running its own."""

    def _race(self, inner, second):
        classifier = BatchingClassifier(inner)
        first, first_box = _in_thread(lambda: classifier.classify(TEXT))
        assert inner.entered.wait(10)
        late, late_box = _in_thread(lambda: second(classifier))
        late.join(0.2)
        assert late.is_alive()  # no result exists yet to hand it
        inner.release.set()
        first.join(10)
        late.join(10)
        assert not first.is_alive() and not late.is_alive()
        return classifier, first_box, late_box

    @pytest.mark.parametrize("second", SECOND_CALLERS.values(),
                             ids=SECOND_CALLERS.keys())
    def test_racing_duplicate_runs_no_second_inference(self, second):
        inner = BlockingClassifier()
        classifier, first, late = self._race(inner, second)
        assert first == {"value": "T-1"}
        assert late == {"value": "T-1"}
        assert inner.calls == 1
        assert classifier.memo_size == 1

    def test_failed_inference_reaches_waiters_and_is_retried(self):
        inner = BlockingClassifier(fail=True)
        classifier, first, late = self._race(inner,
                                             SECOND_CALLERS["classify"])
        assert str(first["error"]) == "inference 1 failed"
        assert late["error"] is first["error"]
        assert inner.calls == 1
        assert classifier.memo_size == 0  # a failure is never memoized
        inner.fail = False
        assert classifier.classify(TEXT) == "T-1"
        assert inner.calls == 2

    def test_many_threads_infer_each_key_once(self):
        """More racing workers than cores, with frequent thread switches:
        every key still runs exactly one inference."""

        class SlowCounting(CountingClassifier):
            def classify(self, text):
                time.sleep(0.002)  # hold the key in flight while others arrive
                return super().classify(text)

        inner = SlowCounting()
        classifier = BatchingClassifier(inner)
        texts = ["matlab license expired", "cannot reach shared storage",
                 "vpn connection keeps dropping", "printer does not work",
                 "disk quota exceeded", "outlook crashes on start"]
        errors = []

        def worker(offset):
            try:
                for i in range(len(texts) * 3):
                    text = texts[(i + offset) % len(texts)]
                    if i % 2:
                        classifier.classify_batch([text, texts[0]])
                    else:
                        classifier.classify(text)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(inner.calls) == sorted(texts)
