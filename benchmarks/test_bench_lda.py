"""Benchmark: cost of training the serving LDA classifier and of one fold-in.

Writes ``BENCH_lda.json``: the wall time of ``train_storm_classifier()``
(most of a control plane's set-up) and the per-document fold-in latency
(``LDA.infer``, µs p50/p99) over the non-empty documents of a 500-ticket
held-out corpus, with the core count the numbers were taken on.
"""

import os
import time

from repro.experiments.schema import ExperimentReport
from repro.workload.corpus import generate_corpus
from repro.workload.storm import train_storm_classifier

OUT = os.environ.get("BENCH_LDA_OUT", "BENCH_lda.json")
HELD_OUT = 500
HELD_OUT_SEED = 99


def _percentile(ordered, q):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_lda_benchmark(out=None):
    start = time.perf_counter()
    classifier = train_storm_classifier()
    train_s = time.perf_counter() - start
    model = classifier.model
    docs = [doc for doc in (classifier._encode(ticket.text) for ticket in
                            generate_corpus(n_tickets=HELD_OUT,
                                            seed=HELD_OUT_SEED)) if doc]
    samples_us = []
    for doc in docs:
        start = time.perf_counter()
        model.infer(doc)
        samples_us.append((time.perf_counter() - start) * 1e6)
    samples_us.sort()
    report = ExperimentReport(
        name="lda-sampler",
        params={
            "nproc": os.cpu_count() or 1,
            "history": 300, "n_topics": model.n_topics,
            "fit_sweeps": model.n_iter, "fold_in_sweeps": 30,
            "held_out": HELD_OUT, "held_out_seed": HELD_OUT_SEED,
        },
        metrics={
            "train_s": train_s,
            "vocab_size": model.vocab_size,
            "fold_ins": len(docs),
            "fold_in_tokens_mean": sum(map(len, docs)) / len(docs),
            "fold_in_us_p50": _percentile(samples_us, 0.50),
            "fold_in_us_p99": _percentile(samples_us, 0.99),
        })
    if out:
        report.write(out)
    return report


def test_bench_lda_sampler(once):
    report = once(run_lda_benchmark, out=OUT)
    metrics = report.metrics
    print()
    print(f"train_storm_classifier: {metrics['train_s']:.3f} s; fold-in "
          f"p50 {metrics['fold_in_us_p50']:.0f} us, p99 "
          f"{metrics['fold_in_us_p99']:.0f} us over {metrics['fold_ins']} "
          f"documents ({report.params['nproc']} cores)")
    assert metrics["fold_ins"] > 0
