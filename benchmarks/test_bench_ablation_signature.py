"""Ablation: signature-check head size vs. cost and detection.

Signature monitoring must read file heads; this sweep shows the cost knob
(bytes read per check) against detection of disguised documents — the
trade-off behind Figure 9's extension-vs-signature gap.
"""

import time

from repro.itfs import ITFS, AppendOnlyLog, PolicyManager, SignatureRule
from repro.errors import AccessBlocked
from repro.workload.fsbench import build_file_tree


def run_sweep(head_sizes=(8, 16, 64, 512, 4096), n_files=300):
    fs = build_file_tree(n_files=n_files, avg_size=2048, seed=31)
    # plant disguised documents (pdf magic, innocuous name)
    for i in range(10):
        fs.write(f"/data/d{i}/hidden{i}.log", b"%PDF-1.4 secret payload")
    rows = []
    for head in head_sizes:
        policy = PolicyManager(log_all=False)
        policy.add_rule(SignatureRule("docs", classes=("document", "image"),
                                      head_bytes=head))
        itfs = ITFS(fs, policy, audit=AppendOnlyLog())
        start = time.perf_counter()
        blocked = 0
        for dirpath, _dirs, files in itfs.walk("/data"):
            for name in files:
                try:
                    itfs.read(f"{dirpath}/{name}")
                except AccessBlocked:
                    blocked += 1
        elapsed = time.perf_counter() - start
        rows.append((head, elapsed, blocked))
    return rows


def test_bench_ablation_signature_head_bytes(once):
    rows = once(run_sweep)
    print()
    print("Ablation — signature head-bytes vs cost and detection")
    print(f"{'head bytes':>10} {'time (s)':>10} {'blocked':>8}")
    for head, elapsed, blocked in rows:
        print(f"{head:>10} {elapsed:>10.4f} {blocked:>8}")
    # detection identical across head sizes (magic lives in the first 16B)
    assert len({blocked for _, _, blocked in rows}) == 1
    assert all(blocked == 10 for _, _, blocked in rows)
