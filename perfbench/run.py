"""Run one benchmark workload at one seed and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload outage-storm --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` sets the plane up several times (``setup_s`` is their
median), then measures five rounds of an open-loop steady window and a
burst with no wrappers installed, and prints every end-to-end metric of
``BENCHMARK.json``. ``--trace 1`` measures an untraced run and then a run
with the benchmark's span wrappers installed, and prints every per-layer
metric. Either way the outputs are checked outside the timed region and
the command exits 1 when a check fails. The last stdout line is one JSON
object; a ``watchit-experiment-report/v1`` copy of the result is written
under ``perfbench/results/`` for ``repro history --import``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: repetitions of the whole set-up per --trace 0 run; setup_s is the median
SETUP_REPEATS = 3
#: a run whose generator sent its p99 ticket later than this is invalid:
#: the offered load was not the stated one
LATE_BOUND_MS = 50.0
#: stand-in for a percentile that lands on a failed (infinite) ticket,
#: since JSON has no infinity
INF_LATENCY_MS = 1e6


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else INF_LATENCY_MS


def end_to_end(run, setups: List[float]) -> Dict[str, float]:
    """Every end-to-end metric of one untraced run."""
    from wbench.rounds import percentile

    latencies = run.steady_latencies_ms()
    return {
        "setup_s": statistics.median(setups),
        "ticket_p50_ms": _finite(percentile(latencies, 50)),
        "served_share": 1.0 - run.failed / run.attempted,
        "cmd_p90_us": _per_kind(run.commands, 90),
        "cpu_ms_per_ticket": run.cpu_s * 1e3 / max(1, run.settled_count),
        "peak_rss_mb": run.peak_rss_mb,
    }


def capacity_tps(run) -> float:
    """Tickets settled per second by the best burst of the run.

    The best, not the median: interference on a shared machine only slows
    a burst down.
    """
    per_burst = len(run.burst_futures) / len(run.burst_s)
    return max(per_burst / seconds for seconds in run.burst_s)


def _per_kind(commands, pct: float) -> float:
    """Mean over command kinds of each kind's ``pct`` percentile, in us.

    Commands come in kinds of very different cost (``hostname`` against
    a broker round trip). A pooled percentile jumps between kinds as the
    mix shifts, so each kind gets its own percentile and they are averaged.
    """
    from wbench.rounds import percentile

    by_kind: Dict[str, List[float]] = {}
    for name, seconds in commands:
        by_kind.setdefault(name, []).append(seconds * 1e6)
    return statistics.fmean(percentile(v, pct) for v in by_kind.values())


def generator_metrics(run, offered_tps: float) -> Dict[str, float]:
    from wbench.rounds import percentile

    late = [(s - d) * 1e3 for s, d in zip(run.sent, run.due)]
    resolved = sum(1 for f in run.futures if run.outcome(f) == "resolved")
    return {"gen.late_ms_p99": percentile(late, 99),
            "gen.offered_tps": offered_tps,
            "gen.achieved_tps": resolved / sum(run.steady_s)}


def _budget_failures(run, budget: Dict[str, object]) -> List[str]:
    """The stage budget must cover every resolved steady ticket, and no
    ticket's stages may add up to more than its latency."""
    resolved = sum(1 for f in run.futures if run.outcome(f) == "resolved")
    failures = []
    if budget["tickets_traced"] != resolved:
        failures.append(f"stage budget covers {budget['tickets_traced']} of "
                        f"{resolved} resolved tickets")
    if budget["min_unattributed_ms"] < -0.01:
        failures.append(f"stage self times exceed a ticket's latency by "
                        f"{-budget['min_unattributed_ms']:.3f} ms")
    return failures


def _measured(workload, inputs, run_dir, tag, recorder=None, setups=None):
    """Set up (repeatedly when ``setups`` collects timings), measure, check."""
    from wbench.rounds import check_outputs, measure, set_up

    for k in range(SETUP_REPEATS - 1 if setups is not None else 0):
        warm = set_up(workload, run_dir, f"{tag}-warm{k}")
        setups.append(warm.setup_s)
        warm.close()
    if recorder is not None:
        recorder.install()
    serving = set_up(workload, run_dir, tag)
    if setups is not None:
        setups.append(serving.setup_s)
    from wbench.layers import RegistryProbe
    probe = RegistryProbe()
    # As timeit does, keep the cycle collector out of the timed phases: a
    # full collection of the set-up heap (trained model, shard
    # organizations, warm pools) stalls every thread for 30-80 ms at
    # seed-dependent moments, and the latency tail would measure those
    # instead of serving. Cyclic garbage made while serving shows in
    # peak_rss_mb.
    gc.collect()
    gc.disable()
    try:
        run = measure(serving, workload, inputs, run_dir, recorder)
    finally:
        gc.enable()
        if recorder is not None:
            recorder.uninstall()
    failures = check_outputs(run, serving.store)
    serving.store.close()
    return serving, run, failures, probe.delta()


def _execute(args: argparse.Namespace, manifest: Dict[str, object],
             run_dir: Path) -> int:
    from wbench.rounds import make_inputs, percentile
    from wbench.tracing import Recorder, install_worker_hook
    from wbench.workloads import WORKLOADS, nproc
    from repro.experiments.schema import ExperimentReport

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(sorted(WORKLOADS))})", file=sys.stderr)
        return 2
    inputs = make_inputs(workload, args.seed, args.seconds)
    recorder = Recorder()
    undo_hook = install_worker_hook(run_dir, recorder)
    failures: List[str] = []
    artifacts: Dict[str, object] = {}
    try:
        if args.trace == 0:
            setups: List[float] = []
            _serving, run, failures, _delta = _measured(
                workload, inputs, run_dir, "e2e", setups=setups)
            metrics = end_to_end(run, setups)
            runs = [run]
            artifacts["setup_s"] = setups
        else:
            from wbench.layers import per_layer
            _base_serving, base, failures, _delta = _measured(
                workload, inputs, run_dir, "untraced")
            serving, run, traced_failures, delta = _measured(
                workload, inputs, run_dir, "traced", recorder=recorder)
            base_latencies = base.steady_latencies_ms()
            metrics, budget = per_layer(
                run, serving, delta, percentile(base_latencies, 50))
            failures += traced_failures + _budget_failures(run, budget)
            metrics["e2e.capacity_tps"] = capacity_tps(base)
            metrics["e2e.ticket_mean_ms"] = _finite(
                statistics.fmean(base_latencies))
            for pct in (95, 99):
                metrics[f"e2e.ticket_p{pct}_ms"] = _finite(
                    percentile(base_latencies, pct))
            for pct in (50, 99):
                metrics[f"e2e.cmd_p{pct}_us"] = _per_kind(base.commands, pct)
            runs = [base, run]
            artifacts["stage_budget"] = budget
    finally:
        undo_hook()
    generator = generator_metrics(run, inputs.offered_tps)
    if args.trace == 1:
        metrics.update(generator)
    valid = generator["gen.late_ms_p99"] <= LATE_BOUND_MS
    if not valid:
        print(f"perfbench: run invalid: generator p99 lateness "
              f"{generator['gen.late_ms_p99']:.1f} ms exceeds "
              f"{LATE_BOUND_MS} ms", file=sys.stderr)
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)

    section = "end_to_end" if args.trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in manifest[section]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    params = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "nproc": nproc(), "workers": workload.workers,
              "shards": workload.shard_count(),
              "offered_tps": inputs.offered_tps,
              "generator": "open-loop-poisson+burst", "valid": valid}
    artifacts["generator"] = generator
    artifacts["failures"] = failures
    report = ExperimentReport(
        name=f"perfbench-{workload.name}", params=params,
        metrics={name: metrics[name] for name in units}, artifacts=artifacts)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    report.write(results / f"{workload.name}-seed{args.seed}"
                           f"-trace{args.trace}.json")

    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    manifest_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not manifest_path.is_file():
        print(f"perfbench: run from a checkout of the repository: "
              f"{ROOT / 'src' / 'repro'} or {manifest_path} is missing",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    run_dir = HERE / ".runs" / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _execute(args, manifest, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
