"""Per-layer metrics from a traced run, and the per-ticket stage budget.

A ticket's latency (due → settled) is cut into disjoint windows on one
clock (``perf_counter`` is system-wide monotonic on Linux, so forked
workers' spans line up with the parent's):

* ``gen.late`` — due → sent: the generator ran late;
* admission — sent → enqueue: self times of the service-tier spans;
* ``queue`` — enqueue → ``serve_traced`` start: shard queue or channel;
* serve — the ``serve_traced`` span tree's self times;
* post — serve end → settled: ``put_trail`` and its children.

Each span's self time is its duration inside the window minus the part
its children cover, so the stage times never overlap, and whatever no
stage explains is ``trace.unattributed_ms``: the pieces add up to the
latency by construction.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro import obs

from wbench.rounds import Run, Serving, percentile

__all__ = ["RegistryProbe", "per_layer", "ticket_stages"]

Span = list  # [id, parent, key, name, start, end]
ID, PARENT, KEY, NAME, START, END = range(6)


class RegistryProbe:
    """Process-wide counter totals, read before and after a run."""

    NAMES = ("itfs_cache_hits", "itfs_cache_misses")

    def __init__(self) -> None:
        self.before = self._read()

    @classmethod
    def _read(cls) -> Dict[str, float]:
        return {name: obs.registry().total(name) for name in cls.NAMES}

    def delta(self) -> Dict[str, float]:
        after = self._read()
        return {name: after[name] - self.before[name] for name in self.NAMES}


class _Index:
    """Spans of every process, with child lists and per-ticket roots."""

    def __init__(self, sources: List[List[Span]], since: float) -> None:
        self.children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
        self.roots: Dict[object, List[Tuple[int, Span]]] = defaultdict(list)
        self.by_name: Dict[str, List[Tuple[int, Span]]] = defaultdict(list)
        for src, spans in enumerate(sources):
            for span in spans:
                if span[START] < since:
                    continue  # set-up work (prewarm in forked workers)
                self.children[(src, span[PARENT])].append(span)
                self.by_name[span[NAME]].append((src, span))
                if span[PARENT] == 0 and span[KEY] is not None:
                    self.roots[span[KEY]].append((src, span))

    def kids(self, src: int, span: Span) -> List[Span]:
        return self.children.get((src, span[ID]), [])

    def durations_us(self, name: str) -> List[float]:
        return [(s[END] - s[START]) * 1e6 for _src, s in self.by_name[name]]

    def clipped_self(self, src: int, root: Span, lo: float, hi: float,
                     out: Dict[str, float]) -> None:
        """Add each span's self time inside [lo, hi] to ``out`` by name."""
        stack = [root]
        while stack:
            span = stack.pop()
            start, end = max(span[START], lo), min(span[END], hi)
            if end <= start:
                continue  # children nest inside, so they fall outside too
            own = end - start
            for child in self.kids(src, span):
                c_start, c_end = max(child[START], lo), min(child[END], hi)
                if c_end > c_start:
                    own -= c_end - c_start
                stack.append(child)
            out[span[NAME]] += own


def ticket_stages(run: Run, index: _Index) -> List[Dict[str, float]]:
    """Seconds per stage for every resolved steady ticket."""
    tickets: List[Dict[str, float]] = []
    for i, future in enumerate(run.futures):
        if run.outcome(future) != "resolved":
            continue
        session_id = future.result().session_id
        roots = index.roots.get(i, []) + index.roots.get(session_id, [])
        serve = next((r for r in roots if r[1][NAME] == "controlplane.serve"),
                     None)
        enqueue = next((r[1] for r in roots
                        if r[1][NAME] == "service.submit_batch"), None)
        if serve is None or enqueue is None:
            continue
        submit = _first_named(index, enqueue, "controlplane.try_submit")
        serve_span = serve[1]
        enqueued = min(submit[END] if submit is not None else enqueue[END],
                       serve_span[START])
        stages: Dict[str, float] = defaultdict(float)
        stages["gen.late"] = run.sent[i] - run.due[i]
        stages["queue"] = serve_span[START] - enqueued
        for src, root in roots:
            if root is serve_span:
                window = (serve_span[START], serve_span[END])
            elif isinstance(root[KEY], int):
                window = (run.sent[i], enqueued)
            else:
                window = (serve_span[END], run.settled[i])
            index.clipped_self(src, root, window[0], window[1], stages)
        latency = run.settled[i] - run.due[i]
        stages["unattributed"] = latency - sum(stages.values())
        stages["latency"] = latency
        tickets.append(stages)
    return tickets


def _first_named(index: _Index, root: Span, name: str) -> Optional[Span]:
    stack = [root]
    while stack:
        span = stack.pop()
        if span[NAME] == name:
            return span
        stack.extend(index.kids(0, span))
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(run: Run, serving: Serving, registry_delta: Dict[str, float],
              untraced_p50_ms: float) -> Tuple[Dict[str, float],
                                               Dict[str, object]]:
    """(per-layer metrics, stage breakdown for the report artifacts)."""
    index = _Index(run.spans, run.started)

    def p50(values: List[float]) -> float:
        return percentile(values, 50)

    metrics: Dict[str, float] = {}
    plane = serving.plane.metrics

    results = [f.result() for f in run.futures
               if run.outcome(f) in ("resolved", "errored")]
    metrics["service.admit_us_p50"] = p50(index.durations_us("service.admit"))
    metrics["service.refused"] = sum(1 for f in run.futures if f is None)
    waits = [(r.latency_s - r.duration_s) * 1e3 for r in results]
    metrics["controlplane.queue_wait_ms_p50"] = p50(waits)
    metrics["controlplane.queue_wait_ms_p99"] = percentile(waits, 99)
    metrics["controlplane.session_ms_p50"] = p50(
        [r.duration_s * 1e3 for r in results])

    stages = ticket_stages(run, index)
    metrics["controlplane.handoff_ms_p50"] = p50(
        [t["queue"] * 1e3 for t in stages])
    metrics["controlplane.classify_calls"] = len(
        index.by_name["controlplane.classify"])
    hits = plane.total("controlplane_classify_memo", outcome="hit")
    misses = plane.total("controlplane_classify_memo", outcome="miss")
    metrics["controlplane.memo_hit_ratio"] = _ratio(hits, hits + misses)
    metrics["framework.lda_infers"] = len(index.by_name["framework.lda_infer"])
    metrics["framework.lda_infer_ms_p50"] = p50(
        index.durations_us("framework.lda_infer")) / 1e3

    metrics["controlplane.pool_acquire_us_p50"] = p50(
        index.durations_us("controlplane.pool_acquire"))
    metrics["controlplane.pool_hit_ratio"] = serving.plane.pool_hit_rate()
    metrics["controlplane.scrub_us_p50"] = p50(
        index.durations_us("controlplane.pool_release"))
    released = plane.total("controlplane_pool_releases")
    metrics["controlplane.scrub_discard_ratio"] = _ratio(
        plane.total("controlplane_pool_releases", outcome="discarded"),
        released)

    cert: Dict[object, float] = defaultdict(float)
    for name in ("framework.cert_issue", "framework.cert_revoke"):
        for _src, span in index.by_name[name]:
            cert[span[KEY]] += (span[END] - span[START]) * 1e6
    metrics["framework.cert_us_p50"] = p50(list(cert.values()))
    metrics["containit.login_us_p50"] = p50(
        index.durations_us("containit.login"))

    syscall_self: List[float] = []
    itfs_total = vfs_total = 0.0
    itfs_ops = 0
    for name, spans in index.by_name.items():
        for src, span in spans:
            duration = span[END] - span[START]
            if name.startswith("kernel."):
                itfs_child = sum(c[END] - c[START]
                                 for c in index.kids(src, span)
                                 if c[NAME].startswith("itfs."))
                syscall_self.append((duration - itfs_child) * 1e6)
            elif name.startswith("itfs."):
                itfs_ops += 1
                vfs = sum(c[END] - c[START] for c in index.kids(src, span)
                          if c[NAME].startswith("vfs."))
                if vfs > 0:
                    itfs_total += duration
                    vfs_total += vfs
    metrics["kernel.syscall_self_us_p50"] = p50(syscall_self)
    metrics["itfs.ops"] = itfs_ops
    denied = defaultdict(int)
    events = 0
    for trail in run.trails.values():
        events += len(trail.events)
        for event in trail.events:
            if event.decision == "deny":
                denied[event.stream] += 1
    metrics["itfs.denied"] = denied["fs"]
    metrics["itfs.read_us_p50"] = p50(index.durations_us("itfs.read"))
    metrics["itfs.write_us_p50"] = p50(index.durations_us("itfs.write"))
    cache_hits = registry_delta["itfs_cache_hits"]
    metrics["itfs.cache_hit_ratio"] = _ratio(
        cache_hits, cache_hits + registry_delta["itfs_cache_misses"])
    metrics["itfs.over_vfs_x"] = _ratio(itfs_total, vfs_total)

    metrics["broker.calls"] = len(index.by_name["broker.call"])
    metrics["broker.call_us_p50"] = p50(index.durations_us("broker.call"))
    metrics["broker.denied"] = denied["broker"]
    metrics["netmon.connect_us_p50"] = p50(
        index.durations_us("kernel.connect"))

    put = index.durations_us("store.put_trail")
    metrics["store.put_trail_us_p50"] = p50(put)
    metrics["store.put_trail_us_p99"] = percentile(put, 99)
    metrics["store.events_per_trail"] = _ratio(events, len(run.trails))

    metrics["trace.unattributed_ms_p50"] = p50(
        [t["unattributed"] * 1e3 for t in stages])
    traced_p50 = percentile(run.steady_latencies_ms(), 50)
    metrics["trace.overhead_x"] = _ratio(traced_p50, untraced_p50_ms)

    budget = {"stage_mean_ms": _stage_means(stages)}
    tail = percentile([t["latency"] for t in stages], 99)
    budget["p99_tail_stage_mean_ms"] = _stage_means(
        [t for t in stages if t["latency"] >= tail])
    budget["tickets_traced"] = len(stages)
    budget["min_unattributed_ms"] = min(
        (t["unattributed"] * 1e3 for t in stages), default=0.0)
    return metrics, budget


def _stage_means(stages: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean ms per stage over ``stages`` (means add up; medians don't)."""
    totals: Dict[str, float] = defaultdict(float)
    for ticket in stages:
        for name, seconds in ticket.items():
            totals[name] += seconds
    count = max(1, len(stages))
    return {name: total * 1e3 / count
            for name, total in sorted(totals.items())}
