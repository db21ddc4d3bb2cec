"""Static/dynamic cross-check: the linter's graph vs. the sanitizer's.

The repo's established motif (PR 1: linter vs. live containers; PR 4:
model-checker witnesses vs. ThreatRigs) applied to the concurrency
plane: run the sustained storm and the chaos soak under the runtime
sanitizer, then diff the dynamically observed acquisition-order edges
against the statically derived graph.

The contract, in both directions:

* **Dynamic ⊆ static** — every dynamically observed edge whose two
  endpoints are locks the linter models (creation sites inside the repro
  tree) must appear in the static graph, and every dynamic cycle must be
  statically reported as CON003. A violation means the linter's
  interprocedural reasoning has a hole a real execution walked through.
  Edges touching locks born in the stdlib (queue internals, Future
  conditions, Thread events) are counted but exempt: the linter does not
  model code it does not parse.
* **Static CON003 gets a verdict** — each statically reported cycle is
  classified ``witnessed`` (some dynamic edge traversed it) or
  ``unexercised`` (the workloads never entered it), so a static cycle
  report can never hide behind "probably a false positive" without the
  run data saying so.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.concurrency.astlint import (
    ConcurrencyAnalysis,
    lint_threads,
)
from repro.analysis.concurrency.sanitizer import (
    DynamicEdge,
    LockOrderSanitizer,
    instrument,
)

__all__ = ["CrossCheckResult", "run_crosscheck"]


@dataclass
class CrossCheckResult:
    """Everything the cross-check measured and concluded."""

    analysis: ConcurrencyAnalysis
    dynamic_sites: int
    dynamic_acquires: int
    dynamic_edges: List[DynamicEdge]
    mapped_edges: List[DynamicEdge]
    unmatched_edges: List[DynamicEdge]   # mapped but absent statically
    dynamic_cycles: List[Tuple[str, ...]]
    unreported_cycles: List[Tuple[str, ...]]  # dynamic cycles w/o CON003
    con003_verdicts: List[Dict[str, object]]
    storm_elapsed_s: float = 0.0
    storm_tickets: int = 0
    storm_errors: int = 0       # storm tickets that did not resolve
    chaos_iterations: int = 0
    chaos_ok: bool = True
    elapsed_s: float = 0.0

    @property
    def consistent(self) -> bool:
        """No dynamic evidence escaped the static model."""
        return not self.unmatched_edges and not self.unreported_cycles

    @property
    def deadlock_free(self) -> bool:
        return not self.dynamic_cycles

    def to_dict(self) -> Dict[str, object]:
        return {
            "static_locks": len(self.analysis.locks),
            "static_edges": len(self.analysis.edges),
            "static_cycles": [list(c) for c in self.analysis.cycles],
            "dynamic_sites": self.dynamic_sites,
            "dynamic_acquires": self.dynamic_acquires,
            "dynamic_edges": [e.to_dict() for e in self.dynamic_edges],
            "mapped_edges": [e.to_dict() for e in self.mapped_edges],
            "unmatched_edges": [e.to_dict() for e in self.unmatched_edges],
            "dynamic_cycles": [list(c) for c in self.dynamic_cycles],
            "unreported_cycles": [list(c) for c in self.unreported_cycles],
            "con003_verdicts": list(self.con003_verdicts),
            "storm_elapsed_s": self.storm_elapsed_s,
            "storm_tickets": self.storm_tickets,
            "storm_errors": self.storm_errors,
            "chaos_iterations": self.chaos_iterations,
            "chaos_ok": self.chaos_ok,
            "consistent": self.consistent,
            "deadlock_free": self.deadlock_free,
        }

    def format(self) -> str:
        lines = [
            "concurrency cross-check — static graph vs. sanitized run",
            f"  static: {len(self.analysis.locks)} lock sites, "
            f"{len(self.analysis.edges)} order edges, "
            f"{len(self.analysis.cycles)} cycles "
            f"({self.analysis.files} files in "
            f"{self.analysis.elapsed_s:.2f}s)",
            f"  dynamic: {self.dynamic_sites} lock sites, "
            f"{self.dynamic_acquires} acquires, "
            f"{len(self.dynamic_edges)} order edges "
            f"({len(self.mapped_edges)} between repro locks, rest touch "
            f"stdlib-born locks)",
            f"  workloads: {self.storm_tickets}-ticket storm in "
            f"{self.storm_elapsed_s:.2f}s "
            f"({self.storm_errors} unresolved), "
            f"{self.chaos_iterations}-iteration chaos soak "
            f"({'ok' if self.chaos_ok else 'CONVERSIONS'})",
            f"  dynamic cycles (deadlock witnesses): "
            f"{len(self.dynamic_cycles)}",
            f"  dynamic edges missing from static graph: "
            f"{len(self.unmatched_edges)}",
        ]
        for edge in self.unmatched_edges:
            lines.append(f"    MISSING {edge.src} -> {edge.dst} "
                         f"(held at {edge.held_at}, acquired at "
                         f"{edge.acquired_at}, thread {edge.thread})")
        for cycle in self.unreported_cycles:
            lines.append(f"    UNREPORTED CYCLE {' -> '.join(cycle)}")
        for verdict in self.con003_verdicts:
            lines.append(f"  CON003 {verdict['cycle']}: "
                         f"{verdict['verdict']}")
        if not self.con003_verdicts:
            lines.append("  CON003 reports to classify: none")
        lines.append(
            f"  verdict: "
            f"{'consistent' if self.consistent else 'INCONSISTENT'}, "
            f"{'deadlock-free' if self.deadlock_free else 'DEADLOCK'}")
        return "\n".join(lines)


def classify_con003(analysis: ConcurrencyAnalysis,
                    sanitizer: LockOrderSanitizer
                    ) -> List[Dict[str, object]]:
    """witness-or-unexercised verdict for every static CON003 cycle."""
    dynamic_pairs: Set[Tuple[str, str]] = {
        (e.src, e.dst) for e in sanitizer.edges()}
    verdicts: List[Dict[str, object]] = []
    for cycle in analysis.cycles:
        members = set(cycle)
        touched = [pair for pair in dynamic_pairs
                   if pair[0] in members and pair[1] in members]
        verdicts.append({
            "cycle": list(cycle),
            "verdict": "witnessed" if touched else "unexercised",
            "dynamic_edges": sorted(f"{s} -> {d}" for s, d in touched),
        })
    return verdicts


def diff_graphs(analysis: ConcurrencyAnalysis,
                sanitizer: LockOrderSanitizer
                ) -> Tuple[List[DynamicEdge], List[DynamicEdge],
                           List[Tuple[str, ...]], List[Tuple[str, ...]]]:
    """(mapped, unmatched, dynamic_cycles, unreported_cycles)."""
    static_pairs = analysis.edge_keys()
    static_locks = analysis.lock_by_key()
    mapped: List[DynamicEdge] = []
    unmatched: List[DynamicEdge] = []
    for edge in sanitizer.edges():
        # "mapped" = both endpoints are locks the linter has a model of;
        # a repro-tree creation site the linter missed is itself a hole,
        # so membership is checked against the static lock table, not
        # just the path prefix
        if edge.src in static_locks and edge.dst in static_locks:
            mapped.append(edge)
            if (edge.src, edge.dst) not in static_pairs:
                unmatched.append(edge)
        elif edge.mapped:
            unmatched.append(edge)
    dynamic_cycles = sanitizer.cycles()
    static_cycle_sets = [set(c) for c in analysis.cycles]
    unreported = [cycle for cycle in dynamic_cycles
                  if not any(set(cycle) <= known
                             for known in static_cycle_sets)]
    return mapped, unmatched, dynamic_cycles, unreported


def run_crosscheck(tickets: int = 160, storm_seed: int = 11,
                   duplicate_rate: float = 0.9, shards: int = 4,
                   chaos_seed: int = 1337, chaos_iterations: int = 40,
                   chaos_intensity: float = 0.05,
                   analysis: Optional[ConcurrencyAnalysis] = None,
                   sanitizer: Optional[LockOrderSanitizer] = None
                   ) -> CrossCheckResult:
    """Lint statically, run storm + chaos sanitized, diff the graphs.

    The storm runs thread-mode workers on purpose: process workers keep
    their locks in child processes where the sanitizer cannot see them,
    and thread mode is exactly the configuration where a lock-order
    cycle in the parent would deadlock the plane.
    """
    from repro.faults.chaos import run_chaos
    from repro.workload.storm import generate_storm, run_storm_sharded

    started = time.perf_counter()
    if analysis is None:
        analysis = lint_threads()
    san = sanitizer if sanitizer is not None else LockOrderSanitizer()
    storm = generate_storm(n=tickets, seed=storm_seed,
                           duplicate_rate=duplicate_rate)
    with instrument(san):
        storm_report = run_storm_sharded(storm, shards=shards,
                                         workers="thread")
    chaos_ok = True
    if chaos_iterations > 0:
        with instrument(san):
            chaos_report = run_chaos(seed=chaos_seed,
                                     iterations=chaos_iterations,
                                     intensity=chaos_intensity)
        chaos_ok = chaos_report.ok
    mapped, unmatched, dynamic_cycles, unreported = diff_graphs(
        analysis, san)
    return CrossCheckResult(
        analysis=analysis,
        dynamic_sites=len(san.site_keys()),
        dynamic_acquires=san.acquire_total,
        dynamic_edges=san.edges(),
        mapped_edges=mapped,
        unmatched_edges=unmatched,
        dynamic_cycles=dynamic_cycles,
        unreported_cycles=unreported,
        con003_verdicts=classify_con003(analysis, san),
        storm_elapsed_s=storm_report.elapsed_s,
        storm_tickets=storm_report.tickets,
        storm_errors=storm_report.errors,
        chaos_iterations=chaos_iterations,
        chaos_ok=chaos_ok,
        elapsed_s=time.perf_counter() - started)
