"""Experiment: Figure 8 — perforated-container tailoring for IT scripts.

Groups the Chef/Puppet and cluster-management script suites into container
classes (Figure 8a/8b), reports the distribution, and validates the
assignment by executing every script inside its assigned container on the
case-study rig.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.rig import build_case_study_rig
from repro.framework.images import SCRIPT_SPECS_CHEF_PUPPET, SCRIPT_SPECS_CLUSTER
from repro.workload.scripts import (
    assign_script_container,
    chef_puppet_scripts,
    cluster_scripts,
    script_container_distribution,
)

#: the paper's Figure 8 distributions
PAPER_FIGURE8A = {"S-1": 0.60, "S-2": 0.20, "S-3": 0.10, "S-4": 0.10}
PAPER_FIGURE8B = {"S-5": 0.80, "S-6": 0.20}


@dataclass
class Figure8Result:
    chef_puppet: Dict[str, Tuple[int, float]]
    cluster: Dict[str, Tuple[int, float]]
    executed: int
    failures: List[str]

    def format(self) -> str:
        lines = ["Figure 8 — container tailoring for IT scripts",
                 "  (a) Chef/Puppet scripts:"]
        for cls, (n, share) in self.chef_puppet.items():
            paper = PAPER_FIGURE8A.get(cls, 0.0)
            lines.append(f"    {cls}: {n:>2} scripts ({share:.0%}; paper {paper:.0%})")
        lines.append("  (b) Cluster-management scripts:")
        for cls, (n, share) in self.cluster.items():
            paper = PAPER_FIGURE8B.get(cls, 0.0)
            lines.append(f"    {cls}: {n:>2} scripts ({share:.0%}; paper {paper:.0%})")
        lines.append(f"  executed under confinement: {self.executed} scripts, "
                     f"{len(self.failures)} failures")
        return "\n".join(lines)


def run_figure8(execute: bool = True) -> Figure8Result:
    """Distribution + (optionally) confined execution of all 33 scripts."""
    chef = chef_puppet_scripts()
    cluster = cluster_scripts()
    failures: List[str] = []
    executed = 0
    if execute:
        rig = build_case_study_rig()
        specs = {**SCRIPT_SPECS_CHEF_PUPPET, **SCRIPT_SPECS_CLUSTER}
        for script in chef + cluster:
            spec = specs[assign_script_container(script)]
            with rig.session(spec, "alice",
                             f"script:{script.name}") as session:
                try:
                    script.run(session.shell)
                    executed += 1
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    failures.append(f"{script.name}: {exc}")
    return Figure8Result(
        chef_puppet=script_container_distribution(chef),
        cluster=script_container_distribution(cluster),
        executed=executed, failures=failures)
