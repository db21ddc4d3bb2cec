"""Experiment: Table 3 — permission and isolation per container type.

Renders the image repository's per-class confinement matrix in the paper's
row/column layout and validates it by *deployment*: each class is actually
deployed on a case-study host and the resulting container is probed for
the exact grants the row claims (and for the absence of everything else).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import (
    AccessBlocked,
    FileNotFound,
    FirewallBlocked,
    NetworkUnreachable,
    NoSuchProcess,
)
from repro.experiments.rig import DESTINATION_ENDPOINTS, build_case_study_rig
from repro.framework.images import TABLE3_SPECS

_COLUMNS = ("procmgmt", "home", "etc", "root", "license-server",
            "batch-server", "shared-storage", "target-machine",
            "software-repository", "whitelisted-websites", "net-ns")


@dataclass
class Table3Result:
    rows: List[Dict[str, object]]
    probe_failures: List[str]

    def format(self) -> str:
        header = f"{'Class':<6}" + "".join(f"{c[:10]:>12}" for c in _COLUMNS)
        lines = ["Table 3 — permission and isolation per container type",
                 header]
        for row in self.rows:
            cells = "".join(
                f"{'X' if row[c] else '.':>12}" for c in _COLUMNS)
            lines.append(f"{row['class']:<6}{cells}")
        return "\n".join(lines)


def _spec_row(spec) -> Dict[str, object]:
    shares = set(spec.fs_shares)

    def net(dest: str) -> bool:
        # sharing the host NET namespace implicitly grants every
        # destination — the paper's "-" cells in the T-4 row
        return dest in spec.network_allowed or spec.share_network_ns

    return {
        "class": spec.name,
        "procmgmt": spec.process_management,
        "home": "/home/{user}" in shares or spec.shares_full_root,
        "etc": "/etc" in shares or spec.shares_full_root,
        "root": spec.shares_full_root,
        "license-server": net("license-server"),
        "batch-server": net("batch-server"),
        "shared-storage": net("shared-storage"),
        "target-machine": net("target-machine"),
        "software-repository": net("software-repository"),
        "whitelisted-websites": net("whitelisted-websites"),
        "net-ns": spec.share_network_ns,
    }


def _probe_deployment(rig, spec, row) -> List[str]:
    """Deploy the class and verify each cell of its row empirically."""
    failures: List[str] = []
    with rig.session(spec, "alice", "probe-admin") as session:
        shell = session.shell

        def check(label: str, expected: bool, fn) -> None:
            try:
                fn()
                actual = True
            except (FileNotFound, AccessBlocked, FirewallBlocked,
                    NetworkUnreachable, NoSuchProcess):
                actual = False
            if actual != expected:
                failures.append(f"{spec.name}:{label} expected "
                                f"{'granted' if expected else 'denied'}")

        check("home", row["home"],
              lambda: shell.read_file("/home/alice/notes.txt"))
        check("etc", row["etc"], lambda: shell.read_file("/etc/fstab"))
        check("root", row["root"],
              lambda: shell.read_file("/usr/lib/libc.so"))
        check("procmgmt", row["procmgmt"],
              lambda: shell.restart_service("sshd"))
        for dest in ("license-server", "batch-server", "shared-storage",
                     "software-repository", "whitelisted-websites",
                     "target-machine"):
            ip, port = DESTINATION_ENDPOINTS[dest]
            check(dest, bool(row[dest]), lambda ip=ip, port=port:
                  shell.connect(ip, port))
    return failures


def run_table3(probe: bool = True) -> Table3Result:
    """Build the Table 3 matrix (optionally verified by real deployments)."""
    rows = [_spec_row(spec) for spec in TABLE3_SPECS.values()]
    rows.sort(key=lambda r: (len(r["class"]), r["class"]))
    failures: List[str] = []
    if probe:
        rig = build_case_study_rig()
        for row in rows:
            failures.extend(_probe_deployment(rig, TABLE3_SPECS[row["class"]],
                                              row))
    return Table3Result(rows=rows, probe_failures=failures)
