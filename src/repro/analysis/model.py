"""Lint targets and the path-template algebra the analyzers share.

A :class:`LintTarget` is one ``(spec, itfs_policy, broker_policy)``
triple, optionally with a non-default capability set. The kernel gates
themselves are stated once, on the model checker's escape actions
(:mod:`repro.analysis.modelcheck.actions`); this module holds what every
analyzer needs around them: ``{user}``-aware path matching
(:func:`template_covers`, :func:`templates_overlap`), the TCB subtrees,
and the spec's network mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.broker.policy import ClassEscalationPolicy
from repro.containit.container import build_itfs_policy
from repro.containit.spec import PerforatedContainerSpec
from repro.itfs.policy import PolicyManager
from repro.kernel.capabilities import Capability

#: ``{user}`` in share templates — a single-segment wildcard for matching.
USER_TEMPLATE = "{user}"

DEV_MEM_PATH = "/dev/mem"

#: Host subtrees whose exposure gives a container a surface onto the TCB
#: (driver/kernel/WatchIT component updates land here).
TCB_SURFACE_PREFIXES = ("/boot", "/lib/modules", "/opt/watchit")


def _segments(path: str) -> List[str]:
    return [part for part in path.split("/") if part not in ("", ".")]


def template_covers(prefix: str, path: str) -> bool:
    """True if ``path`` equals ``prefix`` or lies under it.

    Both sides may contain the ``{user}`` template, which matches any
    single path segment (the deploy-time substitution is one segment).
    """
    p, q = _segments(prefix), _segments(path)
    if len(q) < len(p):
        return False
    return all(a == b or a == USER_TEMPLATE or b == USER_TEMPLATE
               for a, b in zip(p, q))


def templates_overlap(a: str, b: str) -> bool:
    """True if the subtrees of ``a`` and ``b`` can intersect."""
    return template_covers(a, b) or template_covers(b, a)


@dataclass
class LintTarget:
    """One unit of lint work: a spec plus its surrounding policies.

    ``itfs_policy`` defaults to the policy ContainIT would build for the
    spec at deploy time; ``capabilities`` defaults to the standard
    contained-superuser set (escape capabilities dropped). Overriding
    ``capabilities`` models organizations that customize the dropped set —
    the linter then proves whether the customization re-opens an escape.
    """

    spec: PerforatedContainerSpec
    itfs_policy: Optional[PolicyManager] = None
    broker_policy: Optional[ClassEscalationPolicy] = None
    capabilities: Optional[FrozenSet[Capability]] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def resolved_itfs_policy(self) -> PolicyManager:
        if self.itfs_policy is not None:
            return self.itfs_policy
        return build_itfs_policy(self.spec)


def network_mode(spec: PerforatedContainerSpec) -> str:
    """``host`` (NET ns shared), ``firewalled`` or ``isolated``."""
    if spec.share_network_ns:
        return "host"
    if spec.network_allowed:
        return "firewalled"
    return "isolated"
