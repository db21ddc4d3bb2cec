"""Checker framework + configuration checkers (WIT010-WIT033).

A :class:`Checker` inspects one :class:`~repro.analysis.model.LintTarget`
and yields :class:`~repro.analysis.findings.Finding`s keyed by the stable
rule IDs it declares. :data:`CONFIG_CHECKERS` lists this module's
checkers; the linter's :func:`~repro.analysis.linter.default_checkers`
joins them with the escape-path rules WIT001-WIT005 of
:mod:`repro.analysis.escape`.

Rule ID blocks:

* ``WIT00x`` — escape-path reachability (Table 1 attacks, the gate walk
  of the model checker's escape actions)
* ``WIT01x`` — over-privilege (shadowed shares, moot allowlists, broker
  grants wider than the spec needs)
* ``WIT02x`` — dead / shadowed ITFS rules
* ``WIT03x`` — monitoring gaps
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Type

from repro.analysis.findings import Finding, RuleInfo, Severity
from repro.analysis.model import (
    TCB_SURFACE_PREFIXES,
    LintTarget,
    network_mode,
    template_covers,
    templates_overlap,
)
from repro.itfs.policy import ExtensionRule, PathRule, Rule, SignatureRule

class Checker:
    """Base checker: declares its rules, yields findings for a target."""

    rules: Tuple[RuleInfo, ...] = ()

    def check(self, target: LintTarget) -> Iterator[Finding]:
        raise NotImplementedError

    def _finding(self, target: LintTarget, location: str, message: str,
                 evidence: Optional[Dict[str, object]] = None,
                 severity: Optional[Severity] = None,
                 rule_index: int = 0) -> Finding:
        info = self.rules[rule_index]
        return Finding(rule_id=info.rule_id,
                       severity=severity if severity is not None
                       else info.severity,
                       subject=target.name, location=location,
                       message=message, evidence=evidence or {})


# ----------------------------------------------------------------------
# WIT01x — over-privilege
# ----------------------------------------------------------------------

class ShadowedShareChecker(Checker):
    rules = (RuleInfo(
        "WIT010", "fs share shadowed by a broader share", Severity.WARNING,
        "A filesystem share is already covered by a broader share in the "
        "same spec (e.g. '/' plus '/home/{user}'); the narrower entry "
        "grants nothing and obscures the spec's real exposure."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        shares = target.spec.fs_shares
        for i, share in enumerate(shares):
            for j, other in enumerate(shares):
                if i == j:
                    continue
                # covered by a strictly broader share, or an exact
                # duplicate appearing earlier in the tuple
                duplicate = other == share and j < i
                broader = other != share and template_covers(other, share)
                if broader or duplicate:
                    yield self._finding(
                        target, f"spec.fs_shares[{i}]",
                        f"share {share!r} is shadowed by "
                        f"{'duplicate' if duplicate else 'broader'} share "
                        f"{other!r}",
                        evidence={"share": share, "covered_by": other})
                    break


class MootNetworkAllowlistChecker(Checker):
    rules = (RuleInfo(
        "WIT011", "network allowlist unreachable under shared NET namespace",
        Severity.WARNING,
        "share_network_ns gives the container the host's own network "
        "namespace; the per-destination firewall is never installed, so "
        "network_allowed entries are dead configuration that misstate the "
        "class's real (unrestricted) network privilege."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        spec = target.spec
        if spec.share_network_ns and spec.network_allowed:
            yield self._finding(
                target, "spec.network_allowed",
                f"destinations {list(spec.network_allowed)} are moot: the "
                f"NET namespace is shared, no firewall view is built",
                evidence={"network_allowed": list(spec.network_allowed),
                          "share_network_ns": True})


class BrokerTcbGrantChecker(Checker):
    rules = (RuleInfo(
        "WIT012", "broker grants TCB updates to a class with no TCB surface",
        Severity.WARNING,
        "The class escalation policy sets allow_tcb_update, but the spec "
        "exposes no TCB subtree (/boot, /lib/modules, /opt/watchit); the "
        "grant is wider than the class can ever legitimately need."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        policy = target.broker_policy
        if policy is None or not policy.allow_tcb_update:
            return
        if not any(templates_overlap(share, prefix)
                   for share in target.spec.fs_shares
                   for prefix in TCB_SURFACE_PREFIXES):
            yield self._finding(
                target, "broker_policy.allow_tcb_update",
                "allow_tcb_update granted but the spec exposes no TCB path",
                evidence={"fs_shares": list(target.spec.fs_shares)})


class BrokerNetworkWildcardChecker(Checker):
    rules = (RuleInfo(
        "WIT013", "broker network wildcard on a network-isolated class",
        Severity.WARNING,
        "The class escalation policy makes every network destination "
        "grantable ('*') although the spec itself is fully "
        "network-isolated; escalations could silently widen the class "
        "far beyond its Table 3 row."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        policy = target.broker_policy
        if policy is None or "*" not in policy.network_destinations:
            return
        if network_mode(target.spec) == "isolated":
            yield self._finding(
                target, "broker_policy.network_destinations",
                "wildcard '*' network grants on a class whose spec allows "
                "no network destination at all",
                evidence={"network_mode": "isolated"})


# ----------------------------------------------------------------------
# WIT02x — dead / shadowed ITFS rules
# ----------------------------------------------------------------------

def _rule_domain_covers(allow: Rule, deny: Rule) -> bool:
    """Conservatively prove ``allow``'s match domain ⊇ ``deny``'s.

    Only provable combinations return True (a PathRule allowing '/',
    a PathRule whose prefixes cover every deny prefix, or an
    ExtensionRule whose extensions/classes are supersets); anything
    uncertain returns False so the checker never cries wolf.
    """
    if not deny.ops <= allow.ops:
        return False
    if isinstance(allow, PathRule):
        if any(p in ("/", "") or p == "/." for p in allow.prefixes) or \
                any(template_covers(p, "/") for p in allow.prefixes):
            return True
        if isinstance(deny, PathRule):
            return all(any(template_covers(ap, dp) for ap in allow.prefixes)
                       for dp in deny.prefixes)
        return False
    if isinstance(allow, ExtensionRule) and isinstance(deny, ExtensionRule):
        return (deny.extensions <= allow.extensions or not deny.extensions) \
            and (deny.classes <= allow.classes or not deny.classes) \
            and bool(deny.extensions or deny.classes)
    if isinstance(allow, ExtensionRule) and isinstance(deny, SignatureRule):
        # extension matching and signature matching see different facets;
        # a superset claim is not provable
        return False
    return False


class ShadowedDenyRuleChecker(Checker):
    rules = (RuleInfo(
        "WIT020", "allow rule shadows a later deny rule", Severity.ERROR,
        "An earlier allow rule's match domain provably covers a later deny "
        "rule ('permission before exclusion' is first-match-wins); the "
        "deny — often a hard constraint — is dead and silently disabled."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        rules = target.resolved_itfs_policy().rules
        for i, allow in enumerate(rules):
            if allow.decision != "allow":
                continue
            for j in range(i + 1, len(rules)):
                deny = rules[j]
                if deny.decision != "deny":
                    continue
                if _rule_domain_covers(allow, deny):
                    yield self._finding(
                        target, f"itfs_policy.rules[{j}]",
                        f"deny rule {deny.name!r} is dead: allow rule "
                        f"{allow.name!r} at position {i} always matches "
                        f"first",
                        evidence={"allow": allow.name, "deny": deny.name,
                                  "allow_position": i, "deny_position": j})


class DeadPathRuleChecker(Checker):
    rules = (RuleInfo(
        "WIT021", "ITFS path rule lies outside every fs share",
        Severity.WARNING,
        "A path rule's every prefix falls outside the spec's filesystem "
        "shares while the container's private root is unmonitored "
        "(monitor_filesystem=False); the rule can never match and gives "
        "false confidence about what is being blocked."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        spec = target.spec
        # with a monitored private root (or a full-root share) the policy
        # also guards paths *inside* the container, so no prefix is dead
        if spec.monitor_filesystem or spec.shares_full_root:
            return
        for idx, rule in enumerate(target.resolved_itfs_policy().rules):
            if not isinstance(rule, PathRule):
                continue
            reachable = any(templates_overlap(prefix, share)
                            for prefix in rule.prefixes
                            for share in spec.fs_shares)
            if not reachable:
                yield self._finding(
                    target, f"itfs_policy.rules[{idx}]",
                    f"path rule {rule.name!r} is dead: prefixes "
                    f"{list(rule.prefixes)} lie outside every fs share",
                    evidence={"rule": rule.name,
                              "prefixes": list(rule.prefixes),
                              "fs_shares": list(spec.fs_shares)})


class DuplicateRuleNameChecker(Checker):
    rules = (RuleInfo(
        "WIT022", "duplicate ITFS rule names", Severity.WARNING,
        "Two rules in the chain share a name; audit records and lint "
        "findings keyed by rule name become ambiguous."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        seen: Dict[str, int] = {}
        for idx, rule in enumerate(target.resolved_itfs_policy().rules):
            if rule.name in seen:
                yield self._finding(
                    target, f"itfs_policy.rules[{idx}]",
                    f"rule name {rule.name!r} already used at position "
                    f"{seen[rule.name]}",
                    evidence={"name": rule.name,
                              "first_position": seen[rule.name],
                              "duplicate_position": idx})
            else:
                seen[rule.name] = idx


# ----------------------------------------------------------------------
# WIT03x — monitoring gaps
# ----------------------------------------------------------------------

class UnmonitoredFsShareChecker(Checker):
    rules = (RuleInfo(
        "WIT030", "fs shares exposed without filesystem monitoring",
        Severity.ERROR,
        "The spec exposes host subtrees but disables ITFS auditing "
        "(monitor_filesystem=False); WatchIT's principle 3 — monitor "
        "everything inside the perforations — is violated, and the audit "
        "log cannot attribute what the admin did there."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        spec = target.spec
        if spec.fs_shares and not spec.monitor_filesystem:
            yield self._finding(
                target, "spec.monitor_filesystem",
                f"{len(spec.fs_shares)} host subtree(s) exposed with "
                f"filesystem monitoring disabled",
                evidence={"fs_shares": list(spec.fs_shares)})


class UnmonitoredNetworkChecker(Checker):
    rules = (RuleInfo(
        "WIT031", "network access without network monitoring",
        Severity.ERROR,
        "The spec grants network reachability (a shared NET namespace or "
        "an allowlist) but disables the sniffer (monitor_network=False); "
        "exfiltration and malware ingress go unobserved."),)

    def check(self, target: LintTarget) -> Iterator[Finding]:
        spec = target.spec
        if spec.monitor_network:
            return
        if spec.share_network_ns or spec.network_allowed:
            yield self._finding(
                target, "spec.monitor_network",
                "network reachability granted with the network monitor "
                "disabled",
                evidence={"network_mode": network_mode(target.spec)})


class MissingHardConstraintChecker(Checker):
    rules = (
        RuleInfo(
            "WIT032", "document/image hard-constraint floor disabled",
            Severity.ERROR,
            "block_documents=False removes the global anti-stringing floor "
            "(Table 1, attack 10): classified documents become readable in "
            "this class's sessions, defeating the cross-class defense."),
        RuleInfo(
            "WIT033", "signature monitoring enabled with nothing to match",
            Severity.INFO,
            "signature_monitoring=True pays the per-operation head-read "
            "cost (Figure 9) but no content class is blocked; the flag is "
            "dead configuration."),
    )

    def check(self, target: LintTarget) -> Iterator[Finding]:
        spec = target.spec
        if not spec.block_documents:
            yield self._finding(
                target, "spec.block_documents",
                "the document/image hard constraint is disabled for this "
                "class",
                evidence={"extra_fs_rule_classes":
                          list(spec.extra_fs_rule_classes)})
        if spec.signature_monitoring and not spec.block_documents and \
                not spec.extra_fs_rule_classes:
            yield self._finding(
                target, "spec.signature_monitoring",
                "signature monitoring enabled but no content class is "
                "blocked",
                rule_index=1)


#: this module's checkers, in the order the linter runs them
CONFIG_CHECKERS: Tuple[Type[Checker], ...] = (
    ShadowedShareChecker, MootNetworkAllowlistChecker, BrokerTcbGrantChecker,
    BrokerNetworkWildcardChecker, ShadowedDenyRuleChecker, DeadPathRuleChecker,
    DuplicateRuleNameChecker, UnmonitoredFsShareChecker,
    UnmonitoredNetworkChecker, MissingHardConstraintChecker)
