"""The WatchIT IT framework: tickets, classification, images, deployment."""

from repro.framework.assignment import AssignmentPolicy, round_robin_dispatch
from repro.framework.certificates import Certificate, CertificateAuthority
from repro.framework.classifier import (
    FALLBACK_CLASS,
    ClassificationReport,
    KeywordClassifier,
    LDAClassifier,
    evaluate_classifier,
    spell_correct,
)
from repro.framework.cluster import ClusterManager, Deployment
from repro.framework.images import (
    SCRIPT_SPECS_CHEF_PUPPET,
    SCRIPT_SPECS_CLUSTER,
    TABLE3_SPECS,
    ImageRepository,
)
from repro.framework.lda import LDA, sweep_topic_counts
from repro.framework.lifecycle import ClusterSource, TicketSession
from repro.framework.orchestrator import WatchITDeployment
from repro.framework.preprocess import (
    Vocabulary,
    obfuscate,
    prepare_corpus,
    stem,
    tokenize,
)
from repro.framework.tickets import Role, Ticket, TicketDatabase, TicketStatus

__all__ = [
    "AssignmentPolicy",
    "Certificate",
    "CertificateAuthority",
    "ClassificationReport",
    "ClusterManager",
    "ClusterSource",
    "Deployment",
    "FALLBACK_CLASS",
    "ImageRepository",
    "KeywordClassifier",
    "LDA",
    "LDAClassifier",
    "Role",
    "SCRIPT_SPECS_CHEF_PUPPET",
    "SCRIPT_SPECS_CLUSTER",
    "TABLE3_SPECS",
    "Ticket",
    "TicketDatabase",
    "TicketSession",
    "TicketStatus",
    "Vocabulary",
    "WatchITDeployment",
    "evaluate_classifier",
    "obfuscate",
    "round_robin_dispatch",
    "prepare_corpus",
    "spell_correct",
    "stem",
    "sweep_topic_counts",
    "tokenize",
]
