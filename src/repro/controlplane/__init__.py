"""The concurrent multi-tenant control plane (the repo's scalability layer).

Serial :class:`~repro.framework.orchestrator.WatchITDeployment` handles one
ticket at a time on one simulated kernel. This package runs many Figure 3
sessions concurrently:

* :mod:`repro.controlplane.sharding` — N independent simulated kernels
  (shards); tickets hash-route by workstation, so one workstation's state
  always lives on one shard.
* :mod:`repro.controlplane.pool` — pre-warmed per-ticket-class container
  pools with scrub-on-release isolation: a released container is reset
  (mounts, firewall, ITFS caches, audit epochs) and the reset is *verified*
  before the container may serve the next tenant; anything unverifiable is
  discarded, never reused.
* :mod:`repro.controlplane.batching` — memoized + batched classification:
  one model inference per unique preprocessed ticket text.
* :mod:`repro.controlplane.serving` — the mode-agnostic per-ticket
  session path (:class:`ShardServer`): classify → lease → login → ops →
  resolve → scrubbed release, returning the result and the session's
  trail, identical under both worker modes.
* :mod:`repro.controlplane.channel` — the pickle-safe envelope protocol
  (tickets, results, typed errors, control RPCs) that crosses the
  process boundary in ``workers="process"`` mode.
* :mod:`repro.controlplane.executor` — the bounded worker executor tying
  it together: admission with per-shard backpressure, one pending table
  and one settle path (latency, per-ticket metrics, trail persistence)
  shared by thread *or* process shard workers behind a small per-mode
  backend, fail-fast futures on a worker crash, graceful drain, and
  :mod:`repro.obs` instrumentation (queue depth, pool hit rate, session
  latency histograms).
"""

from repro.controlplane.batching import BatchingClassifier
from repro.controlplane.executor import (
    WORKER_MODES,
    ControlPlane,
    default_session_ops,
)
from repro.controlplane.pool import ContainerPool, PooledDeployment
from repro.controlplane.serving import ShardServer
from repro.controlplane.sharding import KernelShard, ShardPlan, ShardRouter

__all__ = [
    "BatchingClassifier",
    "ContainerPool",
    "ControlPlane",
    "KernelShard",
    "PooledDeployment",
    "ShardPlan",
    "ShardRouter",
    "ShardServer",
    "WORKER_MODES",
    "default_session_ops",
]
