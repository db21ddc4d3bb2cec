"""Open-loop ticket-serving benchmark for the WatchIT reproduction.

Drives the real ticket path in-process — wire parse, admission, the
service's batch submit, the control plane, pooled containers, the
session body, and the SQLite event store — and times it from outside.
See ``perfbench/README.md`` for the workloads and the metric map.
"""
