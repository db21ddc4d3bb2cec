"""The unified experiment-result schema.

Every artifact this repo emits — ``--metrics-out`` dumps, the
``BENCH_*.json`` benchmark files, the ``repro serve --db`` bench row — is one
:class:`ExperimentReport`: a name, the parameters that produced it, a
flat scalar ``metrics`` dict (the headline numbers), and free-form
``artifacts`` for anything structured (snapshots, per-phase payloads).
The ``schema`` tag lets downstream tooling detect the format without
guessing from file names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Union

__all__ = ["SCHEMA", "ExperimentReport"]

SCHEMA = "watchit-experiment-report/v1"

#: metrics values must be flat scalars — plot axes, not payloads
Scalar = Union[int, float, str, bool, None]


@dataclass
class ExperimentReport:
    """One experiment run, in the shape every writer emits."""

    name: str
    params: Dict[str, Scalar] = field(default_factory=dict)
    metrics: Dict[str, Scalar] = field(default_factory=dict)
    artifacts: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, value in self.metrics.items():
            if value is not None and not isinstance(value, (int, float, str,
                                                            bool)):
                raise TypeError(
                    f"metric {key!r} must be a flat scalar, "
                    f"got {type(value).__name__} (use artifacts for "
                    f"structured payloads)")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
            "artifacts": dict(self.artifacts),
        }

    def to_json(self, indent: int = 2) -> str:
        # strict JSON has no Infinity literal; histogram snapshots carry
        # a +inf bucket bound, so rewrite it the way repro.obs does
        def _clean(value):
            if isinstance(value, float) and value == float("inf"):
                return "+Inf"
            if isinstance(value, dict):
                return {k: _clean(v) for k, v in value.items()}
            if isinstance(value, list):
                return [_clean(v) for v in value]
            return value

        return json.dumps(_clean(self.to_dict()), indent=indent,
                          sort_keys=True)

    def write(self, path) -> Path:
        """Write the report as JSON to ``path``; returns the path."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ExperimentReport":
        if raw.get("schema") != SCHEMA:
            raise ValueError(
                f"not a {SCHEMA} document (schema={raw.get('schema')!r})")
        return cls(name=str(raw.get("name", "")),
                   params=dict(raw.get("params", {})),      # type: ignore[arg-type]
                   metrics=dict(raw.get("metrics", {})),    # type: ignore[arg-type]
                   artifacts=dict(raw.get("artifacts", {})))  # type: ignore[arg-type]

    @classmethod
    def read(cls, path) -> "ExperimentReport":
        return cls.from_dict(json.loads(Path(path).read_text(
            encoding="utf-8")))
