"""Audit report containers and (de)serialization helpers.

Every audit in this package produces an :class:`AuditReport`: the inequality
(or identity) that was checked, the parameter grid it was checked on, the
fitted constants, the worst-case witness, and a boolean verdict.  The CLI
wraps a list of reports into a :class:`ReportEnvelope` (JSON ``schema: 1``)
whose body is byte-identical across reruns with the same config and seed;
wall-clock data is segregated under ``timings`` so it can be excluded from
reproducibility comparisons.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

SCHEMA_VERSION = 1


def jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON-safe types."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass
class AuditReport:
    """Outcome of one audited inequality/identity.

    Attributes
    ----------
    audit_id:
        Stable identifier, e.g. ``"green.ugi.d2"``.
    grid:
        Description of the parameter grid the audit ran on.
    constants:
        Fitted or measured constants (extrema, ratios, fitted pairs).
    worst:
        Worst-case witness (grid point and margin), ``None`` if vacuous.
    passed:
        Verdict of the audit's pass criterion.
    notes:
        Free-form flags (vacuous rows, side conditions reported not asserted).
    rows:
        Optional per-grid-point detail for CSV export; excluded from JSON.
    """

    audit_id: str
    grid: dict[str, Any] = field(default_factory=dict)
    constants: dict[str, Any] = field(default_factory=dict)
    worst: dict[str, Any] | None = None
    passed: bool = False
    notes: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] | None = None

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "audit_id": self.audit_id,
            "grid": jsonable(self.grid),
            "constants": jsonable(self.constants),
            "worst": jsonable(self.worst),
            "passed": bool(self.passed),
            "notes": list(self.notes),
        }

    def write_rows_csv(self, path: str | os.PathLike) -> None:
        """Write the per-grid-point rows as CSV (no-op if there are none)."""
        if not self.rows:
            return
        fieldnames: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in fieldnames:
                    fieldnames.append(key)
        payload = jsonable(self.rows)
        write_atomic(path, _csv_text(fieldnames, payload), newline="")


@dataclass
class ReportEnvelope:
    """Top-level CLI report: ``schema`` + config echo + audits + timings."""

    config: dict[str, Any]
    audits: list[AuditReport]
    timings: dict[str, Any] = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.audits)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "config": jsonable(self.config),
            "passed": self.passed,
            "audits": [a.to_json_dict() for a in self.audits],
            "timings": jsonable(self.timings),
        }

    def body_without_timings(self) -> dict[str, Any]:
        body = self.to_json_dict()
        body.pop("timings", None)
        return body


def _csv_text(fieldnames: list[str], rows: Iterable[Mapping[str, Any]]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def write_atomic(path: str | os.PathLike, data: str | bytes, newline: str | None = None) -> None:
    """Write text or bytes to ``path`` via a temp file + rename in the same dir."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w", newline=newline) as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path: str | os.PathLike, obj: Any) -> None:
    """Serialize ``obj`` to JSON and write it atomically (temp + rename)."""
    write_atomic(path, json.dumps(jsonable(obj), indent=2, sort_keys=False) + "\n")
