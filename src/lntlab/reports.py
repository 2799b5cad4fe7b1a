"""Check records, report bundles and the one artifact writer.

A bundle collects the per-check verdicts of one run together with the
configuration that produced them. Every PASS/FAIL check carries a
machine-readable ``claim`` slug naming the mathematical property it tests,
so suites can be audited without parsing human-readable messages. Every file
a run leaves, ``report.json`` included, is written by ``write_artifact``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

__all__ = ["CheckRecord", "ReportBundle", "config_hash", "write_artifact"]

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"

_STATUS_ORDER = {PASS: 0, INFO: 1, FAIL: 2}


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def config_hash(config: dict) -> str:
    """Stable short hash of a configuration mapping."""
    canon = json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def write_artifact(path, content) -> None:
    """Write ``content`` to a sibling ``.tmp`` file and rename it to ``path``,
    so an interrupted write leaves the previous file, or none, never a
    truncated one. A dict is written as JSON (indent 1, trailing newline), a
    ``(header, rows)`` pair as CSV: strings as they are, other cells at ``.17g``.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if isinstance(content, dict):
                json.dump(content, fh, indent=1)
                fh.write("\n")
            else:
                header, rows = content
                fh.write(",".join(header) + "\n")
                fh.writelines(",".join([v if isinstance(v, str) else f"{v:.17g}" for v in row])
                              + "\n" for row in rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class CheckRecord:
    """One verdict: a named check, its status, and its numeric margins."""

    def __init__(self, name: str, status: str, claim: str, margins: dict | None = None,
                 fixtures: dict | None = None, message: str = ""):
        self.name, self.status, self.claim, self.message = name, status, claim, message
        self.margins = {} if margins is None else margins
        self.fixtures = {} if fixtures is None else fixtures

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "claim": self.claim,
            "margins": _jsonable(self.margins),
            "fixtures": _jsonable(self.fixtures),
            "message": self.message,
        }


class ReportBundle:
    """All checks and artifacts of one harness invocation."""

    def __init__(self, command: str, config: dict, tolerances: dict):
        self.command, self.config, self.tolerances = command, config, tolerances
        self.checks, self.artifacts = [], []
        self.timestamp = time.time()

    @property
    def hash(self) -> str:
        return config_hash({"command": self.command, **self.config})

    def add(self, record: CheckRecord) -> CheckRecord:
        if any(c.name == record.name for c in self.checks):
            raise ValueError(f"duplicate check name {record.name!r}")
        self.checks.append(record)
        return record

    def add_artifact(self, path, content=None) -> None:
        """Register ``path``, writing ``content`` to it first when given."""
        if content is not None:
            write_artifact(path, content)
        self.artifacts.append(str(path))

    def worst_status(self) -> str:
        return max((c.status for c in self.checks), key=_STATUS_ORDER.__getitem__, default=PASS)

    def exit_code(self) -> int:
        return 1 if self.worst_status() == FAIL else 0

    def as_dict(self) -> dict:
        return {
            "schema": "report-v1",
            "command": self.command,
            "config": _jsonable(self.config),
            "config_hash": self.hash,
            "tolerances": _jsonable(self.tolerances),
            "timestamp": self.timestamp,
            "checks": [c.as_dict() for c in self.checks],
            "artifacts": list(self.artifacts),
            "worst_status": self.worst_status(),
        }

    def save(self, path) -> None:
        write_artifact(path, self.as_dict())

    def summary_lines(self):
        for c in self.checks:
            detail = c.message
            if not detail and c.margins:
                detail = ", ".join(f"{k}={_fmt(v)}" for k, v in c.margins.items())
            yield f"[{c.status}] {c.name}: {detail}" if detail else f"[{c.status}] {c.name}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
