"""Finding reporters: grep-able text and machine-readable JSON.

The JSON document's top-level keys (``version``, ``files_scanned``,
``baselined``, ``stale_baseline``, ``findings`` and the per-finding keys)
are consumed by CI tooling and pinned by
``tests/analysis/test_reporter_schema.py`` -- extend, never rename.
"""

from __future__ import annotations

import json
from typing import Sequence

from .engine import Finding

__all__ = ["render_text", "render_json"]


def render_text(
    findings: Sequence[Finding],
    files_scanned: int = 0,
    baselined: int = 0,
    stale: int = 0,
) -> str:
    """One ``path:line:col: RULE message`` line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in sorted(findings)
    ]
    summary = (
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {files_scanned} file{'s' if files_scanned != 1 else ''}"
    )
    if baselined:
        summary += f" ({baselined} baselined, not shown)"
    if stale:
        summary += (
            f" [{stale} stale baseline fingerprint{'s' if stale != 1 else ''}; "
            "re-run --write-baseline to garbage-collect]"
        )
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding],
    files_scanned: int = 0,
    baselined: int = 0,
    stale: int = 0,
) -> str:
    """A stable JSON document: counts plus one object per finding."""
    payload = {
        "version": 1,
        "files_scanned": files_scanned,
        "baselined": baselined,
        "stale_baseline": stale,
        "findings": [
            {
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "rule": finding.rule,
                "message": finding.message,
                "snippet": finding.snippet,
            }
            for finding in sorted(findings)
        ],
    }
    return json.dumps(payload, indent=2)
