"""Finding reporters: grep-able text and machine-readable JSON.

The JSON document's top-level keys (``version``, ``files_scanned``,
``findings``) and the per-finding keys are consumed by CI tooling and
pinned by ``tests/analysis/test_reporter_schema.py``.  Keys are added
without a version bump; removing one bumps ``version`` (v2 removed
the two counts of grandfathered findings when the linter lost its
grandfathering mode).
"""

from __future__ import annotations

import json
from typing import Sequence

from .engine import Finding

__all__ = ["render_text", "render_json"]


def render_text(findings: Sequence[Finding], files_scanned: int = 0) -> str:
    """One ``path:line:col: RULE message`` line per finding plus a summary."""
    lines = [
        f"{finding.location()}: {finding.rule} {finding.message}"
        for finding in sorted(findings)
    ]
    lines.append(
        f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
        f"in {files_scanned} file{'s' if files_scanned != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_scanned: int = 0) -> str:
    """A stable JSON document: counts plus one object per finding."""
    payload = {
        "version": 2,
        "files_scanned": files_scanned,
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
