"""Baseline files: grandfather existing findings without blessing new ones.

A baseline is a JSON file of finding *fingerprints*.  A fingerprint hashes
the rule id, the file path, the stripped source line text, and an
occurrence counter -- deliberately **not** the line number, so unrelated
edits that shift code up or down do not invalidate the baseline, while
any change to the offending line itself (or a new copy of it) surfaces as
a fresh finding.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Sequence

from .engine import Finding

__all__ = ["Baseline", "fingerprint_findings"]


def fingerprint_findings(findings: Sequence[Finding]) -> list[str]:
    """Stable fingerprints for ``findings``, order-insensitive per file.

    Findings that share (rule, path, snippet) are disambiguated with an
    occurrence index so two identical violations on different lines get
    distinct fingerprints.
    """
    counts: dict[tuple[str, str, str], int] = {}
    prints: list[str] = []
    for finding in sorted(findings):
        key = (finding.rule, finding.path.replace("\\", "/"), finding.snippet)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        digest = hashlib.sha1(
            "|".join([*key, str(occurrence)]).encode("utf-8")
        ).hexdigest()
        prints.append(digest)
    return prints


class Baseline:
    """A set of grandfathered finding fingerprints, persisted as JSON."""

    VERSION = 1

    def __init__(self, fingerprints: Iterable[str] = ()):
        self.fingerprints = set(fingerprints)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline.

        Raises ``ValueError`` unless the file is JSON of the shape
        ``{"fingerprints": [str, ...]}``.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return cls()
        except (OSError, ValueError) as err:
            raise ValueError(f"unreadable baseline {path}: {err}") from err
        if isinstance(payload, dict):
            prints = payload.get("fingerprints", [])
            if isinstance(prints, list) and all(
                isinstance(p, str) for p in prints
            ):
                return cls(prints)
        raise ValueError(
            f"malformed baseline {path}: expected "
            '{"fingerprints": [str, ...]}'
        )

    def save(self, path: str) -> None:
        """Write the baseline (sorted, versioned) to ``path``."""
        payload = {
            "version": self.VERSION,
            "fingerprints": sorted(self.fingerprints),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    def __len__(self) -> int:
        return len(self.fingerprints)

    def partition(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        """Split findings into (new, grandfathered) against this baseline."""
        new: list[Finding] = []
        old: list[Finding] = []
        for finding, digest in zip(sorted(findings), fingerprint_findings(findings)):
            (old if digest in self.fingerprints else new).append(finding)
        return new, old

    def stale_fingerprints(self, findings: Sequence[Finding]) -> set[str]:
        """Fingerprints that no longer correspond to any current finding.

        Stale entries are harmless to correctness (they can only ever
        grandfather a finding that no longer exists) but they accumulate
        silently as violations get fixed; ``--write-baseline`` uses this
        to garbage-collect them and runs report the count so the rot is
        visible.
        """
        return self.fingerprints - set(fingerprint_findings(findings))
