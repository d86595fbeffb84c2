"""The semantic pass driver and its incremental analysis cache.

The semantic pass glues :mod:`.units` and :mod:`.protocol` together:

1. parse every file once, summarizing each module's unit interface,
2. build the project-wide :class:`~.units.SignatureIndex`,
3. run the unit and protocol checkers per file, recording which other
   modules each file's interprocedural checks consulted.

The consulted-module edges are exactly what makes the pass cacheable.
A file's findings are a pure function of (its own content, the *summary
signatures* of the modules it consulted, the enabled rule set).  The
cache (``.vdaplint-cache/manifest.json``) stores, per file: a blake2b
content hash, the serialized module summary, the dependency list with
each dependency's summary-signature hash, and the (pragma-filtered)
findings of both the file-level lint pass and the semantic pass.

A warm run therefore:

* re-reads and re-hashes every file (cheap), but **parses only files
  whose content changed** -- unchanged summaries replay from the cache;
* re-analyzes a file only when its content changed or a consulted
  module's *interface* changed (an edit that does not alter a module's
  summary never dirties its dependents);
* replays cached findings for everything else, producing byte-identical
  reports to a cold run.

Any change to the enabled rule set, the analyzer version, or the set of
module names (files added/removed change name resolution globally)
invalidates the whole cache -- correctness over cleverness.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .engine import (
    PARSE_ERROR_RULE,
    Finding,
    LintEngine,
    Pragmas,
    Rule,
)
from .protocol import PROTOCOL_RULE_CLASSES, ProtocolChecker
from .units import (
    UNIT_RULE_CLASSES,
    ModuleSummary,
    SignatureIndex,
    UnitChecker,
    summarize_module,
)

__all__ = [
    "SEMANTIC_RULE_CLASSES",
    "semantic_rules",
    "semantic_rules_by_id",
    "DEFAULT_CACHE_DIR",
    "CachedRun",
    "IncrementalAnalyzer",
    "catalogue_fingerprint",
]

SEMANTIC_RULE_CLASSES = UNIT_RULE_CLASSES + PROTOCOL_RULE_CLASSES

#: Bump to invalidate all caches when analysis semantics change.
CACHE_VERSION = 1

DEFAULT_CACHE_DIR = ".vdaplint-cache"
MANIFEST_NAME = "manifest.json"


def semantic_rules() -> list[Rule]:
    """Fresh instances of the semantic rule pack, in catalogue order."""
    return [cls() for cls in SEMANTIC_RULE_CLASSES]


def semantic_rules_by_id() -> dict[str, Rule]:
    """The semantic rule pack keyed by rule id."""
    return {rule.id: rule for rule in semantic_rules()}


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def catalogue_fingerprint() -> str:
    """``id@version`` digest over *every* shipped rule pack.

    The env key embeds this so that adding, removing, or re-versioning a
    rule in any catalogue -- including the MP/FLEET/SCN packs, which do
    not run through the incremental analyzer -- still invalidates the
    cache.
    A stale cache must never replay findings from an old catalogue.
    """
    from .dataflow import flow_rules
    from .mp import mp_rules
    from .plan import fleet_rules
    from .rules import default_rules
    from .scenario import scenario_rules

    parts: list[str] = []
    for pack in (default_rules(), flow_rules(), semantic_rules(),
                 mp_rules(), fleet_rules(), scenario_rules()):
        parts.extend(sorted(f"{rule.id}@{rule.version}" for rule in pack))
    return _blake("|".join(parts).encode("utf-8"))


def _finding_to_dict(finding: Finding) -> dict:
    return {
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "rule": finding.rule,
        "message": finding.message,
        "snippet": finding.snippet,
    }


def _finding_from_dict(raw: dict) -> Finding:
    return Finding(
        path=raw["path"], line=raw["line"], col=raw["col"],
        rule=raw["rule"], message=raw["message"], snippet=raw.get("snippet", ""),
    )


def summary_signature(summary: Optional[ModuleSummary]) -> str:
    """Hash of a module's *interface*; dependents re-run only when it moves."""
    if summary is None:
        return "unparsable"
    payload = json.dumps(summary.to_dict(), sort_keys=True).encode("utf-8")
    return _blake(payload)


@dataclass
class CachedRun:
    """Outcome of one analyzer run, with cache accounting."""

    findings: list[Finding] = field(default_factory=list)
    analyzed: list[str] = field(default_factory=list)
    replayed: list[str] = field(default_factory=list)
    cache_hit: bool = False


class _FileRecord:
    """In-memory working state for one file during a run."""

    __slots__ = ("path", "source", "content_hash", "tree", "summary",
                 "deps", "lint_findings", "semantic_findings", "error")

    def __init__(self, path: str):
        self.path = path
        self.source: Optional[str] = None
        self.content_hash = ""
        self.tree: Optional[ast.Module] = None
        self.summary: Optional[ModuleSummary] = None
        self.deps: list[str] = []
        self.lint_findings: list[Finding] = []
        self.semantic_findings: list[Finding] = []
        self.error: Optional[Finding] = None


class IncrementalAnalyzer:
    """Runs the file-level lint pass and the semantic pass, with caching.

    ``cache_dir=None`` runs cold and persists nothing; otherwise the
    manifest under ``cache_dir`` is consulted and rewritten.  Output is
    byte-identical either way.
    """

    def __init__(self, file_rules: Sequence[Rule],
                 semantic_rule_map: dict[str, Rule],
                 cache_dir: Optional[str] = None):
        self.file_rules = list(file_rules)
        self.semantic_rule_map = dict(semantic_rule_map)
        self.cache_dir = cache_dir
        self._engine = LintEngine(self.file_rules)
        self._unit_rules = {
            rid: rule for rid, rule in self.semantic_rule_map.items()
            if rid.startswith("UNIT")
        }
        self._protocol_rules = {
            rid: rule for rid, rule in self.semantic_rule_map.items()
            if not rid.startswith("UNIT")
        }

    # -- environment key ---------------------------------------------------

    def _env_key(self) -> str:
        parts = [
            f"cache-v{CACHE_VERSION}",
            "file:" + ",".join(
                sorted(f"{r.id}@{r.version}" for r in self.file_rules)
            ),
            "semantic:" + ",".join(
                sorted(
                    f"{rid}@{rule.version}"
                    for rid, rule in self.semantic_rule_map.items()
                )
            ),
            "packs:" + catalogue_fingerprint(),
        ]
        return _blake("|".join(parts).encode("utf-8"))

    # -- manifest io -------------------------------------------------------

    def _manifest_path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, MANIFEST_NAME)

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if path is None or not os.path.isfile(path):
            return {}
        try:
            with open(path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError):
            return {}
        if not isinstance(manifest, dict):
            return {}
        if manifest.get("version") != CACHE_VERSION:
            return {}
        if manifest.get("env") != self._env_key():
            return {}
        return manifest

    def _save_manifest(self, records: dict[str, _FileRecord],
                       sigs: dict[str, str], module_set_key: str) -> None:
        path = self._manifest_path()
        if path is None:
            return
        files_payload = {}
        for record in records.values():
            files_payload[record.path] = {
                "hash": record.content_hash,
                "summary": (
                    None if record.summary is None else record.summary.to_dict()
                ),
                "deps": list(record.deps),
                "dep_sigs": {
                    dep: sigs[dep] for dep in record.deps if dep in sigs
                },
                "lint": [_finding_to_dict(f) for f in record.lint_findings],
                "semantic": [
                    _finding_to_dict(f) for f in record.semantic_findings
                ],
            }
        manifest = {
            "version": CACHE_VERSION,
            "env": self._env_key(),
            "module_set": module_set_key,
            "files": files_payload,
        }
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(manifest, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            pass  # caching is best-effort; analysis results are unaffected

    # -- the run -----------------------------------------------------------

    def run(self, files: Sequence[str]) -> CachedRun:
        manifest = self._load_manifest()
        cached_files: dict = manifest.get("files", {}) if manifest else {}

        records: dict[str, _FileRecord] = {}
        for path in sorted(set(files)):
            record = _FileRecord(path)
            try:
                with open(path, encoding="utf-8") as fh:
                    record.source = fh.read()
            except (OSError, UnicodeDecodeError) as err:
                record.error = Finding(
                    path=path, line=1, col=0, rule=PARSE_ERROR_RULE,
                    message=f"cannot read file: {err}",
                )
                records[path] = record
                continue
            record.content_hash = _blake(record.source.encode("utf-8"))
            records[path] = record

        # Resolve each file's summary: replay for unchanged files, parse
        # for changed/new ones.  ``parsed`` marks files holding a live AST.
        for record in records.values():
            if record.error is not None:
                continue
            cached = cached_files.get(record.path)
            if cached is not None and cached.get("hash") == record.content_hash:
                raw = cached.get("summary")
                record.summary = (
                    ModuleSummary.from_dict(raw) if raw is not None else None
                )
            else:
                self._parse(record)

        module_set_key = _blake(
            "|".join(sorted(
                record.summary.module
                for record in records.values() if record.summary is not None
            )).encode("utf-8")
        )
        whole_tree_dirty = bool(manifest) and (
            manifest.get("module_set") != module_set_key
        )

        sigs = {
            record.summary.module: summary_signature(record.summary)
            for record in records.values() if record.summary is not None
        }

        dirty: list[_FileRecord] = []
        replayed: list[_FileRecord] = []
        for record in records.values():
            if record.error is not None:
                continue
            cached = cached_files.get(record.path)
            if (
                cached is None
                or whole_tree_dirty
                or cached.get("hash") != record.content_hash
                or self._deps_moved(cached, sigs)
            ):
                dirty.append(record)
            else:
                record.deps = list(cached.get("deps", []))
                record.lint_findings = [
                    _finding_from_dict(raw) for raw in cached.get("lint", [])
                ]
                record.semantic_findings = [
                    _finding_from_dict(raw) for raw in cached.get("semantic", [])
                ]
                replayed.append(record)

        index = SignatureIndex(
            record.summary for record in records.values()
            if record.summary is not None
        )
        for record in dirty:
            if record.tree is None:
                self._parse(record)
            self._analyze(record, index)

        findings: list[Finding] = []
        for record in records.values():
            if record.error is not None:
                findings.append(record.error)
                continue
            findings.extend(record.lint_findings)
            findings.extend(record.semantic_findings)

        # A fully-replayed run with an unchanged file set leaves the
        # manifest exactly as it is -- skip the rewrite.
        unchanged = (
            not dirty
            and bool(manifest)
            and set(records) == set(cached_files)
        )
        if self.cache_dir is not None and not unchanged:
            self._save_manifest(records, sigs, module_set_key)

        return CachedRun(
            findings=sorted(findings),
            analyzed=sorted(r.path for r in dirty),
            replayed=sorted(r.path for r in replayed),
            cache_hit=bool(manifest),
        )

    @staticmethod
    def _deps_moved(cached: dict, sigs: dict[str, str]) -> bool:
        dep_sigs = cached.get("dep_sigs", {})
        for dep in cached.get("deps", []):
            if sigs.get(dep) != dep_sigs.get(dep):
                return True
        return False

    def _parse(self, record: _FileRecord) -> None:
        assert record.source is not None
        try:
            record.tree = ast.parse(record.source, filename=record.path)
        except SyntaxError:
            record.tree = None
            record.summary = None
            return
        record.summary = summarize_module(
            record.path, record.source, tree=record.tree
        )

    def _analyze(self, record: _FileRecord, index: SignatureIndex) -> None:
        assert record.source is not None
        if record.tree is None:
            # Syntax error: the lint engine owns the E999 rendering.
            record.lint_findings = self._engine.lint_source(
                record.source, path=record.path
            )
            record.semantic_findings = []
            record.deps = []
            return
        record.lint_findings = self._engine.lint_parsed(
            record.path, record.source, record.tree
        )
        semantic: list[Finding] = []
        assert record.summary is not None
        index.reset_usage()
        if self._unit_rules:
            checker = UnitChecker(index, rules=self._unit_rules)
            semantic.extend(
                checker.check_module(record.summary, record.source, record.tree)
            )
        if self._protocol_rules:
            checker = ProtocolChecker(rules=self._protocol_rules)
            semantic.extend(
                checker.check_module(record.summary, record.source, record.tree)
            )
        pragmas = Pragmas(record.source)
        record.semantic_findings = sorted(
            f for f in semantic if not pragmas.suppressed(f.line, f.rule)
        )
        record.deps = sorted(index.used_modules - {record.summary.module})
