"""Single-pass AST lint engine with a rule registry and pragma suppression.

The engine parses each file once and performs **one** tree walk per file.
Rules do not walk the AST themselves.  The walk gathers what needs the
whole file -- its imports, which functions are generators, and whatever
rules gather through ``collect_<NodeType>`` methods -- and lists the
nodes in order; then every listed node is offered to each rule's
``visit_<NodeType>`` handler, by a dispatch table mapping node types to
the interested rules.  Linting all of ``src/repro`` therefore costs one
parse plus one traversal per file regardless of how many rules are
enabled.

Suppression pragmas:

* ``# vdaplint: disable=DET001,RES001`` on a line suppresses those rules
  (or ``all``) for findings reported on that line.
* ``# vdaplint: disable-file=DET002`` anywhere in the file suppresses the
  listed rules for the whole file.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "Finding",
    "FileContext",
    "Pragmas",
    "Rule",
    "LintEngine",
    "SKIP_MARKER",
    "discover_files",
    "lint_source",
    "lint_paths",
]

#: Matches both line pragmas and file pragmas; group 1 is the scope
#: (``disable`` or ``disable-file``), group 2 the comma-separated rule ids.
PRAGMA_RE = re.compile(
    r"#\s*vdaplint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)"
)

#: Rule id used for files that fail to parse.
PARSE_ERROR_RULE = "E999"

#: Dropping this marker file in a directory exempts it (and everything
#: below it) from directory-walk discovery -- the opt-out for fixture
#: corpora whose violations are deliberate.  Explicitly-named files are
#: still linted.
SKIP_MARKER = ".vdaplint-skip"


@dataclass(frozen=True, order=True)
class Finding:
    """One lint violation: where it is, which rule fired, and why.

    ``snippet`` carries the stripped source line; the JSON reporter
    emits it so a consumer can show the offending code.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""

    def location(self) -> str:
        """``path:line:col`` for human-readable reports."""
        return f"{self.path}:{self.line}:{self.col}"


class Pragmas:
    """Parsed suppression pragmas for one file."""

    def __init__(self, source: str):
        self.line_rules: dict[int, set[str]] = {}
        self.file_rules: set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = PRAGMA_RE.search(text)
            if not match:
                continue
            scope, raw = match.groups()
            rules = {part.strip() for part in raw.split(",") if part.strip()}
            if scope == "disable":
                self.line_rules.setdefault(lineno, set()).update(rules)
            else:
                self.file_rules.update(rules)

    def suppressed(self, line: int, rule: str) -> bool:
        if "all" in self.file_rules or rule in self.file_rules:
            return True
        rules = self.line_rules.get(line)
        return rules is not None and ("all" in rules or rule in rules)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` / ``name`` / ``description`` and define
    ``visit_<NodeType>(self, node, ctx)`` methods; the engine discovers
    those by introspection and calls them once the file's walk is done, so
    a visitor sees whole-file facts.  ``collect_<NodeType>`` methods run
    during the walk itself, to gather such facts.  Rules must be stateless
    across files -- per-file scratch space lives in
    :attr:`FileContext.scratch`.
    """

    id: str = ""
    name: str = ""
    description: str = ""

    def handlers(self, prefix: str = "visit_") -> dict[type, Callable]:
        """Map AST node types to this rule's bound ``prefix`` methods."""
        table: dict[type, Callable] = {}
        for attr in dir(self):
            if not attr.startswith(prefix):
                continue
            node_type = getattr(ast, attr[len(prefix):], None)
            if node_type is not None and isinstance(node_type, type):
                table[node_type] = getattr(self, attr)
        return table


class FileContext:
    """Everything a rule can know about the file being linted.

    :attr:`imports` and the generator set are filled by the engine's walk.
    """

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Local name -> dotted import target, for :meth:`qualname`.
        self.imports: dict[str, str] = {}
        #: Per-rule scratch space, reset per file (keyed by rule id).
        self.scratch: dict[str, object] = {}
        self.findings: list[Finding] = []
        # The innermost def enclosing the node being visited, and the defs
        # whose own body yields (generator functions).
        self._scope: Optional[ast.AST] = None
        self._generator_funcs: set[ast.AST] = set()

    # -- derived metadata --------------------------------------------------

    @property
    def module_name(self) -> str:
        """Module basename without extension (``uplink``, ``__init__``)."""
        return os.path.splitext(os.path.basename(self.path))[0]

    @cached_property
    def subsystem(self) -> Optional[str]:
        """The ``repro`` subpackage this file lives in, if discernible.

        ``src/repro/edgeos/elastic.py`` -> ``edgeos``; paths that do not
        contain a ``repro`` component return ``None`` (standalone files are
        treated as in-scope by subsystem-scoped rules).
        """
        parts = self.path.replace(os.sep, "/").split("/")
        for i, part in enumerate(parts[:-1]):
            if part == "repro":
                remainder = parts[i + 1 : -1]
                return remainder[0] if remainder else None
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # -- name resolution ---------------------------------------------------

    def _add_import(self, node: ast.Import | ast.ImportFrom) -> None:
        imports = self.imports
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        else:
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                imports[local] = f"{module}.{alias.name}" if module else alias.name

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain through the file's imports.

        ``np.random.seed`` with ``import numpy as np`` resolves to
        ``numpy.random.seed``; ``monotonic`` with ``from time import
        monotonic`` resolves to ``time.monotonic``.  Returns ``None`` for
        expressions that are not simple dotted chains (calls, subscripts).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    # -- generator / scope tracking ---------------------------------------

    def in_generator(self) -> bool:
        """True when the innermost enclosing def is a generator (sim process)."""
        return self._scope in self._generator_funcs

    # -- reporting ---------------------------------------------------------

    def report(self, rule: "Rule", node: ast.AST, message: str) -> None:
        """File a finding anchored at ``node``'s source position."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        self.report_at(rule, line, col, message)

    def report_at(self, rule: "Rule", line: int, col: int, message: str) -> None:
        """File a finding at an explicit position (module-level findings)."""
        self.findings.append(
            Finding(
                path=self.path,
                line=line,
                col=col,
                rule=rule.id,
                message=message,
                snippet=self.line_text(line),
            )
        )


class LintEngine:
    """Runs a rule pack over files with one shared AST walk per file."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules = list(rules)
        self._dispatch: dict[type, list[Callable]] = {}
        self._collect: dict[type, list[Callable]] = {}
        for rule in self.rules:
            for node_type, handler in rule.handlers().items():
                self._dispatch.setdefault(node_type, []).append(handler)
            for node_type, handler in rule.handlers("collect_").items():
                self._collect.setdefault(node_type, []).append(handler)

    def lint_source(self, source: str, path: str = "<string>") -> list[Finding]:
        """Lint one unit of source text; returns sorted, pragma-filtered findings."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as err:
            return [
                Finding(
                    path=path,
                    line=err.lineno or 1,
                    col=(err.offset or 1) - 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"syntax error: {err.msg}",
                )
            ]
        ctx = FileContext(path, source, tree)
        nodes: list[tuple[ast.AST, Optional[ast.AST]]] = []
        self._walk(tree, ctx, None, None, nodes)
        dispatch = self._dispatch
        for node, scope in nodes:
            handlers = dispatch.get(type(node))
            if handlers:
                ctx._scope = scope
                for handler in handlers:
                    handler(node, ctx)
        pragmas = Pragmas(source)
        kept = [f for f in ctx.findings if not pragmas.suppressed(f.line, f.rule)]
        return sorted(kept)

    def lint_file(self, path: str) -> list[Finding]:
        """Read and lint one file; unreadable files become E999 findings."""
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            return [
                Finding(path=path, line=1, col=0, rule=PARSE_ERROR_RULE,
                        message=f"cannot read file: {err}")
            ]
        return self.lint_source(source, path=path)

    def lint_paths(self, paths: Iterable[str]) -> list[Finding]:
        """Lint every python file under ``paths`` (files or directories)."""
        findings: list[Finding] = []
        for path in discover_files(paths):
            findings.extend(self.lint_file(path))
        return sorted(findings)

    def _walk(self, node: ast.AST, ctx: FileContext, scope: Optional[ast.AST],
              owner: Optional[ast.AST], nodes: list) -> None:
        """List ``node`` and its subtree in source order, gathering file
        facts.  ``scope`` is the innermost enclosing def (lambdas do not
        count); ``owner`` is the def whose own body this is, which a yield
        makes a generator (None in a lambda or a def's signature)."""
        nodes.append((node, scope))
        kind = type(node)
        for collect in self._collect.get(kind, ()):
            collect(node, ctx)
        if kind is ast.Import or kind is ast.ImportFrom:
            ctx._add_import(node)
        elif (kind is ast.Yield or kind is ast.YieldFrom) and owner is not None:
            ctx._generator_funcs.add(owner)
        body: set[int] = set()
        if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            scope, body = node, set(map(id, node.body))
        elif kind is ast.Lambda:
            owner = None
        for child in ast.iter_child_nodes(node):
            child.parent = node  # type: ignore[attr-defined]
            if body:
                owner = node if id(child) in body else None
            self._walk(child, ctx, scope, owner, nodes)


def discover_files(paths: Iterable[str],
                   suffixes: tuple[str, ...] = (".py",)) -> list[str]:
    """Expand files/directories into a sorted list of the files ending
    in one of ``suffixes``; a directory holding :data:`SKIP_MARKER` is
    pruned.

    Raises ``FileNotFoundError`` for paths that do not exist so the CLI can
    turn that into a usage error rather than silently linting nothing.
    """
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(suffixes):
                out.append(path)
        elif os.path.isdir(path):
            # dirnames.sort() pins the walk order deterministically.
            for dirpath, dirnames, filenames in os.walk(path):  # vdaplint: disable=DET004
                dirnames.sort()
                if SKIP_MARKER in filenames:
                    dirnames[:] = []  # do not descend further either
                    continue
                for fname in sorted(filenames):
                    if fname.endswith(suffixes):
                        out.append(os.path.join(dirpath, fname))
        else:
            raise FileNotFoundError(path)
    return sorted(set(out))


def lint_source(source: str, path: str = "<string>",
                rules: Optional[Sequence[Rule]] = None) -> list[Finding]:
    """Convenience wrapper: lint source text with ``rules`` (default pack)."""
    from .rules import default_rules

    return LintEngine(rules if rules is not None else default_rules()).lint_source(
        source, path=path
    )


def lint_paths(paths: Iterable[str],
               rules: Optional[Sequence[Rule]] = None) -> list[Finding]:
    """Convenience wrapper: lint files/directories with ``rules`` (default pack)."""
    from .rules import default_rules

    return LintEngine(rules if rules is not None else default_rules()).lint_paths(paths)
