"""A tiny YAML-subset loader that remembers where everything came from.

Scenario files are configuration with *findings*: every schema, unit,
cross-reference, and feasibility diagnostic the static tier emits must
point at a ``file:line`` a human can open.  PyYAML discards positions
(and is a dependency we refuse anyway), so this module parses the small
indentation-structured subset the scenario DSL needs -- block mappings,
block and flow sequences, scalars, comments -- into a node tree in which
**every node carries the 1-based source line it started on**.

Supported grammar (a strict subset of YAML):

* block mappings ``key: value`` / ``key:`` + indented block;
* block sequences ``- item`` (scalar items, nested blocks, or inline
  mapping items ``- key: value`` with aligned continuation keys);
* flow sequences of scalars ``[1, 2.5, skewed]``;
* scalars: quoted strings, integers, finite floats (incl. scientific), the
  booleans ``true``/``false``, and ``null``/``~``; anything else is a
  bare string;
* ``#`` comments (outside quotes) and blank lines.

Deliberately absent: anchors, aliases, tags, multi-document streams,
multi-line strings, flow mappings, and tabs (tab indentation is a hard
error, exactly as in YAML proper).  Duplicate keys are an error rather
than last-wins -- in a scenario file a duplicate key is always a bug.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

__all__ = [
    "MappingNode",
    "ScalarNode",
    "ScenarioSyntaxError",
    "SequenceNode",
    "parse_file",
    "parse_text",
]

#: Bare mapping keys: identifier-shaped, optionally dotted/dashed.
_KEY_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.\-]*$")
_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?$")


class ScenarioSyntaxError(ValueError):
    """A scenario file failed to parse; carries the offending line."""

    def __init__(self, message: str, path: str, line: int):
        super().__init__(f"{path}:{line}: {message}")
        self.message = message
        self.path = path
        self.line = line


@dataclass(frozen=True)
class ScalarNode:
    """One parsed scalar value and the line it appeared on."""

    value: object
    line: int


@dataclass
class SequenceNode:
    """A block or flow sequence; ``items`` are child nodes in order."""

    items: list = field(default_factory=list)
    line: int = 1


class MappingNode:
    """An ordered mapping; every entry remembers its key's line."""

    def __init__(self, line: int):
        self.line = line
        self._entries: dict[str, tuple[int, object]] = {}

    def set(self, key: str, line: int, node) -> None:
        self._entries[key] = (line, node)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str):
        """The child node for ``key``, or None."""
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def key_line(self, key: str) -> int:
        """The line the key itself was written on (falls back to ours)."""
        entry = self._entries.get(key)
        return entry[0] if entry is not None else self.line

    def keys(self) -> list[str]:
        """Keys in document order."""
        return list(self._entries)

    def items(self) -> list[tuple[str, object]]:
        """(key, node) pairs in document order."""
        return [(key, node) for key, (_line, node) in self._entries.items()]


@dataclass(frozen=True)
class _Line:
    number: int
    indent: int
    text: str


def _strip_comment(raw: str, path: str, number: int) -> str:
    """Drop a trailing ``#`` comment, honouring quoted strings."""
    quote: str | None = None
    for i, ch in enumerate(raw):
        if quote is not None:
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or raw[i - 1] in " \t"):
            return raw[:i].rstrip()
    if quote is not None:
        raise ScenarioSyntaxError("unterminated quoted string", path, number)
    return raw.rstrip()


def _logical_lines(text: str, path: str) -> list[_Line]:
    lines: list[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.lstrip(" ")
        indent = len(raw) - len(stripped)
        if stripped.startswith("\t"):
            raise ScenarioSyntaxError(
                "tab characters may not be used for indentation", path, number
            )
        content = _strip_comment(stripped, path, number)
        if not content:
            continue
        lines.append(_Line(number, indent, content))
    return lines


def _find_key_colon(text: str) -> int:
    """Index of the mapping colon (``: `` or trailing ``:``), else -1."""
    quote: str | None = None
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
            continue
        if ch in "'\"":
            quote = ch
        elif ch == ":":
            if i == len(text) - 1 or text[i + 1] in " \t":
                return i
    return -1


class _Parser:
    def __init__(self, lines: list[_Line], path: str):
        self.lines = lines
        self.path = path
        self.pos = 0

    def _peek(self) -> _Line | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def _advance(self) -> _Line:
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def _error(self, message: str, number: int) -> ScenarioSyntaxError:
        return ScenarioSyntaxError(message, self.path, number)

    # -- blocks ------------------------------------------------------------

    def parse_document(self) -> MappingNode:
        head = self._peek()
        if head is None:
            raise self._error("empty scenario document", 1)
        node = self._parse_block(0)
        tail = self._peek()
        if tail is not None:
            raise self._error(
                f"unexpected dedent to column {tail.indent}", tail.number
            )
        if not isinstance(node, MappingNode):
            raise self._error("scenario document must be a mapping", head.number)
        return node

    def _parse_block(self, min_indent: int):
        head = self._peek()
        assert head is not None and head.indent >= min_indent
        if head.text == "-" or head.text.startswith("- "):
            return self._parse_sequence(head.indent)
        return self._parse_mapping(head.indent)

    def _parse_mapping(self, indent: int) -> MappingNode:
        head = self._peek()
        node = MappingNode(line=head.number)
        while True:
            current = self._peek()
            if current is None or current.indent < indent:
                break
            if current.indent > indent:
                raise self._error(
                    f"unexpected indent (expected column {indent})",
                    current.number,
                )
            if current.text == "-" or current.text.startswith("- "):
                raise self._error(
                    "sequence item in a mapping block", current.number
                )
            colon = _find_key_colon(current.text)
            if colon < 0:
                raise self._error(
                    "expected `key: value` or `key:`", current.number
                )
            key = self._parse_key(current.text[:colon], current.number)
            if key in node:
                raise self._error(
                    f"duplicate key `{key}` (first defined on line "
                    f"{node.key_line(key)})",
                    current.number,
                )
            rest = current.text[colon + 1:].strip()
            self._advance()
            node.set(key, current.number, self._parse_value(rest, current, indent))
        return node

    def _parse_value(self, rest: str, owner: _Line, indent: int):
        if rest:
            value = self._parse_flow_or_scalar(rest, owner.number)
            trailing = self._peek()
            if trailing is not None and trailing.indent > indent:
                raise self._error(
                    "unexpected indented block under a scalar value",
                    trailing.number,
                )
            return value
        child = self._peek()
        if child is not None and child.indent > indent:
            return self._parse_block(indent + 1)
        return ScalarNode(None, owner.number)

    def _parse_sequence(self, indent: int) -> SequenceNode:
        head = self._peek()
        node = SequenceNode(line=head.number)
        while True:
            current = self._peek()
            if current is None or current.indent < indent:
                break
            if current.indent > indent:
                raise self._error(
                    f"unexpected indent (expected column {indent})",
                    current.number,
                )
            if not (current.text == "-" or current.text.startswith("- ")):
                raise self._error(
                    "mapping entry in a sequence block", current.number
                )
            self._advance()
            rest = current.text[1:].lstrip()
            if not rest:
                child = self._peek()
                if child is not None and child.indent > indent:
                    node.items.append(self._parse_block(indent + 1))
                else:
                    node.items.append(ScalarNode(None, current.number))
                continue
            colon = _find_key_colon(rest)
            if colon >= 0 and _KEY_RE.match(rest[:colon].strip()):
                # Inline mapping item: re-enter the mapping parser with a
                # synthetic line at the inline key's actual column, so
                # continuation keys must align with it.
                item_indent = current.indent + (
                    len(current.text) - len(rest)
                )
                self.lines.insert(
                    self.pos, _Line(current.number, item_indent, rest)
                )
                node.items.append(self._parse_mapping(item_indent))
            else:
                node.items.append(
                    self._parse_flow_or_scalar(rest, current.number)
                )
        return node

    # -- terminals ---------------------------------------------------------

    def _parse_key(self, text: str, number: int) -> str:
        key = text.strip()
        if key.startswith(("'", '"')) and key.endswith(key[0]) and len(key) >= 2:
            key = key[1:-1]
        if not _KEY_RE.match(key):
            raise self._error(f"invalid mapping key {key!r}", number)
        return key

    def _parse_flow_or_scalar(self, text: str, number: int):
        if text.startswith("["):
            if not text.endswith("]"):
                raise self._error("unterminated flow sequence", number)
            inner = text[1:-1].strip()
            seq = SequenceNode(line=number)
            if inner:
                for part in inner.split(","):
                    part = part.strip()
                    if not part:
                        raise self._error(
                            "empty element in flow sequence", number
                        )
                    if part.startswith("["):
                        raise self._error(
                            "nested flow sequences are not supported", number
                        )
                    seq.items.append(self._parse_scalar(part, number))
            return seq
        return self._parse_scalar(text, number)

    def _parse_scalar(self, text: str, number: int) -> ScalarNode:
        if text.startswith(("'", '"')):
            if len(text) < 2 or not text.endswith(text[0]):
                raise self._error("unterminated quoted string", number)
            return ScalarNode(text[1:-1], number)
        lowered = text.lower()
        if lowered in ("null", "~"):
            return ScalarNode(None, number)
        if lowered == "true":
            return ScalarNode(True, number)
        if lowered == "false":
            return ScalarNode(False, number)
        if _INT_RE.match(text):
            return ScalarNode(int(text), number)
        if _FLOAT_RE.match(text):
            value = float(text)
            # An overflowing literal (``1e999``) stays a string, like
            # ``inf``, so the schema reports it as not a number.
            if math.isfinite(value):
                return ScalarNode(value, number)
        return ScalarNode(text, number)


def parse_text(text: str, path: str = "<scenario>") -> MappingNode:
    """Parse scenario source text into a line-annotated node tree."""
    return _Parser(_logical_lines(text, path), path).parse_document()


def parse_file(path: str) -> MappingNode:
    """Parse one scenario file from disk."""
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read(), path)
