"""Tabular result reports: one formatting path for every benchmark.

Every bench used to hand-roll f-string tables; :class:`Report` replaces
that with declared columns + rows and two exporters:

* :meth:`Report.to_text` -- the fixed-width table committed under
  ``benchmarks/results/*.txt`` (formatting matches the historical
  hand-rolled layout byte for byte);
* :meth:`Report.to_json` -- the same data as stable machine-readable JSON
  (sorted keys), for tooling and CI artifacts.

Columns are declared once with a width, a format spec, and an alignment;
rows are passed by column key, so adding a metric to a bench is one
``add_column`` + one keyword, not a format-string surgery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = ["Report", "Column"]


def _jsonable(value):
    """JSON fallback for numpy scalars and other number-likes."""
    for cast in (int, float):
        try:
            return cast(value)
        except (TypeError, ValueError):
            continue
    return str(value)


@dataclass(frozen=True)
class Column:
    """One table column: key into row dicts, header text, layout."""

    key: str
    header: str
    width: int
    fmt: str | None = None
    align: str = "right"

    def render(self, value) -> str:
        # A string value bypasses ``fmt``: benches use it for summary cells
        # ("disk only", "92/120") inside otherwise-numeric columns.
        if self.fmt is not None and not isinstance(value, str):
            text = format(value, self.fmt)
        else:
            text = str(value)
        return text.ljust(self.width) if self.align == "left" else text.rjust(self.width)

    def render_header(self) -> str:
        return (
            self.header.ljust(self.width)
            if self.align == "left"
            else self.header.rjust(self.width)
        )


class Report:
    """A named result table with a title line, rows, and free-form notes."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self.columns: list[Column] = []
        self.rows: list[dict] = []
        self.notes: list[str] = []

    def add_column(
        self,
        key: str,
        width: int,
        fmt: str | None = None,
        header: str | None = None,
        align: str | None = None,
    ) -> "Report":
        """Declare the next column; returns self for chaining.

        ``align`` defaults to left for plain-string columns (no ``fmt``)
        and right for formatted ones -- the layout the benches always used.
        """
        if align is None:
            align = "left" if fmt is None else "right"
        if align not in ("left", "right"):
            raise ValueError(f"align must be 'left' or 'right', got {align!r}")
        if any(column.key == key for column in self.columns):
            raise ValueError(f"duplicate column key {key!r}")
        self.columns.append(
            Column(key=key, header=header if header is not None else key,
                   width=width, fmt=fmt, align=align)
        )
        return self

    def add_row(self, **values) -> None:
        """Append a row; every declared column key must be present."""
        missing = [c.key for c in self.columns if c.key not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        unknown = sorted(set(values) - {c.key for c in self.columns})
        if unknown:
            raise ValueError(f"row has undeclared columns {unknown}")
        self.rows.append(values)

    def note(self, line: str = "") -> None:
        """Append a literal line after the table (ratios, trace hashes...)."""
        self.notes.append(line)

    # -- exporters ---------------------------------------------------------

    def to_text(self) -> str:
        """The fixed-width table, one string (no trailing newline)."""
        lines = [self.title]
        if self.columns:
            lines.append("".join(c.render_header() for c in self.columns).rstrip())
            for row in self.rows:
                lines.append(
                    "".join(c.render(row[c.key]) for c in self.columns).rstrip()
                )
        lines.extend(self.notes)
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        """Stable JSON: name, title, columns, rows keyed by column, notes."""
        payload = {
            "name": self.name,
            "title": self.title,
            "columns": [c.key for c in self.columns],
            "rows": [
                {c.key: row[c.key] for c in self.columns} for row in self.rows
            ],
            "notes": list(self.notes),
        }
        return json.dumps(payload, indent=indent, sort_keys=True, default=_jsonable)
