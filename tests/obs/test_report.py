"""Report: declared-column tables, byte-stable text, stable JSON."""

import json

import pytest

from repro.obs import Report


def make_report() -> Report:
    report = Report("demo", "Demo -- a small table")
    report.add_column("name", 10)
    report.add_column("value", 8, ".2f")
    report.add_column("count", 7, "d")
    report.add_row(name="alpha", value=1.5, count=3)
    report.add_row(name="beta", value=22.125, count=40)
    return report


def test_to_text_layout_matches_hand_rolled_format():
    text = make_report().to_text()
    assert text == (
        "Demo -- a small table\n"
        f"{'name':10s}{'value':>8s}{'count':>7s}\n"
        f"{'alpha':10s}{1.5:>8.2f}{3:>7d}\n"
        f"{'beta':10s}{22.125:>8.2f}{40:>7d}"
    )


def test_lines_have_no_trailing_whitespace():
    report = make_report()
    report.add_column("tail", 12)  # a left-aligned last column pads right
    report.rows.clear()
    report.add_row(name="x", value=0.0, count=0, tail="t")
    for line in report.to_text().split("\n"):
        assert line == line.rstrip()


def test_notes_render_after_the_table():
    report = make_report()
    report.note()
    report.note("ratio: 2.0x")
    assert report.to_text().endswith("\n\nratio: 2.0x")


def test_string_cell_bypasses_numeric_format():
    report = Report("r", "t")
    report.add_column("ttl", 12, ".0f")
    report.add_row(ttl=5.0)
    report.add_row(ttl="disk only")
    lines = report.to_text().split("\n")
    assert lines[-2].endswith("5")
    assert lines[-1] == f"{'disk only':>12s}"


def test_row_validation():
    report = Report("r", "t")
    report.add_column("a", 4)
    with pytest.raises(ValueError):
        report.add_row()  # missing 'a'
    with pytest.raises(ValueError):
        report.add_row(a=1, b=2)  # undeclared 'b'
    with pytest.raises(ValueError):
        report.add_column("a", 4)  # duplicate key
    with pytest.raises(ValueError):
        report.add_column("c", 4, align="center")


def test_header_defaults_to_key_and_align_follows_fmt():
    report = Report("r", "t")
    report.add_column("word", 6)            # no fmt: left
    report.add_column("num", 6, ".1f")      # fmt: right
    report.add_row(word="ab", num=1.0)
    header, row = report.to_text().split("\n")[1:]
    assert header == f"{'word':6s}{'num':>6s}"
    assert row == f"{'ab':6s}{1.0:>6.1f}"


def test_to_json_is_stable_and_keyed_by_column():
    payload = json.loads(make_report().to_json())
    assert payload["name"] == "demo"
    assert payload["columns"] == ["name", "value", "count"]
    assert payload["rows"][0] == {"name": "alpha", "value": 1.5, "count": 3}
    assert make_report().to_json() == make_report().to_json()


def test_to_json_casts_numpy_scalars():
    import numpy as np

    report = Report("r", "t")
    report.add_column("x", 6, ".1f")
    report.add_row(x=np.float64(2.5))
    assert json.loads(report.to_json())["rows"][0]["x"] == 2.5
