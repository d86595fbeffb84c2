"""Pin the JSON reporter schema: CI consumers parse these exact keys."""

import json

from repro.analysis import Finding
from repro.analysis.reporter import render_json, render_text

FINDING = Finding(
    path="pkg/mod.py",
    line=7,
    col=4,
    rule="DET001",
    message="wall-clock read `time.time()`; take time from the sim clock",
    snippet="stamp = time.time()",
)


def test_json_payload_keys_are_pinned():
    payload = json.loads(
        render_json([FINDING], files_scanned=3, baselined=1, stale=2)
    )
    assert set(payload) == {
        "version",
        "files_scanned",
        "baselined",
        "stale_baseline",
        "findings",
    }
    assert payload["version"] == 1
    assert payload["files_scanned"] == 3
    assert payload["baselined"] == 1
    assert payload["stale_baseline"] == 2


def test_json_finding_keys_are_pinned():
    payload = json.loads(render_json([FINDING]))
    (entry,) = payload["findings"]
    assert set(entry) == {"path", "line", "col", "rule", "message", "snippet"}
    assert entry["path"] == "pkg/mod.py"
    assert entry["line"] == 7
    assert entry["rule"] == "DET001"


def test_text_reporter_summarizes_stale_fingerprints():
    out = render_text([FINDING], files_scanned=1, baselined=2, stale=3)
    assert "1 finding in 1 file" in out
    assert "2 baselined" in out
    assert "3 stale baseline fingerprints" in out
