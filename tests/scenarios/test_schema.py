"""Schema semantics: issue anchoring, matrix expansion, accepted entries."""

from repro.scenarios import parse_text, validate
from repro.scenarios.schema import check, config_defaults


def accepted(text):
    return check(parse_text(text))[1]


def issues_for(text):
    return [(i.line, i.rule) for i in validate(parse_text(text))]


def test_valid_minimal_document_is_clean():
    assert issues_for("fleet:\n  vehicles: 4\n") == []


def test_missing_fleet_section_is_reported():
    issues = validate(parse_text("name: nothing\n"))
    assert any(
        i.rule == "SCN001" and "fleet" in i.message for i in issues
    )


def test_unknown_top_level_section():
    issues = validate(parse_text("fleet:\n  vehicles: 4\nflee: {}\n"))
    assert any("flee" in i.message and i.rule == "SCN001" for i in issues)


def test_roster_count_mismatch_anchors_on_declared_count():
    text = (
        "fleet:\n"
        "  vehicles: 3\n"   # line 2: contradicts the 2-entry roster
        "vehicles:\n"
        "  - id: 0\n"
        "  - id: 1\n"
    )
    assert (2, "SCN001") in issues_for(text)


def test_partitions_exceeding_vehicles_in_a_swept_cell():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "sweep:\n"
        "  partitions: [2, 8]\n"  # line 4: the 8-partition cell is bad
    )
    assert (4, "SCN001") in issues_for(text)


def test_expand_cells_is_row_major_over_sorted_axes():
    record = accepted(
        "fleet:\n"
        "  vehicles: 8\n"
        "sweep:\n"
        "  workload: [uniform, skewed]\n"
        "  partitions: [1, 2]\n"
    )
    names = [cell.name for cell in record.cells()]
    assert names == [
        "partitions=1/workload=uniform",
        "partitions=1/workload=skewed",
        "partitions=2/workload=uniform",
        "partitions=2/workload=skewed",
    ]


def test_no_sweep_expands_to_single_base_cell():
    cells = accepted("fleet:\n  vehicles: 4\n").cells()
    assert len(cells) == 1
    assert cells[0].name == "base"
    assert cells[0].overrides == ()


def test_malformed_axis_values_drop_the_axis():
    record = accepted(
        "fleet:\n"
        "  vehicles: 4\n"
        "sweep:\n"
        "  partitions: [2, nope]\n"
    )
    assert record.axes == {}
    assert len(record.cells()) == 1


def test_base_settings_skip_malformed_entries():
    settings = accepted(
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: soon\n"
    ).base
    assert settings["vehicles"].value == 4
    assert "duration_s" not in settings


def test_well_typed_bad_value_is_refused_at_its_line():
    # -1.0 is a well-typed duration: the schema passes it on, and
    # FleetConfig's refusal lands on its line.
    doc = parse_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -1.0\n"
    )
    assert check(doc)[1].base["duration_s"].value == -1.0
    [issue] = validate(doc)
    assert (issue.line, issue.rule) == (3, "SCN001")
    assert "duration must be positive, got -1.0" in issue.message


def test_effective_vehicles_prefers_the_roster():
    record = accepted(
        "fleet:\n"
        "  vehicles: 9\n"
        "vehicles:\n"
        "  - id: 0\n"
        "  - id: 1\n"
    )
    [cell] = record.cells()
    assert record.base["vehicles"].value == 9
    assert record.values(cell)["vehicles"] == 2


def test_bad_choice_and_overflowing_float_messages():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "  tick_s: 1e999\n"   # line 3: overflows, so not a number
        "faults:\n"
        "  kills:\n"
        "    - partition: 0\n"
        "      round: 0\n"
        "      phase: sideways\n"   # line 8: not a kill phase
    )
    messages = {i.line: (i.rule, i.message) for i in validate(parse_text(text))}
    assert sorted(messages) == [3, 8]
    assert messages[3][0] == messages[8][0] == "SCN001"
    assert "`tick_s` in fleet must be a number" in messages[3][1]
    assert "must be one of on-advance, before-ack" in messages[8][1]


def test_config_defaults_track_the_dataclass():
    from repro.fleet.config import FleetConfig

    defaults = config_defaults()
    assert defaults["vehicles"] == FleetConfig().vehicles
    assert defaults["workload"] == FleetConfig().workload


def test_issues_sorted_and_deduplicated():
    text = (
        "fleet:\n"
        "  bogus_a: 1\n"
        "  bogus_b: 2\n"
    )
    issues = validate(parse_text(text))
    assert issues == sorted(issues)
    assert len(issues) == len(set(issues))


# A reported entry is never lowered.  Each document below carries the
# same findings the schema has always given it; the accepted record
# holds none of the entries those findings are against.


def findings_and_accepted(text):
    issues, record = check(parse_text(text))
    return [(i.line, i.rule, i.message) for i in issues], record


def test_duplicate_roster_id_keeps_the_first_entry():
    findings, record = findings_and_accepted(
        "fleet:\n"
        "  vehicles: 2\n"
        "  partitions: 1\n"
        "vehicles:\n"
        "  - id: 0\n"
        "    services: 1\n"
        "  - id: 0\n"          # line 7: the duplicate
        "    services: 3\n"
    )
    assert findings == [
        (7, "SCN003", "duplicate vehicle id 0 (first defined on line 5)"),
    ]
    assert record.roster == {0: {"id": 0, "services": 1}}


def test_vehicles_axis_under_a_roster_is_not_swept():
    findings, record = findings_and_accepted(
        "fleet:\n"
        "  partitions: 1\n"
        "vehicles:\n"
        "  - id: 0\n"
        "  - id: 1\n"
        "sweep:\n"
        "  vehicles: [2, 4]\n"   # line 7
    )
    assert findings == [(
        7, "SCN001",
        "`vehicles` cannot be swept when a vehicle roster pins the fleet size",
    )]
    assert "vehicles" not in record.axes
    assert [cell.name for cell in record.cells()] == ["base"]


def test_out_of_range_kills_are_not_lowered():
    from repro.faults.prockill import KillPhase, KillPlan, WorkerKill

    findings, record = findings_and_accepted(
        "fleet:\n"
        "  vehicles: 4\n"
        "  partitions: 2\n"
        "  duration_s: 6.0\n"
        "faults:\n"
        "  kills:\n"
        "    - partition: 0\n"
        "      round: 1\n"
        "    - partition: 2\n"    # line 9: no cell runs 3 partitions
        "      round: 1\n"
        "    - partition: 1\n"
        "      round: 6\n"        # line 12: no cell runs 7 rounds
    )
    assert findings == [
        (9, "SCN003",
         "kill targets partition 2 but no matrix cell runs more than "
         "2 partitions"),
        (12, "SCN003",
         "kill targets barrier round 6 but no matrix cell runs more than "
         "6 rounds"),
    ]
    assert record.kill_plan == KillPlan(
        kills=(WorkerKill(0, 1, KillPhase.ON_ADVANCE),)
    )
