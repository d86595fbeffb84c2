"""Plan validation error surfaces: every shard violation names its
vehicles, and every malformed plan document names its field."""

import json

import pytest

from repro.fleet.config import FleetConfig, PartitionPlan, validate_shards


def test_shard_count_mismatch():
    with pytest.raises(ValueError, match=r"3 shards for 2 partitions"):
        validate_shards(((0,), (1,), (2,)), vehicles=3, partitions=2)


def test_unknown_vehicle_ids_are_named():
    with pytest.raises(
        ValueError, match=r"unknown vehicle ids \[7, 9\] \(valid ids are 0..3\)"
    ):
        validate_shards(((0, 9), (1, 2, 3, 7)), vehicles=4, partitions=2)


def test_duplicate_vehicle_ids_are_named():
    with pytest.raises(
        ValueError, match=r"ids \[1\] to more than one shard"
    ):
        validate_shards(((0, 1), (1, 2, 3)), vehicles=4, partitions=2)


def test_unassigned_vehicle_ids_are_named():
    with pytest.raises(ValueError, match=r"ids \[2, 3\] unassigned"):
        validate_shards(((0,), (1,)), vehicles=4, partitions=2)


def test_unsorted_shard_rejected():
    with pytest.raises(ValueError, match="sorted"):
        validate_shards(((1, 0), (2, 3)), vehicles=4, partitions=2)


def test_every_violation_is_named_at_once():
    with pytest.raises(ValueError, match=(
        r"unknown vehicle ids \[9\] \(valid ids are 0..3\); "
        r"plan assigns vehicle ids \[1\] to more than one shard$"
    )):
        validate_shards(((0, 1, 9), (1, 2)), vehicles=4, partitions=2)


def test_empty_shard_is_allowed():
    validate_shards(((0, 1, 2, 3), ()), vehicles=4, partitions=2)


def test_fleet_config_surfaces_plan_errors():
    with pytest.raises(ValueError, match=r"unknown vehicle ids \[5\]"):
        FleetConfig(vehicles=4, partitions=2, plan=((0, 1), (2, 5)))
    with pytest.raises(ValueError, match=r"\[3\] unassigned"):
        FleetConfig(vehicles=4, partitions=2, plan=((0, 1), (2,)))


def test_fleet_config_accepts_a_complete_plan():
    config = FleetConfig(vehicles=4, partitions=2, plan=((0, 3), (1, 2)))
    assert config.shards() == [(0, 3), (1, 2)]


GOOD_PLAN = {
    "version": 1, "vehicles": 2, "partitions": 2,
    "shards": [[0], [1]], "costs": [1.0, 2.0],
}


@pytest.mark.parametrize("document, field", [
    ([], "document"),
    ("plan", "document"),
    ({"shards": [[0]]}, "version"),
    ({"version": 1, "shards": [[0]]}, "vehicles"),
    ({**GOOD_PLAN, "version": 7}, "version"),
    ({**GOOD_PLAN, "version": True}, "version"),
    ({k: v for k, v in GOOD_PLAN.items() if k != "vehicles"}, "vehicles"),
    ({**GOOD_PLAN, "vehicles": "2"}, "vehicles"),
    ({**GOOD_PLAN, "vehicles": True}, "vehicles"),
    ({**GOOD_PLAN, "partitions": 2.0}, "partitions"),
    ({k: v for k, v in GOOD_PLAN.items() if k != "shards"}, "shards"),
    ({**GOOD_PLAN, "shards": [0, 1]}, "shards"),
    ({**GOOD_PLAN, "shards": [[0.0], [1]]}, "shards"),
    ({**GOOD_PLAN, "shards": [[False], [1]]}, "shards"),
    ({**GOOD_PLAN, "costs": [1, "x"]}, "costs"),
    ({**GOOD_PLAN, "costs": "1,2"}, "costs"),
])
def test_malformed_plan_documents_name_the_field(document, field, tmp_path):
    with pytest.raises(ValueError, match=field):
        PartitionPlan.from_dict(document)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ValueError, match=field):
        PartitionPlan.load(str(path))


def test_well_formed_plan_document_loads():
    plan = PartitionPlan.from_dict(GOOD_PLAN)
    assert plan.shards == ((0,), (1,))
    assert plan.costs == (1.0, 2.0)
    assert PartitionPlan.from_dict(plan.to_dict()) == plan
