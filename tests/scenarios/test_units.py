"""The unit vocabulary SCN002 reads: name suffixes to dimension and scale."""

from repro.scenarios.units import SUFFIX_UNITS, parse_name_unit, split_name_unit


def test_suffix_vocabulary_parses_common_names():
    assert parse_name_unit("deadline_s").same_scale(SUFFIX_UNITS["s"])
    assert parse_name_unit("latency_ms").same_dimension(SUFFIX_UNITS["s"])
    assert not parse_name_unit("latency_ms").same_scale(SUFFIX_UNITS["s"])
    assert parse_name_unit("payload_bytes").same_scale(SUFFIX_UNITS["bytes"])
    assert parse_name_unit("draw_watts").same_scale(SUFFIX_UNITS["watts"])
    assert parse_name_unit("rate_mbps").same_dimension(SUFFIX_UNITS["bps"])


def test_gop_is_a_count_and_gops_is_a_rate():
    gop = parse_name_unit("work_gop")
    gops = parse_name_unit("speed_gops")
    assert gop.same_dimension(SUFFIX_UNITS["op"])
    assert gops.same_dimension(SUFFIX_UNITS["flops"])
    assert not gop.same_dimension(gops)


def test_compound_per_suffix():
    stem, wh_per_km = split_name_unit("consumption_wh_per_km")
    assert stem == "consumption"
    energy_per_length = SUFFIX_UNITS["joules"].div(SUFFIX_UNITS["m"])
    assert wh_per_km.same_dimension(energy_per_length)
    assert not wh_per_km.same_scale(energy_per_length)
    watts = SUFFIX_UNITS["joules"].div(SUFFIX_UNITS["s"])
    assert watts.same_dimension(SUFFIX_UNITS["watts"])
    assert watts.same_scale(SUFFIX_UNITS["watts"])
    assert watts.render() == "watt"


def test_unparseable_compound_does_not_match_its_tail():
    # kpa is not in the vocabulary; the trailing "s" of kpa_per_s must not
    # be read as "seconds".
    assert parse_name_unit("pressure_kpa_per_s") is None
    assert split_name_unit("rate_mbps_per") == ("rate_mbps_per", None)


def test_short_tokens_need_underscore_context():
    assert parse_name_unit("s") is None  # bare single letter: too ambiguous
    assert parse_name_unit("items") is None  # no unit token at a boundary
    assert parse_name_unit("mass") is None  # "s" inside a word is not a unit
