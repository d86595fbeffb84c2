"""The unit vocabulary SCN002 reads: name suffixes to dimension and scale."""

from repro.scenarios.units import SUFFIX_UNITS, split_name_unit


def test_suffix_vocabulary_parses_common_names():
    assert split_name_unit("deadline_s")[1].same_scale(SUFFIX_UNITS["s"])
    assert split_name_unit("latency_ms")[1].same_dimension(SUFFIX_UNITS["s"])
    assert not split_name_unit("latency_ms")[1].same_scale(SUFFIX_UNITS["s"])
    assert split_name_unit("payload_bytes")[1].same_scale(SUFFIX_UNITS["bytes"])
    assert split_name_unit("draw_watts")[1].same_scale(SUFFIX_UNITS["watts"])
    assert split_name_unit("rate_mbps")[1].same_dimension(SUFFIX_UNITS["bps"])


def test_gop_is_a_count_and_gops_is_a_rate():
    gop = split_name_unit("work_gop")[1]
    gops = split_name_unit("speed_gops")[1]
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
    assert split_name_unit("pressure_kpa_per_s")[1] is None
    assert split_name_unit("rate_mbps_per") == ("rate_mbps_per", None)


def test_short_tokens_need_underscore_context():
    assert split_name_unit("s")[1] is None  # bare single letter: too ambiguous
    assert split_name_unit("items")[1] is None  # no unit token at a boundary
    assert split_name_unit("mass")[1] is None  # "s" inside a word is not a unit
