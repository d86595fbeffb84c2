"""The YAML-subset loader: values, line numbers, and error reporting."""

import pytest

from repro.scenarios import (
    MappingNode,
    ScalarNode,
    ScenarioSyntaxError,
    SequenceNode,
    parse_text,
)


def test_scalar_types():
    doc = parse_text(
        "a: 1\n"
        "b: 2.5\n"
        "c: true\n"
        "d: false\n"
        "e: null\n"
        "f: ~\n"
        "g: hello world\n"
        "h: 'quoted # not a comment'\n"
        "i: -3\n"
        "j: 1e999\n"
        "k: .inf\n"
    )
    values = {key: node.value for key, node in doc.items()}
    assert values == {
        "a": 1, "b": 2.5, "c": True, "d": False, "e": None, "f": None,
        "g": "hello world", "h": "quoted # not a comment", "i": -3,
        "j": "1e999", "k": ".inf",
    }
    assert isinstance(doc.get("a").value, int)
    assert isinstance(doc.get("b").value, float)


def test_every_node_carries_its_source_line():
    doc = parse_text(
        "top: 1\n"            # line 1
        "block:\n"            # line 2
        "  inner: yes-ish\n"  # line 3
        "items:\n"            # line 4
        "  - 10\n"            # line 5
        "  - 20\n"            # line 6
    )
    assert doc.get("top").line == 1
    assert doc.key_line("block") == 2
    assert doc.get("block").get("inner").line == 3
    seq = doc.get("items")
    assert [item.line for item in seq.items] == [5, 6]


def test_comments_and_blank_lines_are_skipped():
    doc = parse_text(
        "# leading comment\n"
        "\n"
        "key: value  # trailing comment\n"
    )
    assert doc.get("key").value == "value"
    assert doc.get("key").line == 3


def test_nested_mappings_and_sequences():
    doc = parse_text(
        "outer:\n"
        "  seq:\n"
        "    - name: a\n"
        "      size: 1\n"
        "    - name: b\n"
        "      size: 2\n"
    )
    seq = doc.get("outer").get("seq")
    assert isinstance(seq, SequenceNode)
    assert [item.get("name").value for item in seq.items] == ["a", "b"]
    assert [item.get("size").value for item in seq.items] == [1, 2]


def test_flow_sequence_of_scalars():
    doc = parse_text("axis: [1, 2.5, x]\n")
    items = doc.get("axis").items
    assert [item.value for item in items] == [1, 2.5, "x"]


def test_nested_block_sequences():
    doc = parse_text(
        "shards:\n"
        "  - [0, 1]\n"
        "  - [2, 3]\n"
    )
    shards = doc.get("shards")
    assert [[e.value for e in shard.items] for shard in shards.items] == [
        [0, 1], [2, 3],
    ]


def test_duplicate_key_is_an_error_naming_the_first_line():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_text("a: 1\nb: 2\na: 3\n", "dup.yaml")
    assert "dup.yaml:3" in str(err.value)
    assert "line 1" in str(err.value)


def test_tab_indentation_is_an_error():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_text("a:\n\tb: 1\n", "tabs.yaml")
    assert err.value.line == 2


def test_error_carries_path_and_line():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_text("- just a sequence\n", "top.yaml")
    assert err.value.path == "top.yaml"
    assert "top.yaml" in str(err.value)


def test_mapping_node_accessors():
    doc = parse_text("a: 1\nb: 2\n")
    assert isinstance(doc, MappingNode)
    assert "a" in doc and "missing" not in doc
    assert list(doc.keys()) == ["a", "b"]
    assert isinstance(doc.get("a"), ScalarNode)
    assert doc.get("missing") is None
