"""Direct tests for the unit vocabulary, dimension algebra, and checker."""

import ast
import textwrap

from repro.analysis import infer_module_name, parse_name_unit, parse_unit_expr
from repro.analysis.units import (
    SignatureIndex,
    UnitChecker,
    summarize_module,
    unit_pragmas,
)
from repro.scenarios.units import SUFFIX_UNITS, Unit


def _check(source, module="mod", extra=()):
    """Summarize + unit-check one in-memory module; returns findings."""
    source = textwrap.dedent(source)
    summaries = []
    for name, text in ((module, source),) + tuple(extra):
        text = textwrap.dedent(text)
        summaries.append(
            summarize_module(
                f"{name}.py", text, tree=ast.parse(text), module_name=name
            )
        )
    index = SignatureIndex(summaries)
    checker = UnitChecker(index)
    return checker.check_module(
        summaries[0], source, ast.parse(source)
    )


# ---------------------------------------------------------------- vocabulary


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
    wh_per_km = parse_name_unit("consumption_wh_per_km")
    assert wh_per_km is not None
    energy_per_length = SUFFIX_UNITS["joules"].div(SUFFIX_UNITS["m"])
    assert wh_per_km.same_dimension(energy_per_length)


def test_unparseable_compound_does_not_match_its_tail():
    # kpa is not in the vocabulary; the trailing "s" of kpa_per_s must not
    # be read as "seconds".
    assert parse_name_unit("pressure_kpa_per_s") is None


def test_short_tokens_need_underscore_context():
    assert parse_name_unit("s") is None  # bare single letter: too ambiguous
    assert parse_name_unit("items") is None  # no unit token at a boundary
    assert parse_name_unit("mass") is None  # "s" inside a word is not a unit


# ------------------------------------------------------------------- algebra


def test_dimension_algebra_composes():
    joules = SUFFIX_UNITS["joules"]
    seconds = SUFFIX_UNITS["s"]
    watts = SUFFIX_UNITS["watts"]
    assert joules.div(seconds).same_dimension(watts)
    assert joules.div(seconds).same_scale(watts)
    assert watts.mul(seconds).same_dimension(joules)
    assert seconds.pow(2).div(seconds).same_dimension(seconds)


def test_unanchored_units_keep_dimension_but_forget_scale():
    ms = SUFFIX_UNITS["ms"]
    loose = ms.unanchored()
    assert loose.same_dimension(ms)
    assert loose.scale is None


def test_parse_unit_expr_slash_and_dimensionless():
    assert parse_unit_expr("bytes/s").same_dimension(
        SUFFIX_UNITS["bytes"].div(SUFFIX_UNITS["s"])
    )
    assert parse_unit_expr("1").dimensionless
    assert parse_unit_expr("dimensionless").dimensionless
    assert parse_unit_expr("furlongs") is None


def test_unit_pragmas_map_lines():
    pragmas = unit_pragmas("x = 1.0  # unit: s\ny = 2.0\nz = 3.0  # unit: mb\n")
    assert set(pragmas) == {1, 3}
    assert pragmas[1].same_scale(SUFFIX_UNITS["s"])
    assert pragmas[3].same_dimension(SUFFIX_UNITS["bytes"])


# ------------------------------------------------------------------- checker


def test_unit001_mixed_dimension_add():
    findings = _check(
        """
        def f(latency_s, payload_bytes):
            return latency_s + payload_bytes
        """
    )
    assert [f.rule for f in findings] == ["UNIT001"]


def test_unit001_scale_mix_within_dimension():
    findings = _check(
        """
        def f(net_ms, compute_s):
            return net_ms + compute_s
        """
    )
    assert [f.rule for f in findings] == ["UNIT001"]


def test_unit001_silent_on_matching_scales():
    findings = _check(
        """
        def f(up_s, down_s):
            return up_s + down_s
        """
    )
    assert findings == []


def test_unit001_compare_mixed_dimensions():
    findings = _check(
        """
        def f(deadline_s, budget_joules):
            return deadline_s > budget_joules
        """
    )
    assert [f.rule for f in findings] == ["UNIT001"]


def test_division_produces_a_rate_cleanly():
    findings = _check(
        """
        def f(energy_joules, window_s, draw_watts):
            power = energy_joules / window_s
            return power + draw_watts
        """
    )
    assert findings == []


def test_unit003_bare_nonzero_literal():
    findings = _check(
        """
        def f():
            timeout_s = 30.0
            return timeout_s
        """
    )
    assert [f.rule for f in findings] == ["UNIT003"]


def test_unit003_skips_zero_and_pragma_and_top_level():
    findings = _check(
        """
        DEFAULT_S = 30.0

        def f():
            a_s = 0.0
            b_s = 30.0  # unit: s
            return a_s + b_s
        """
    )
    assert findings == []


def test_unit003_pragma_with_wrong_dimension_still_fires():
    findings = _check(
        """
        def f():
            timeout_s = 30.0  # unit: bytes
            return timeout_s
        """
    )
    assert [f.rule for f in findings] == ["UNIT003"]


def test_unit002_cross_module_argument():
    findings = _check(
        """
        from lib import eta

        def f(window_s):
            return eta(window_s)
        """,
        extra=(
            (
                "lib",
                """
                def eta(payload_bytes):
                    return payload_bytes / 1e6
                """,
            ),
        ),
    )
    assert [f.rule for f in findings] == ["UNIT002"]
    assert "eta" in findings[0].message


def test_unit002_keyword_argument():
    findings = _check(
        """
        from lib import eta

        def f(window_s):
            return eta(payload_bytes=window_s)
        """,
        extra=(
            (
                "lib",
                """
                def eta(payload_bytes):
                    return payload_bytes / 1e6
                """,
            ),
        ),
    )
    assert [f.rule for f in findings] == ["UNIT002"]


def test_unit002_resolves_a_lazy_package_reexport():
    # A lazy package lists its re-exports under ``if TYPE_CHECKING:``;
    # the index still follows them to the defining submodule.
    sources = {
        ("mod", "mod.py"): """
            from pkg import eta

            def f(window_s):
                return eta(window_s)
            """,
        ("pkg", "pkg/__init__.py"): """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from .lib import eta

            __all__ = ["eta"]
            """,
        ("pkg.lib", "pkg/lib.py"): """
            def eta(payload_bytes):
                return payload_bytes / 1e6
            """,
    }
    summaries = []
    for (name, path), text in sources.items():
        text = textwrap.dedent(text)
        summaries.append(summarize_module(path, text, tree=ast.parse(text),
                                          module_name=name))
    index = SignatureIndex(summaries)
    assert index.resolve_qualname("pkg.eta") == "pkg.lib.eta"
    source = textwrap.dedent(sources[("mod", "mod.py")])
    findings = UnitChecker(index).check_module(
        summaries[0], source, ast.parse(source)
    )
    assert [f.rule for f in findings] == ["UNIT002"]


def test_transparent_builtins_pass_units_through():
    findings = _check(
        """
        def f(a_s, b_s, payload_bytes):
            return max(a_s, b_s) + payload_bytes
        """
    )
    assert [f.rule for f in findings] == ["UNIT001"]


def test_infer_module_name_walks_packages(tmp_path):
    def write(rel):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
        return str(path)

    write("pkg/__init__.py")
    init = write("pkg/sub/__init__.py")
    assert infer_module_name(write("pkg/sub/mod.py")) == "pkg.sub.mod"
    assert infer_module_name(init) == "pkg.sub"
    assert infer_module_name(write("script.py")) == "script"
