"""Engine mechanics: pragmas, qualname resolution, E999."""

import ast

from repro.analysis import (
    Finding,
    LintEngine,
    Rule,
    lint_source,
)
from repro.analysis.engine import FileContext, PARSE_ERROR_RULE


class _EveryCall(Rule):
    """Test rule: reports every call site (exercises dispatch + pragmas)."""

    id = "TST001"
    name = "every-call"
    description = "flags every call"

    def visit_Call(self, node, ctx):
        ctx.report(self, node, "a call")


def test_single_pass_dispatch_reaches_nested_nodes():
    source = "def f():\n    g()\n    return [h() for _ in range(2)]\n"
    findings = lint_source(source, rules=[_EveryCall()])
    assert [f.line for f in findings] == [2, 3, 3]
    assert all(f.rule == "TST001" for f in findings)


def test_line_pragma_suppresses_only_named_rule():
    source = "f()  # vdaplint: disable=TST001\ng()  # vdaplint: disable=OTHER\n"
    findings = lint_source(source, rules=[_EveryCall()])
    assert [(f.line, f.rule) for f in findings] == [(2, "TST001")]


def test_disable_all_pragma():
    source = "f()  # vdaplint: disable=all\n"
    assert lint_source(source, rules=[_EveryCall()]) == []


def test_file_pragma_suppresses_everywhere():
    source = "# vdaplint: disable-file=TST001\nf()\ng()\n"
    assert lint_source(source, rules=[_EveryCall()]) == []


def test_syntax_error_becomes_e999_finding():
    findings = lint_source("def broken(:\n", rules=[_EveryCall()])
    assert len(findings) == 1
    assert findings[0].rule == PARSE_ERROR_RULE


def test_qualname_resolves_aliases_and_from_imports():
    resolved = []

    class Probe(Rule):
        id = "TST003"
        name = "probe"
        description = "records each call's resolved name"

        def visit_Call(self, node, ctx):
            resolved.append(ctx.qualname(node.func))

    # The walk gathers every import before any visitor runs, so a call
    # above the import that binds its name resolves too.
    source = (
        "def late():\n    mono()\n"
        "import numpy as np\nfrom time import monotonic as mono\n"
        "np.random.seed(0)\n"
    )
    LintEngine([Probe()]).lint_source(source)
    assert sorted(resolved) == ["numpy.random.seed", "time.monotonic"]


def test_subsystem_detection():
    tree = ast.parse("pass")
    assert FileContext("src/repro/edgeos/elastic.py", "", tree).subsystem == "edgeos"
    assert FileContext("src/repro/scenario.py", "", tree).subsystem is None
    assert FileContext("standalone.py", "", tree).subsystem is None


def test_in_generator_tracks_innermost_function():
    seen = {}

    class Probe(Rule):
        id = "TST002"
        name = "probe"
        description = "records generator context per call"

        def visit_Call(self, node, ctx):
            seen[node.func.id] = ctx.in_generator()

    source = (
        "def gen():\n"
        "    inside()\n"
        "    yield 1\n"
        "def plain():\n"
        "    outside()\n"
        "def outer():\n"
        "    def nested_gen():\n"
        "        deep()\n"
        "        yield 2\n"
        "    shallow()\n"
    )
    LintEngine([Probe()]).lint_source(source)
    assert seen == {
        "inside": True,
        "outside": False,
        "deep": True,
        "shallow": False,
    }


def test_findings_sort_stably():
    a = Finding("b.py", 1, 0, "R1", "m")
    b = Finding("a.py", 9, 0, "R1", "m")
    c = Finding("a.py", 2, 4, "R2", "m")
    assert sorted([a, b, c]) == [c, b, a]
