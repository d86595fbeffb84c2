"""Rule-level unit tests: scoping, edge cases, and non-findings."""

import os

from repro.analysis import lint_paths, lint_source
from repro.analysis.rules import UnorderedIterationRule, rules_by_id


def rules_of(finding_list):
    return [f.rule for f in finding_list]


def lint_with(rule_id, source, path="<string>"):
    return lint_source(source, path=path, rules=[rules_by_id()[rule_id]])


# -- DET001 ----------------------------------------------------------------


def test_det001_ignores_sim_clock_and_locals():
    source = "def f(sim, time):\n    return sim.now + time.time\n"
    assert lint_with("DET001", source) == []


def test_det001_import_alias():
    source = "import time as t\nx = t.perf_counter()\n"
    assert rules_of(lint_with("DET001", source)) == ["DET001"]


# -- DET002 ----------------------------------------------------------------


def test_det002_allows_instance_rngs():
    source = (
        "import numpy as np\n"
        "rng = np.random.default_rng(3)\n"
        "x = rng.random()\n"
        "g = np.random.Generator(np.random.PCG64(1))\n"
    )
    assert lint_with("DET002", source) == []


def test_det002_flags_aliased_numpy_random_module():
    source = "from numpy import random as npr\nnpr.shuffle([1, 2])\n"
    assert rules_of(lint_with("DET002", source)) == ["DET002"]


# -- DET003 ----------------------------------------------------------------


def test_det003_scoped_to_scheduling_subsystems():
    source = "for x in set(items):\n    use(x)\n"
    in_scope = lint_with("DET003", source, path="src/repro/offload/executor.py")
    out_of_scope = lint_with("DET003", source, path="src/repro/nn/train.py")
    assert rules_of(in_scope) == ["DET003"]
    assert out_of_scope == []


def test_det003_standalone_files_are_in_scope():
    assert UnorderedIterationRule.SCOPE == {"sim", "offload", "edgeos", "faults"}
    findings = lint_with("DET003", "for x in {1, 2}:\n    pass\n")
    assert rules_of(findings) == ["DET003"]


def test_det003_tracks_self_attributes():
    source = (
        "class Sched:\n"
        "    def __init__(self):\n"
        "        self.ready = set()\n"
        "    def drain(self):\n"
        "        return [t for t in self.ready]\n"
    )
    findings = lint_with("DET003", source, path="src/repro/sim/sched.py")
    assert rules_of(findings) == ["DET003"]


def test_det003_membership_tests_are_fine():
    source = "seen = set()\nif key in seen:\n    pass\n"
    assert lint_with("DET003", source, path="src/repro/sim/x.py") == []


# -- DET004 ----------------------------------------------------------------


def test_det004_sorted_wrapping_accepted_at_any_depth():
    source = (
        "import os\n"
        "a = sorted(os.listdir('.'))\n"
        "b = sorted(n for n in os.listdir('.') if n)\n"
    )
    assert lint_with("DET004", source) == []


def test_det004_sort_on_next_line_still_flagged():
    source = "import os\nnames = os.listdir('.')\nnames.sort()\n"
    assert rules_of(lint_with("DET004", source)) == ["DET004"]


# -- SIM001 ----------------------------------------------------------------


def test_sim001_blocking_only_inside_generators():
    source = (
        "import subprocess\n"
        "def tool():\n"
        "    subprocess.run(['x'])\n"
        "def proc(sim):\n"
        "    subprocess.run(['x'])\n"
        "    yield sim.timeout(1)\n"
    )
    findings = lint_with("SIM001", source)
    assert [(f.line, f.rule) for f in findings] == [(5, "SIM001")]


# -- FLT001 ----------------------------------------------------------------


def test_flt001_ignores_non_timestamp_equality():
    source = "def f(a, b):\n    return a == b and a.kind == b.kind\n"
    assert lint_with("FLT001", source) == []


def test_flt001_chained_comparison():
    source = "def f(sim, t0, t1):\n    return t0 <= sim.now == t1\n"
    assert rules_of(lint_with("FLT001", source)) == ["FLT001"]


# -- RES001 ----------------------------------------------------------------


def test_res001_bound_and_used_exception_passes():
    source = (
        "def f(action, out):\n"
        "    try:\n"
        "        action()\n"
        "    except Exception as err:\n"
        "        out.append(err)\n"
    )
    assert lint_with("RES001", source) == []


def test_res001_bound_but_unused_exception_flagged():
    source = (
        "def f(action):\n"
        "    try:\n"
        "        action()\n"
        "    except Exception as err:\n"
        "        pass\n"
    )
    assert rules_of(lint_with("RES001", source)) == ["RES001"]


# -- API001 ----------------------------------------------------------------


def test_api001_private_and_main_modules_exempt():
    source = "def f():\n    pass\n"
    assert lint_with("API001", source, path="pkg/__main__.py") == []
    assert lint_with("API001", source, path="pkg/_private.py") == []
    assert rules_of(lint_with("API001", source, path="pkg/public.py")) == ["API001"]


def test_api001_conditional_definitions_count():
    source = (
        "__all__ = ['fast', 'slow']\n"
        "try:\n"
        "    import accel\n"
        "    fast = accel.fast\n"
        "except ImportError:\n"
        "    fast = None\n"
        "if True:\n"
        "    slow = 1\n"
    )
    assert lint_with("API001", source, path="pkg/mod.py") == []


def test_api001_computed_all_is_skipped():
    source = "import sys\n__all__ = sorted(dir(sys))\n"
    assert lint_with("API001", source, path="pkg/mod.py") == []


API001_FIXTURES = os.path.join(os.path.dirname(__file__), "api001_fixtures")


def _api001_package(package):
    """API001 findings on a fixture package's ``__init__`` and the line
    its ``# expect: API001`` annotation marks (``None`` when clean)."""
    path = os.path.join(API001_FIXTURES, package, "__init__.py")
    findings = lint_paths([path], rules=[rules_by_id()["API001"]])
    with open(path, encoding="utf-8") as fh:
        expected = [
            lineno for lineno, text in enumerate(fh, start=1)
            if "# expect: API001" in text
        ]
    return [(f.line, f.message) for f in findings], expected


def test_api001_package_all_may_name_its_submodules():
    findings, expected = _api001_package("lazy_clean")
    assert findings == [] and expected == []


def test_api001_package_all_still_flags_a_ghost_submodule():
    findings, expected = _api001_package("lazy_ghost")
    assert findings == [
        (expected[0], "__all__ declares `ghost` but the module never defines it")
    ]


def test_api001_submodules_count_only_in_package_init():
    """A plain module's ``__all__`` cannot claim a neighbouring file."""
    source = "__all__ = ['leaf']\n"
    path = os.path.join(API001_FIXTURES, "lazy_clean", "other.py")
    assert rules_of(lint_with("API001", source, path=path)) == ["API001"]


def test_api001_star_import_disables_ghost_check():
    source = "from os.path import *\n__all__ = ['join', 'made_up']\n"
    assert lint_with("API001", source, path="pkg/mod.py") == []
