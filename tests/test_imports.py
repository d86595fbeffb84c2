"""Import hygiene: importing a runtime subpackage loads only what it uses.

``repro/__init__`` binds its subpackages lazily (PEP 562), the runtime
never imports the ``vdaplint`` linter, and nothing imports networkx or
scipy.  Each case runs in a fresh interpreter, since this test process
has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(statement):
    """Names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter, starting from the modules it had before."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return set(json.loads(out))


def test_import_repro_loads_only_the_package():
    repro_modules = {
        name for name in loaded_after("import repro")
        if name.split(".")[0] == "repro"
    }
    assert repro_modules == {"repro"}


@pytest.mark.parametrize("statement, absent", [
    ("import repro.fleet",
     ("repro.analysis", "repro.scenarios", "networkx", "scipy")),
    ("import repro.net, repro.vision, repro.scenario",
     ("networkx", "repro.analysis")),
    ("import repro.scenarios", ("repro.analysis",)),
])
def test_runtime_imports_leave_linter_and_graph_libraries_out(statement, absent):
    loaded = loaded_after(statement)
    assert not loaded & set(absent), sorted(loaded & set(absent))


def test_attribute_access_and_star_import_bind_every_name():
    names = sorted(set(repro.__all__) - {"__version__"})
    bound = loaded_after(
        "import repro\n"
        "assert repro.sim is sys.modules['repro.sim']\n"
        "assert not hasattr(repro, 'no_such_subpackage')\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        f"assert sorted(set(namespace) - {{'__builtins__', '__version__'}}) == {names!r}\n"
    )
    assert {f"repro.{name}" for name in names} <= bound
