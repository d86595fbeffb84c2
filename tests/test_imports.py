"""Import hygiene: importing a runtime subpackage loads only what it uses.

``repro/__init__`` binds its subpackages lazily (PEP 562), and so do the
packages that re-export their submodules' names: a package import is
free, and a name loads only its own submodule.  The runtime never
imports the ``vdaplint`` linter, and nothing imports networkx or scipy.
Each case runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(statement, setup=""):
    """Names in ``sys.modules`` after ``statement`` runs in a fresh
    interpreter, starting from the modules it had after ``setup``."""
    script = (
        "import json, sys\n"
        f"{setup}\n"
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


#: Packages whose ``__init__`` serves its names through ``_lazy_exports``.
LAZY_PACKAGES = (
    "repro",
    "repro.apps",
    "repro.ddi",
    "repro.edgeos",
    "repro.faults",
    "repro.net",
    "repro.nn",
    "repro.obs",
    "repro.offload",
    "repro.vision",
    "repro.workloads",
)

#: What a fleet build never runs: the paper-only stacks, the other apps,
#: the streaming stack and the EdgeOSv security layer.
NOT_ON_THE_FLEET_PATH = (
    "repro.vision",
    "repro.nn",
    "repro.ddi",
    "repro.apps.amber",
    "repro.net.streaming",
    "repro.edgeos.security",
)

FLEET_SETUP = (
    "from repro.fleet import FleetConfig, PartitionRuntime, run_inline\n"
    "config = FleetConfig(seed=1, vehicles=4, partitions=2, duration_s=2.0,"
    " workload='skewed')\n"
    "PartitionRuntime(config.spec_for(0).disarmed()).launch()\n"
)


def test_fleet_import_leaves_the_paper_only_stacks_out():
    loaded = loaded_after(FLEET_SETUP)
    assert not loaded & set(NOT_ON_THE_FLEET_PATH), sorted(
        loaded & set(NOT_ON_THE_FLEET_PATH))
    assert "multiprocessing" not in loaded


def test_a_fleet_run_loads_nothing_its_setup_did_not():
    # Set-up work was removed, not moved into the run.
    later = loaded_after("run_inline(config)", setup=FLEET_SETUP)
    assert not {name for name in later if name.startswith("repro")}


def test_lazy_packages_bind_every_name_once():
    checked = loaded_after(
        "import importlib\n"
        "calls = []\n"
        f"for name in {LAZY_PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    lookup = vars(package)['__getattr__']\n"
        "    def counting(attr, lookup=lookup, name=name):\n"
        "        calls.append((name, attr))\n"
        "        return lookup(attr)\n"
        "    package.__getattr__ = counting\n"
        "    namespace = {}\n"
        "    exec(f'from {name} import *', namespace)\n"
        "    exported = set(package.__all__)\n"
        "    assert exported <= set(namespace), sorted(exported - set(namespace))\n"
        "    first = len(calls)\n"
        "    for attr in package.__all__:\n"
        "        assert getattr(package, attr) is namespace[attr], attr\n"
        "    assert len(calls) == first, calls[first:]\n"
        "    assert exported <= set(dir(package))\n"
    )
    assert set(LAZY_PACKAGES) <= checked
