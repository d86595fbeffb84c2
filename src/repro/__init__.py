"""OpenVDAP reproduction: an Open Vehicular Data Analytics Platform for CAVs.

A full-stack, simulation-backed reproduction of Zhang et al., ICDCS 2018:

* :mod:`repro.sim` -- deterministic discrete-event kernel
* :mod:`repro.hw` / :mod:`repro.net` / :mod:`repro.topology` -- hardware,
  network, and mobility substrates
* :mod:`repro.nn` / :mod:`repro.vision` -- numpy deep-learning and
  computer-vision substrates
* :mod:`repro.vcu` -- the heterogeneous vehicle computing unit (mHEP + DSF)
* :mod:`repro.offload` -- task graphs and offloading strategies
* :mod:`repro.edgeos` -- EdgeOSv: elastic management, security, privacy,
  data sharing
* :mod:`repro.ddi` -- the driving data integrator
* :mod:`repro.faults` -- deterministic fault injection + the executor's retry policy
* :mod:`repro.fleet` -- crash-tolerant partitioned multi-process simulation
* :mod:`repro.libvdap` -- the open application library (models, pBEAM, API)
* :mod:`repro.apps` -- the four in-vehicle service classes + V2V collab
* :mod:`repro.obs` -- deterministic observability: metric registry, span
  tracer (Chrome-trace export), benchmark reports
* :mod:`repro.workloads` -- workload generators
* :mod:`repro.scenarios` -- the declarative scenario DSL + compiler
* :mod:`repro.analysis` -- the ``vdaplint`` determinism & safety linter

Subpackages load on first attribute access (PEP 562), so importing one
of them pays only for what it imports itself.  The packages that
re-export their submodules' names do the same through
:func:`_lazy_exports`: a package import is free, and a name loads only
its own submodule.
"""

import importlib
import sys
from typing import TYPE_CHECKING

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "analysis",
    "apps",
    "ddi",
    "edgeos",
    "faults",
    "fleet",
    "hw",
    "libvdap",
    "net",
    "nn",
    "obs",
    "offload",
    "scenario",
    "scenarios",
    "sim",
    "topology",
    "vcu",
    "vision",
    "workloads",
]


def _lazy_exports(package: str):
    """PEP 562 ``__getattr__`` and ``__dir__`` serving ``package``'s
    re-exports on demand.

    A package lists what it re-exports once, as relative imports under
    ``if TYPE_CHECKING:``, where type checkers and vdaplint read them.
    The first lookup of a name the package does not hold reads that
    block from the package's source; each name then imports only its
    own submodule and is bound into the package, so a second lookup
    never comes back here.  ``from . import sub`` makes submodule
    ``sub`` itself lazy.
    """
    module = sys.modules[package]
    origins: dict[str, tuple[str, str | None]] = {}

    def load_origins() -> dict[str, tuple[str, str | None]]:
        if not origins:
            origins.update(_type_checking_imports(module.__file__))
        return origins

    def __getattr__(name: str):
        try:
            submodule, attribute = load_origins()[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = importlib.import_module(submodule, package)
        if attribute is not None:
            value = getattr(value, attribute)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(module)) | set(load_origins()))

    return __getattr__, __dir__


def _type_checking_imports(path: str) -> dict[str, tuple[str, str | None]]:
    """``{name: (".submodule", attribute or None)}`` for each relative
    import under the top-level ``if TYPE_CHECKING:`` of the file at ``path``."""
    import ast

    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    origins: dict[str, tuple[str, str | None]] = {}
    for block in tree.body:
        if not (isinstance(block, ast.If) and isinstance(block.test, ast.Name)
                and block.test.id == "TYPE_CHECKING"):
            continue
        for stmt in block.body:
            if not (isinstance(stmt, ast.ImportFrom) and stmt.level == 1):
                continue
            for alias in stmt.names:
                if stmt.module is None:
                    origins[alias.asname or alias.name] = (f".{alias.name}", None)
                else:
                    origins[alias.asname or alias.name] = (f".{stmt.module}", alias.name)
    return origins


if TYPE_CHECKING:
    from . import analysis, apps, ddi, edgeos, faults, fleet, hw, libvdap
    from . import net, nn, obs, offload, scenario, scenarios, sim, topology
    from . import vcu, vision, workloads

__getattr__, __dir__ = _lazy_exports(__name__)
