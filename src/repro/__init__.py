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
* :mod:`repro.faults` -- deterministic fault injection + resilience primitives
* :mod:`repro.fleet` -- crash-tolerant partitioned multi-process simulation
* :mod:`repro.libvdap` -- the open application library (models, pBEAM, API)
* :mod:`repro.apps` -- the four in-vehicle service classes + V2V collab
* :mod:`repro.obs` -- deterministic observability: metric registry, span
  tracer (Chrome-trace export), benchmark reports
* :mod:`repro.workloads` -- workload generators
* :mod:`repro.scenarios` -- the declarative scenario DSL + compiler
* :mod:`repro.analysis` -- the ``vdaplint`` determinism & safety linter

Subpackages load on first attribute access (PEP 562), so importing one
of them pays only for what it imports itself.
"""

import importlib

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


def __getattr__(name: str):
    """Import ``repro.<name>`` the first time it is looked up."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
