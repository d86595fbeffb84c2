"""Declarative fleet scenarios: config files with static guarantees.

The scenario DSL (ROADMAP item 3) turns fleet experiments from Python
into data: one file describes the fleet geometry, driver styles, service
mixes, link parameters, fault plans, partition plans, and a ``sweep:``
matrix -- and the static tier (:mod:`repro.analysis.scenario`, behind
``vdaplint --scenarios``) proves it well-formed, unit-consistent,
reference-closed, barrier-feasible, and within budget *before the first
sim event fires*.

Layers, bottom-up:

* :mod:`.yamlish` -- the zero-dependency YAML-subset loader whose every
  node remembers its source line (what makes findings point at files);
* :mod:`.units` -- the unit vocabulary: name suffixes such as ``_s``
  or ``_mbps`` parsed into a dimension and scale;
* :mod:`.schema` -- the document schema: field tables, the checks a
  document alone can fail, deterministic ``sweep:`` cell expansion;
* :mod:`.compiler` -- lowering into :class:`~repro.fleet.config.
  FleetConfig` cells (byte-identical traces to hand-built configs),
  with each ``FleetConfig`` refusal anchored at its key;
  :func:`validate` returns the schema's and the lowering's issues
  together;
* :mod:`.runner` -- matrix execution through the fleet substrate, with
  per-cell reference hash checks.

``python -m repro.scenarios`` runs, checks, and expands scenario files
from the command line.
"""

from .compiler import (
    CompiledCell,
    Scenario,
    ScenarioError,
    compile_text,
    load_scenario,
    validate,
)
from .runner import CellOutcome, MODES, run_cell, run_matrix
from .schema import Issue
from .yamlish import (
    MappingNode,
    ScalarNode,
    ScenarioSyntaxError,
    SequenceNode,
    parse_file,
    parse_text,
)

__all__ = [
    "CellOutcome",
    "CompiledCell",
    "Issue",
    "MODES",
    "MappingNode",
    "ScalarNode",
    "Scenario",
    "ScenarioError",
    "ScenarioSyntaxError",
    "SequenceNode",
    "compile_text",
    "load_scenario",
    "parse_file",
    "parse_text",
    "run_cell",
    "run_matrix",
    "validate",
]
