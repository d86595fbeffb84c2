"""Fleet planner: FLEET barrier-safety rules + plan emission.

The ``--plan`` entry point.  It builds on the communication graph /
lookahead proof (:mod:`~repro.analysis.commgraph`) and yields two
products:

* **FLEET rules** (:class:`FleetPlanAnalyzer`), graph-level barrier
  geometry checks that need no AST visitors of their own:

  * **FLEET001** -- a call site configures ``barrier_s=`` larger than
    the lookahead bound the site can prove (the site's own latency
    keyword if it carries one, else the tree-wide provable lookahead):
    conservative sync would deliver envelopes into a partition's past
    and per-vehicle trace hashes diverge between partition layouts;
  * **FLEET002** -- a cross-partition send edge whose link latency is
    zero or statically unresolvable: the lookahead proof fails, so the
    barrier step has no safe positive value (stall/deadlock risk);
  * **FLEET003** -- a sim process reaches a *barrier-only* delivery
    entry point (``V2VBus.deliver``/``drain_outbox``) directly: the
    message bypasses the coordinator's canonical envelope exchange and
    its partition-invariant delivery order.

* **Plan emission** (:func:`emit_plan` / :func:`plan_for_config`):
  greedy-LPT shards balanced on *measured* per-vehicle costs
  (:func:`vehicle_costs`: kernel events each vehicle fires in a short
  inline probe run), wrapped in a
  :class:`~repro.fleet.config.PartitionPlan` JSON document stamped with
  the proved lookahead, for ``FleetConfig.plan`` to execute.

The fleet package imports this package's sanitizer, so everything from
``repro.fleet`` is imported lazily inside the emission functions.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Iterable, Optional

from .callgraph import ProjectGraph, build_graph
from .commgraph import CommGraph, is_latency_name
from .engine import Finding, Pragmas, Rule

__all__ = [
    "FLEET_RULE_CLASSES",
    "FleetPlanAnalyzer",
    "PROBE_HORIZON_S",
    "emit_plan",
    "fleet_rules",
    "fleet_rules_by_id",
    "parse_fleet_spec",
    "plan_for_config",
    "vehicle_costs",
]

#: The analyzed tree when the caller does not pick one: this package.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EPS = 1e-9


class BarrierExceedsLookahead(Rule):
    """A configured barrier step the lookahead proof cannot cover."""

    id = "FLEET001"
    name = "barrier-exceeds-lookahead"
    description = (
        "a call site configures barrier_s= beyond the provable "
        "cross-partition lookahead; envelopes become due in a "
        "partition's past and trace hashes diverge"
    )


class UnboundedCrossPartitionEdge(Rule):
    """A cross-partition send edge with no usable latency bound."""

    id = "FLEET002"
    name = "unbounded-cross-partition-edge"
    description = (
        "a cross-partition send edge carries a zero or statically "
        "unresolvable link latency, so conservative sync has no safe "
        "barrier step (stall/deadlock risk)"
    )


class BarrierExchangeBypass(Rule):
    """A sim process delivering cross-partition traffic directly."""

    id = "FLEET003"
    name = "barrier-exchange-bypass"
    description = (
        "a sim process reaches a barrier-only delivery entry point "
        "directly, bypassing the coordinator's canonical envelope "
        "exchange and its partition-invariant delivery order"
    )


FLEET_RULE_CLASSES: tuple[type[Rule], ...] = (
    BarrierExceedsLookahead,
    UnboundedCrossPartitionEdge,
    BarrierExchangeBypass,
)


def fleet_rules() -> list[Rule]:
    """One instance of every FLEET rule."""
    return [cls() for cls in FLEET_RULE_CLASSES]


def fleet_rules_by_id() -> dict[str, Rule]:
    """The FLEET catalogue keyed by rule id."""
    return {rule.id: rule for rule in fleet_rules()}


class FleetPlanAnalyzer:
    """Run the FLEET pack over a project graph's communication graph.

    The rules are graph-level (no per-node visitors): each check walks
    the extracted :class:`CommGraph` edges or the call-site table, so
    one analyzer pass covers every file at once.  Findings honor the
    same ``# vdaplint:`` pragmas as the AST packs.
    """

    def __init__(self, graph: ProjectGraph,
                 rules: Optional[Iterable[Rule]] = None):
        self.graph = graph
        selected = fleet_rules() if rules is None else list(rules)
        self.rules: dict[str, Rule] = {rule.id: rule for rule in selected}

    def analyze(self, comm: Optional[CommGraph] = None) -> list[Finding]:
        comm = comm if comm is not None else CommGraph(self.graph)
        findings: list[Finding] = []
        if "FLEET001" in self.rules:
            findings.extend(self._barrier_overruns(comm))
        if "FLEET002" in self.rules:
            findings.extend(self._unbounded_edges(comm))
        if "FLEET003" in self.rules:
            findings.extend(self._barrier_bypasses(comm))
        unique: dict[tuple, Finding] = {}
        for finding in findings:
            key = (finding.path, finding.line, finding.col, finding.rule)
            unique.setdefault(key, finding)
        ordered = sorted(unique.values(),
                         key=lambda f: (f.path, f.line, f.col, f.rule))
        return self._apply_pragmas(ordered)

    # -- FLEET001 ----------------------------------------------------------

    def _barrier_overruns(self, comm: CommGraph) -> list[Finding]:
        out: list[Finding] = []
        lookahead_s, _ = comm.lookahead()
        resolver = comm.resolver
        for caller in sorted(self.graph.calls):
            caller_info = self.graph.functions.get(caller)
            if caller_info is not None:
                module = self.graph.modules.get(caller_info.module)
            else:
                module = self.graph.modules.get(caller.split("#", 1)[0])
            for site in self.graph.calls[caller]:
                node = site.node
                if node is None:
                    continue
                barrier_kw = next(
                    (kw for kw in node.keywords if kw.arg == "barrier_s"),
                    None,
                )
                if barrier_kw is None:
                    continue
                value = resolver.resolve_expr(
                    barrier_kw.value, module, caller_info
                )
                if value is None:
                    continue  # runtime-chosen step: FleetConfig re-checks it
                # A site that also fixes its own link latency proves a
                # tighter, local bound; otherwise the tree-wide proof.
                local = [
                    resolver.resolve_expr(kw.value, module, caller_info)
                    for kw in node.keywords
                    if kw.arg is not None
                    and kw.arg != "barrier_s"
                    and "latency" in kw.arg
                    and is_latency_name(kw.arg)
                ]
                local = [v for v in local if v is not None]
                if local:
                    bound, source = min(local), "the site's own link latency"
                else:
                    bound, source = lookahead_s, "the provable min link latency"
                if bound is None or value <= bound + _EPS:
                    continue
                out.append(self._finding(
                    "FLEET001",
                    site.path, site.line, site.col,
                    f"barrier_s={value:g} exceeds {source} ({bound:g}s): "
                    "conservative sync can deliver envelopes into a "
                    "partition's past and trace hashes diverge",
                ))
        return out

    # -- FLEET002 ----------------------------------------------------------

    def _unbounded_edges(self, comm: CommGraph) -> list[Finding]:
        out: list[Finding] = []
        for edge in comm.send_edges():
            if edge.latency_s is None:
                out.append(self._finding(
                    "FLEET002",
                    edge.path, edge.line, edge.col,
                    f"cross-partition {edge.kind} via `{edge.sink}` carries "
                    "a statically unresolvable link latency; the lookahead "
                    "proof fails, so no barrier step is provably safe",
                ))
            elif edge.latency_s <= 0:
                out.append(self._finding(
                    "FLEET002",
                    edge.path, edge.line, edge.col,
                    f"zero-latency cross-partition {edge.kind} via "
                    f"`{edge.sink}`: conservative sync needs a positive "
                    "lookahead and cannot advance (deadlock)",
                ))
        return out

    # -- FLEET003 ----------------------------------------------------------

    def _barrier_bypasses(self, comm: CommGraph) -> list[Finding]:
        out: list[Finding] = []
        for edge in comm.edges:
            if not edge.barrier_only:
                continue
            out.append(self._finding(
                "FLEET003",
                edge.path, edge.line, edge.col,
                f"sim process `{edge.root}` reaches barrier-only "
                f"`{edge.sink}` directly; cross-partition delivery must go "
                "through the coordinator's envelope exchange to keep "
                "delivery order partition-invariant",
            ))
        return out

    # -- plumbing ----------------------------------------------------------

    def _finding(self, rule_id: str, path: str, line: int, col: int,
                 message: str) -> Finding:
        module = self.graph.modules_by_path().get(path)
        snippet = ""
        if module is not None:
            lines = module.source.splitlines()
            if 1 <= line <= len(lines):
                snippet = lines[line - 1].strip()
        return Finding(path=path, line=line, col=col, rule=rule_id,
                       message=message, snippet=snippet)

    def _apply_pragmas(self, findings: list[Finding]) -> list[Finding]:
        by_path = self.graph.modules_by_path()
        pragmas: dict[str, Pragmas] = {}
        kept = []
        for finding in findings:
            module = by_path.get(finding.path)
            if module is not None:
                if finding.path not in pragmas:
                    pragmas[finding.path] = Pragmas(module.source)
                if pragmas[finding.path].suppressed(finding.line, finding.rule):
                    continue
            kept.append(finding)
        return kept


# -- plan emission ---------------------------------------------------------

#: ``--plan-fleet`` spec vocabulary: key -> (FleetConfig kwarg, parser).
#: Deliberately excludes the latency/barrier geometry -- those come from
#: the config's defaults so the planner's own FleetConfig construction
#: never injects an unprovable link latency into the tree it analyzes.
_FLEET_SPEC_KEYS: dict[str, tuple[str, type]] = {
    "vehicles": ("vehicles", int),
    "partitions": ("partitions", int),
    "seed": ("seed", int),
    "duration": ("duration_s", float),
    "workload": ("workload", str),
}

_FLEET_SPEC_DEFAULTS: dict[str, object] = {
    "vehicles": 8,
    "partitions": 4,
    "seed": 0,
    "duration_s": 30.0,
    "workload": "uniform",
}


def parse_fleet_spec(spec: str) -> dict:
    """``"vehicles=8,partitions=4,seed=17,duration=30,workload=skewed"``
    -> FleetConfig keyword dict (unspecified keys keep planner defaults).
    """
    settings = dict(_FLEET_SPEC_DEFAULTS)
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, sep, raw = part.partition("=")
        entry = _FLEET_SPEC_KEYS.get(key.strip())
        if not sep or entry is None:
            known = ", ".join(sorted(_FLEET_SPEC_KEYS))
            raise ValueError(
                f"bad fleet spec item {part!r} (expected key=value with "
                f"key one of: {known})"
            )
        kwarg, parse = entry
        try:
            settings[kwarg] = parse(raw.strip())
        except ValueError as exc:
            raise ValueError(f"bad fleet spec value {part!r}: {exc}") from exc
    return settings


#: Simulated seconds of the cost probe run behind :func:`vehicle_costs`.
PROBE_HORIZON_S = 4.0


def vehicle_costs(config) -> list[float]:
    """Measured per-vehicle cost: kernel events each vehicle of ``config``
    fires in the first :data:`PROBE_HORIZON_S` simulated seconds.

    The probe runs ``config`` inline with one vehicle per partition
    (round-robin, no plan, no faults), so each partition's event count
    is its vehicle's own load.  Counts are deterministic, so the plan
    built from them is too.
    """
    from ..fleet.coordinator import run_inline

    probe = replace(
        config, partitions=config.vehicles, duration_s=PROBE_HORIZON_S,
        plan=None, kill_plan=None, straggle_s=(),
    )
    events = run_inline(probe).stats.partition_events
    return [float(events[v]) for v in range(config.vehicles)]


def plan_for_config(config, graph: Optional[ProjectGraph] = None,
                    paths: Optional[list[str]] = None,
                    comm: Optional[CommGraph] = None):
    """Emit a cost-balanced :class:`~repro.fleet.config.PartitionPlan`
    for an existing :class:`~repro.fleet.config.FleetConfig`.

    Costs come from :func:`vehicle_costs`.  Without ``graph``/``paths``
    the lookahead proof runs over this installed package -- the tree the
    config will execute.
    """
    from ..fleet.config import PartitionPlan, shard_vehicles

    if graph is None:
        graph = build_graph(paths if paths is not None else [_PACKAGE_ROOT])
    comm = comm if comm is not None else CommGraph(graph)
    costs = vehicle_costs(config)
    shards = shard_vehicles(config.vehicles, config.partitions, costs)
    return PartitionPlan(
        vehicles=config.vehicles,
        partitions=config.partitions,
        shards=tuple(shards),
        costs=tuple(costs),
        method="greedy-lpt",
        seed=config.seed,
        workload=config.workload,
        lookahead_s=comm.lookahead_s,
        barrier_s=config.barrier_step_s,
    )


def emit_plan(graph: ProjectGraph, fleet: Optional[dict] = None,
              comm: Optional[CommGraph] = None):
    """Emit a plan for a fleet described by :func:`parse_fleet_spec` output."""
    from ..fleet.config import FleetConfig

    settings = dict(_FLEET_SPEC_DEFAULTS)
    settings.update(fleet or {})
    config = FleetConfig(
        seed=settings["seed"],
        vehicles=settings["vehicles"],
        partitions=settings["partitions"],
        duration_s=settings["duration_s"],
        workload=settings["workload"],
    )
    return plan_for_config(config, graph=graph, comm=comm)
