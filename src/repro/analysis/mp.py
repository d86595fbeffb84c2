"""Multiprocess-safety lint for the fleet layer: MP001--MP003.

The PR-6 fleet crosses a process boundary twice per round: once when a
partition spec is pickled into a spawned worker, and once per message on
the coordinator<->worker pipes.  Each crossing has a failure mode the
interpreter only reports at runtime (or, worse, silently):

* **MP001 spawn-payload picklability** -- lambdas, open handles,
  generators, and locks die in ``pickle`` when a worker is spawned (or
  silently share state under ``fork``).  The rule walks every
  ``Process(target=..., args=(...))`` site, resolves each payload
  argument to its class, and flags unpicklable constituents --
  recursively through payload dataclass fields.
* **MP002 fork-crossing global writes** -- a module-level mutable
  written by worker-process code updates the *child's* copy only; the
  parent (and every other worker) never sees it.  The rule takes the
  call-graph closure of every spawn target and flags module-global
  mutation inside it.
* **MP003 pipe-protocol exhaustiveness** -- every message type that is
  ``send()``-ed over a pipe endpoint must be ``isinstance``-handled by
  some peer, and every handled type must actually be constructed
  somewhere; an unhandled message falls through to the catch-all error
  arm at runtime, an unconstructed one is a dead protocol arm.

Findings honor ``# vdaplint:`` pragmas and flow through the normal
reporters; the rules run in the whole-program tier (``--whole-program``)
next to DET101/SIM101/RACE001, over the same project call graph.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .callgraph import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectGraph,
    build_graph,
)
from .engine import Finding, Pragmas, Rule

__all__ = [
    "MP_RULE_CLASSES",
    "MpAnalyzer",
    "mp_rules",
    "mp_rules_by_id",
]

#: Annotation tokens that mark a spawn-payload field as unpicklable.
UNPICKLABLE_ANNOTATIONS = frozenset(
    {
        "BinaryIO", "Callable", "Condition", "Connection", "Generator",
        "IO", "Iterator", "Lock", "RLock", "Semaphore", "TextIO",
        "Thread", "socket",
    }
)

#: Call names that produce an unpicklable value (``threading.Lock()``...).
UNPICKLABLE_FACTORIES = frozenset(
    {"BoundedSemaphore", "Condition", "Lock", "RLock", "Semaphore", "Thread"}
)

#: Container methods that mutate a module-level global in place.
MUTATOR_METHODS = frozenset(
    {"add", "append", "clear", "extend", "insert", "pop", "popitem",
     "remove", "setdefault", "update"}
)

#: How deep MP001 chases payload dataclass fields into nested classes.
PAYLOAD_DEPTH = 3


class SpawnPayloadRule(Rule):
    """MP001: unpicklable state reachable from a spawn payload."""

    id = "MP001"
    name = "spawn-payload-picklability"
    description = (
        "lambdas, open handles, generators, or locks reachable from a "
        "Process(..., args=...) payload break pickling at the process "
        "boundary"
    )


class ForkGlobalWriteRule(Rule):
    """MP002: worker-process code writes a fork-crossing module global."""

    id = "MP002"
    name = "fork-crossing-global-write"
    description = (
        "a module-level mutable written by worker-process code updates "
        "only the child's copy; the parent never sees it"
    )


class PipeProtocolRule(Rule):
    """MP003: pipe-protocol exhaustiveness between coordinator and workers."""

    id = "MP003"
    name = "pipe-protocol-exhaustiveness"
    description = (
        "every message type sent over a pipe endpoint needs an "
        "isinstance handler on the peer side, and every handled type "
        "must be constructed somewhere"
    )


MP_RULE_CLASSES = [SpawnPayloadRule, ForkGlobalWriteRule, PipeProtocolRule]


def mp_rules() -> list[Rule]:
    """Fresh instances of the multiprocess-safety rule pack."""
    return [cls() for cls in MP_RULE_CLASSES]


def mp_rules_by_id() -> dict[str, Rule]:
    """The multiprocess-safety rule pack keyed by rule id."""
    return {rule.id: rule for rule in mp_rules()}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_tokens(annotation: ast.AST) -> set[str]:
    """Every Name/Attribute component mentioned in an annotation."""
    tokens: set[str] = set()
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return tokens
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            tokens.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            tokens.add(sub.attr)
    return tokens


class MpAnalyzer:
    """Runs the MP rule pack over a whole-project graph."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        selected = list(rules) if rules is not None else mp_rules()
        self.rules = {rule.id: rule for rule in selected}
        self.graph: Optional[ProjectGraph] = None

    # -- entry points ------------------------------------------------------

    def analyze_paths(self, paths: Iterable[str]) -> list[Finding]:
        return self.analyze_graph(build_graph(paths))

    def analyze_graph(self, graph: ProjectGraph) -> list[Finding]:
        self.graph = graph
        self._sites: dict[int, CallSite] = {}
        for caller in graph.calls:
            for site in graph.calls[caller]:
                if site.node is not None:
                    self._sites[id(site.node)] = site
        spawns = self._spawn_sites()
        raw: list[tuple[str, str, int, int, str]] = []
        if "MP001" in self.rules:
            raw.extend(self._check_payloads(spawns))
        if "MP002" in self.rules:
            raw.extend(self._check_globals(spawns))
        if "MP003" in self.rules:
            raw.extend(self._check_protocol())
        findings: list[Finding] = []
        seen: set[tuple[str, int, str]] = set()
        for rule_id, path, line, col, message in raw:
            key = (path, line, rule_id)
            if key in seen:
                continue
            seen.add(key)
            findings.append(self._finding(rule_id, path, line, col, message))
        return sorted(self._apply_pragmas(findings))

    # -- spawn-site discovery ----------------------------------------------

    def _spawn_sites(self) -> list[CallSite]:
        """Every ``<ctx>.Process(target=..., ...)`` construction site."""
        out = []
        for caller in sorted(self.graph.calls):
            for site in self.graph.calls[caller]:
                node = site.node
                if node is None:
                    continue
                dotted = _dotted(node.func)
                if dotted is None or dotted.split(".")[-1] != "Process":
                    continue
                if any(kw.arg == "target" for kw in node.keywords):
                    out.append(site)
        return out

    def _caller_module(self, site: CallSite) -> Optional[ModuleInfo]:
        info = self.graph.functions.get(site.caller)
        if info is None:
            return None
        return self.graph.modules.get(info.module)

    def _spawn_targets(self, spawns: list[CallSite]) -> list[str]:
        """Resolved worker entry points (the ``target=`` callables)."""
        targets = []
        for site in spawns:
            module = self._caller_module(site)
            if module is None:
                continue
            for kw in site.node.keywords:
                if kw.arg != "target":
                    continue
                dotted = _dotted(kw.value)
                if dotted is None:
                    continue
                resolved = self.graph._resolve_chain_in_module(dotted, module)
                if resolved is not None and resolved in self.graph.functions:
                    targets.append(resolved)
        return sorted(set(targets))

    # -- MP001 -------------------------------------------------------------

    def _check_payloads(self, spawns: list[CallSite]):
        out = []
        for site in spawns:
            module = self._caller_module(site)
            if module is None:
                continue
            for kw in site.node.keywords:
                if kw.arg != "args" or not isinstance(
                    kw.value, (ast.Tuple, ast.List)
                ):
                    continue
                for element in kw.value.elts:
                    out.extend(self._check_payload_value(element, site, module))
        return out

    def _check_payload_value(self, element: ast.AST, site: CallSite,
                             module: ModuleInfo):
        rule = "MP001"
        where = (rule, site.path, element.lineno, element.col_offset)
        if isinstance(element, ast.Lambda):
            return [(*where,
                     "lambda passed as a spawn payload cannot be pickled "
                     "across the process boundary; use a module-level "
                     "function")]
        if isinstance(element, ast.GeneratorExp):
            return [(*where,
                     "generator expression passed as a spawn payload cannot "
                     "be pickled; materialize it (list/tuple) first")]
        if isinstance(element, ast.Call):
            verdict = self._unpicklable_call(element)
            if verdict is not None:
                return [(*where,
                         f"{verdict} passed as a spawn payload cannot be "
                         "pickled across the process boundary")]
            return []
        if isinstance(element, ast.Name):
            cls = self._local_value_class(element.id, site, module)
            if cls is not None:
                return self._check_payload_class(cls, set(), 0)
        return []

    def _unpicklable_call(self, call: ast.Call) -> Optional[str]:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        last = dotted.split(".")[-1]
        if last == "open":
            return "an open file handle"
        if last in UNPICKLABLE_FACTORIES:
            return f"a {last.lower()} object"
        site = self._sites.get(id(call))
        if site is not None and site.callee is not None:
            info = self.graph.functions.get(site.callee)
            if info is not None and info.is_generator:
                return f"the generator `{site.callee}`"
        return None

    def _local_value_class(self, name: str, site: CallSite,
                           module: ModuleInfo) -> Optional[str]:
        """Type a local name at a spawn site: param annotation or assign."""
        caller = self.graph.functions.get(site.caller)
        if caller is None:
            return None
        args = getattr(caller.node, "args", None)
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for arg in every:
                if arg.arg == name and arg.annotation is not None:
                    dotted = self.graph._annotation_name(arg.annotation)
                    if dotted is not None:
                        resolved = self.graph._resolve_chain_in_module(
                            dotted, module
                        )
                        if resolved in self.graph.classes:
                            return resolved
        for sub in ast.walk(caller.node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and sub.targets[0].id == name
                and isinstance(sub.value, ast.Call)
            ):
                inner = self._sites.get(id(sub.value))
                if inner is not None and inner.callee is not None:
                    callee = inner.callee
                    if callee.endswith(".__init__"):
                        callee = callee[: -len(".__init__")]
                    if callee in self.graph.classes:
                        return callee
        return None

    def _check_payload_class(self, cls_qual: str, visited: set[str],
                             depth: int):
        """Flag unpicklable fields of a payload class, recursively."""
        if cls_qual in visited or depth > PAYLOAD_DEPTH:
            return []
        visited.add(cls_qual)
        cls = self.graph.classes.get(cls_qual)
        if cls is None:
            return []
        out = []
        rule = "MP001"
        module = self.graph.modules.get(cls.module)
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                tokens = _annotation_tokens(stmt.annotation)
                bad = sorted(tokens & UNPICKLABLE_ANNOTATIONS)
                if bad:
                    out.append(
                        (rule, cls.path, stmt.lineno, stmt.col_offset,
                         f"field `{stmt.target.id}: ...{bad[0]}...` of spawn "
                         f"payload `{cls.name}` is not picklable across the "
                         "process boundary"))
                    continue
                if module is not None:
                    for token in sorted(tokens):
                        nested = self.graph._resolve_chain_in_module(
                            token, module
                        )
                        if nested in self.graph.classes and nested != cls_qual:
                            out.extend(self._check_payload_class(
                                nested, visited, depth + 1))
        init = cls.methods.get("__init__")
        if init is not None:
            out.extend(self._check_payload_init(cls, init))
        return out

    def _check_payload_init(self, cls: ClassInfo, init: FunctionInfo):
        out = []
        rule = "MP001"
        for sub in ast.walk(init.node):
            if not isinstance(sub, ast.Assign):
                continue
            target = sub.targets[0] if len(sub.targets) == 1 else None
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            value = sub.value
            label = None
            if isinstance(value, ast.Lambda):
                label = "a lambda"
            elif isinstance(value, ast.GeneratorExp):
                label = "a generator expression"
            elif isinstance(value, ast.Call):
                label = self._unpicklable_call(value)
            if label is not None:
                out.append(
                    (rule, cls.path, sub.lineno, sub.col_offset,
                     f"`self.{target.attr} = ...` stores {label} on spawn "
                     f"payload `{cls.name}`; it cannot cross the process "
                     "boundary"))
        return out

    # -- MP002 -------------------------------------------------------------

    def _module_globals(self, module: ModuleInfo) -> set[str]:
        """Module-level names bound to mutable containers."""
        names: set[str] = set()
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not isinstance(target, ast.Name):
                    continue
                value = stmt.value
                if isinstance(value, (ast.Dict, ast.List, ast.Set)):
                    names.add(target.id)
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("dict", "list", "set", "defaultdict")
                ):
                    names.add(target.id)
        return names

    def _check_globals(self, spawns: list[CallSite]):
        out = []
        rule = "MP002"
        entries = self._spawn_targets(spawns)
        if not entries:
            return out
        reachable = self.graph.reachable_from(entries)
        globals_cache: dict[str, set[str]] = {}
        for qual in sorted(reachable):
            info = self.graph.functions.get(qual)
            if info is None:
                continue
            for write in self.graph.attr_writes.get(qual, ()):
                if write.base_kind == "global":
                    out.append(
                        (rule, write.path, write.line, write.col,
                         f"worker-process code mutates module-global "
                         f"`{write.share_key[1]}.{write.attr}`; the write "
                         "stays in the child and the parent never sees it"))
            if info.module not in globals_cache:
                module = self.graph.modules.get(info.module)
                globals_cache[info.module] = (
                    self._module_globals(module) if module is not None else set()
                )
            mutable = globals_cache[info.module]
            out.extend(self._function_global_writes(info, mutable))
        return out

    def _function_global_writes(self, info: FunctionInfo, mutable: set[str]):
        out = []
        rule = "MP002"
        declared: set[str] = set()
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Global):
                declared.update(sub.names)
        for sub in ast.walk(info.node):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared:
                        out.append(
                            (rule, info.path, sub.lineno, sub.col_offset,
                             f"worker-process code rebinds global "
                             f"`{target.id}`; the write stays in the child "
                             "process"))
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutable
                    ):
                        out.append(
                            (rule, info.path, sub.lineno, sub.col_offset,
                             f"worker-process code writes into module-global "
                             f"`{target.value.id}[...]`; the write stays in "
                             "the child process"))
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATOR_METHODS
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in mutable
            ):
                out.append(
                    (rule, info.path, sub.lineno, sub.col_offset,
                     f"worker-process code calls `{sub.func.value.id}."
                     f"{sub.func.attr}(...)` on a module global; the "
                     "mutation stays in the child process"))
        return out

    # -- MP003 -------------------------------------------------------------

    def _protocol_modules(self) -> dict[str, set[str]]:
        """Modules defining a pipe endpoint -> their endpoint class names."""
        out: dict[str, set[str]] = {}
        for qual in sorted(self.graph.classes):
            cls = self.graph.classes[qual]
            methods = set(cls.methods)
            if "send" in methods and any(m.startswith("recv") for m in methods):
                out.setdefault(cls.module, set()).add(qual)
        return out

    @staticmethod
    def _exception_like(cls: ClassInfo) -> bool:
        for base in cls.bases:
            last = base.split(".")[-1]
            if last in ("Exception", "BaseException") or last.endswith(
                ("Error", "Exception", "Warning")
            ):
                return True
        return False

    def _message_classes(self, protocol: dict[str, set[str]]) -> dict[str, ClassInfo]:
        messages: dict[str, ClassInfo] = {}
        for module_name, endpoints in protocol.items():
            for qual in sorted(self.graph.classes):
                cls = self.graph.classes[qual]
                if cls.module != module_name or qual in endpoints:
                    continue
                if self._exception_like(cls):
                    continue
                methods = set(cls.methods)
                if "send" in methods or any(
                    m.startswith("recv") for m in methods
                ):
                    continue
                messages[qual] = cls
        return messages

    def _resolve_to_message(self, callee: Optional[str],
                            messages: dict[str, ClassInfo]) -> Optional[str]:
        if callee is None:
            return None
        if callee.endswith(".__init__"):
            callee = callee[: -len(".__init__")]
        return callee if callee in messages else None

    def _sent_classes(self, messages: dict[str, ClassInfo]) -> dict[str, CallSite]:
        """Message class -> one representative ``.send(...)`` site."""
        sent: dict[str, CallSite] = {}
        for caller in sorted(self.graph.calls):
            for site in self.graph.calls[caller]:
                node = site.node
                if node is None or not node.args:
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute) and func.attr == "send"):
                    continue
                for qual in self._payload_message(node.args[0], site, messages):
                    sent.setdefault(qual, site)
        return sent

    def _payload_message(self, arg: ast.AST, site: CallSite,
                         messages: dict[str, ClassInfo]) -> list[str]:
        """Resolve a ``.send(<arg>)`` payload to message classes."""
        if isinstance(arg, ast.Call):
            inner = self._sites.get(id(arg))
            if inner is None:
                return []
            direct = self._resolve_to_message(inner.callee, messages)
            if direct is not None:
                return [direct]
            # A factory call: follow its return annotation.
            if inner.callee is not None:
                info = self.graph.functions.get(inner.callee)
                returns = getattr(info.node, "returns", None) if info else None
                if returns is not None:
                    dotted = self.graph._annotation_name(returns)
                    module = self.graph.modules.get(info.module)
                    if dotted is not None and module is not None:
                        resolved = self.graph._resolve_chain_in_module(
                            dotted, module
                        )
                        if resolved in messages:
                            return [resolved]
            return []
        if isinstance(arg, ast.Name):
            caller = self.graph.functions.get(site.caller)
            if caller is None:
                return []
            module = self.graph.modules.get(caller.module)
            args = getattr(caller.node, "args", None)
            if module is not None and args is not None:
                every = (
                    list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                )
                for param in every:
                    if param.arg == arg.id and param.annotation is not None:
                        dotted = self.graph._annotation_name(param.annotation)
                        if dotted is None:
                            continue
                        resolved = self.graph._resolve_chain_in_module(
                            dotted, module
                        )
                        if resolved in messages:
                            return [resolved]
            for sub in ast.walk(caller.node):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and sub.targets[0].id == arg.id
                    and isinstance(sub.value, ast.Call)
                ):
                    inner = self._sites.get(id(sub.value))
                    if inner is not None:
                        resolved = self._resolve_to_message(
                            inner.callee, messages
                        )
                        if resolved is not None:
                            return [resolved]
            return []
        return []

    def _handled_classes(self, messages: dict[str, ClassInfo]) -> set[str]:
        handled: set[str] = set()
        for name in sorted(self.graph.modules):
            module = self.graph.modules[name]
            for sub in ast.walk(module.tree):
                if not (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "isinstance"
                    and len(sub.args) == 2
                ):
                    continue
                spec = sub.args[1]
                candidates = (
                    list(spec.elts) if isinstance(spec, ast.Tuple) else [spec]
                )
                for candidate in candidates:
                    dotted = _dotted(candidate)
                    if dotted is None:
                        continue
                    resolved = self.graph._resolve_chain_in_module(
                        dotted, module
                    )
                    if resolved in messages:
                        handled.add(resolved)
        return handled

    def _constructed_classes(self, messages: dict[str, ClassInfo]) -> set[str]:
        constructed: set[str] = set()
        for caller in self.graph.calls:
            for site in self.graph.calls[caller]:
                resolved = self._resolve_to_message(site.callee, messages)
                if resolved is not None:
                    constructed.add(resolved)
        return constructed

    def _check_protocol(self):
        out = []
        rule = "MP003"
        protocol = self._protocol_modules()
        if not protocol:
            return out
        messages = self._message_classes(protocol)
        if not messages:
            return out
        sent = self._sent_classes(messages)
        handled = self._handled_classes(messages)
        constructed = self._constructed_classes(messages)
        for qual in sorted(set(sent) - handled):
            cls = messages[qual]
            out.append(
                (rule, cls.path, cls.lineno, 0,
                 f"message `{cls.name}` is sent over the pipe but no peer "
                 "isinstance-handles it; it will fall through to the "
                 "unknown-command arm"))
        for qual in sorted(handled - constructed):
            cls = messages[qual]
            out.append(
                (rule, cls.path, cls.lineno, 0,
                 f"message `{cls.name}` has an isinstance handler but is "
                 "never constructed; dead protocol arm"))
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
