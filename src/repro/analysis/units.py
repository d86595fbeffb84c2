"""Unit-of-measure inference: a forward abstract interpreter over ASTs.

Seconds, bytes, joules, watts, giga-ops and megabits-per-second all flow
through the platform as bare ``float``\\ s; a single seconds-vs-milliseconds
or bits-vs-bytes slip silently corrupts every reproduced table.  This
module gives those floats a static *dimension*:

* **Inference sources.**  A name's trailing unit suffix (``deadline_s``,
  ``tx_bytes``, ``uplink_capacity_mbps``, ``drive_efficiency_wh_per_km``),
  a whole-word unit name (``seconds``, ``joules``, ``nbytes``), or an
  explicit ``# unit: <expr>`` pragma on the defining line.  The suffix
  vocabulary and :class:`~repro.scenarios.units.Unit` live in
  :mod:`repro.scenarios.units`, which the scenario schema shares.
* **Propagation.**  A per-function forward pass tracks the unit of every
  local and folds units through arithmetic: add/sub/compare require the
  same dimension *and* scale; mul/div compose dimensions and scales
  (``joules / seconds -> watts``); multiplying by a bare numeric literal
  keeps the dimension but *unanchors* the scale, so explicit conversions
  (``t_s * 1000.0``) never false-positive downstream.
* **Interprocedural checking.**  Call arguments are checked against the
  callee's parameter units through a project-wide :class:`SignatureIndex`
  built from cheap per-module summaries, so the semantic pass
  (:mod:`.semantic`) summarizes every file before checking any of them.

Rules emitted here:

* **UNIT001** -- mixed-dimension (or mixed-scale) add/sub/compare/assign.
* **UNIT002** -- a call-site argument whose dimension contradicts the
  callee parameter's declared unit (resolved interprocedurally).
* **UNIT003** -- a unit-suffixed local assigned a bare nonzero numeric
  literal with no ``# unit:`` pragma vouching for it (zero is
  dimension-polymorphic and always fine).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from ..scenarios.units import (
    DIMENSIONLESS,
    Unit,
    parse_name_unit,
    parse_unit_expr,
)
from .callgraph import infer_module_name
from .engine import FileContext, Finding, Rule

__all__ = [
    "Unit",
    "UnitMixRule",
    "UnitArgRule",
    "UnitLiteralRule",
    "UNIT_RULE_CLASSES",
    "ModuleSummary",
    "SignatureIndex",
    "UnitChecker",
    "parse_name_unit",
    "parse_unit_expr",
    "summarize_module",
    "unit_pragmas",
]

#: ``# unit: s``, ``# unit: wh/km``, ``# unit: 1`` (explicitly unitless).
UNIT_PRAGMA_RE = re.compile(r"#\s*unit:\s*([A-Za-z0-9_/]+)")


def unit_pragmas(source: str) -> dict[int, Unit]:
    """Per-line ``# unit:`` declarations (unparsable expressions skipped)."""
    out: dict[int, Unit] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = UNIT_PRAGMA_RE.search(text)
        if match:
            unit = parse_unit_expr(match.group(1))
            if unit is not None:
                out[lineno] = unit
    return out


# ---------------------------------------------------------------------------
# rule metadata
# ---------------------------------------------------------------------------


class UnitMixRule(Rule):
    """UNIT001: adding/comparing/assigning across physical dimensions."""

    id = "UNIT001"
    name = "unit-mix"
    description = (
        "add/sub/compare/assign mixes physical dimensions or unit scales "
        "(e.g. seconds + bytes, s vs ms); convert explicitly first"
    )


class UnitArgRule(Rule):
    """UNIT002: an argument's unit contradicts the parameter's declaration."""

    id = "UNIT002"
    name = "unit-arg"
    description = (
        "call-site argument dimension contradicts the callee parameter's "
        "declared unit (resolved through the project signature index)"
    )


class UnitLiteralRule(Rule):
    """UNIT003: a bare nonzero literal flows into a unit-suffixed local."""

    id = "UNIT003"
    name = "unit-literal"
    description = (
        "unit-suffixed local assigned a bare nonzero numeric literal; add "
        "a `# unit:` pragma naming the unit (0 is always fine)"
    )


UNIT_RULE_CLASSES = [UnitMixRule, UnitArgRule, UnitLiteralRule]


# ---------------------------------------------------------------------------
# per-module summaries and the project signature index
# ---------------------------------------------------------------------------


@dataclass
class FunctionSig:
    """One function's unit-relevant interface."""

    qualname: str
    name: str
    module: str
    lineno: int
    params: list[tuple[str, Optional[Unit]]]
    return_unit: Optional[Unit]
    return_type: Optional[str]
    class_name: Optional[str]
    is_generator: bool

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


class ModuleSummary:
    """Unit interface of one module.

    This is everything :class:`SignatureIndex` needs to resolve calls into
    a module *without its AST*.
    """

    def __init__(self, module: str, path: str):
        self.module = module
        self.path = path
        self.imports: dict[str, str] = {}
        self.is_package = False
        self.functions: dict[str, FunctionSig] = {}
        #: class qualname -> {"methods": {name: func qual}, "bases": [dotted]}
        self.classes: dict[str, dict] = {}


def _dotted(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_name(annotation: Optional[ast.AST]) -> Optional[str]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.strip().split("[")[0] or None
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # ``Simulator | None`` -> take the non-None side.
        for side in (annotation.left, annotation.right):
            name = _annotation_name(side)
            if name and name != "None":
                return name
        return None
    return _dotted(annotation)


def _param_nodes(node: ast.AST) -> list[ast.arg]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    return list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)


def summarize_module(
    path: str, source: str, tree: Optional[ast.Module] = None,
    module_name: Optional[str] = None,
) -> Optional[ModuleSummary]:
    """Extract one module's :class:`ModuleSummary` (None on syntax error)."""
    if tree is None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
    name = module_name or infer_module_name(path)
    summary = ModuleSummary(name, path)
    summary.imports = FileContext._collect_imports(tree)
    summary.is_package = path.replace("\\", "/").endswith("/__init__.py")
    pragmas = unit_pragmas(source)
    generators = FileContext._find_generators(tree)

    def declared_param_unit(arg: ast.arg) -> Optional[Unit]:
        unit = parse_name_unit(arg.arg)
        if unit is None:
            unit = pragmas.get(arg.lineno)
        return unit

    def register(node, prefix: str, class_qual: Optional[str],
                 class_name: Optional[str]) -> FunctionSig:
        qual = f"{prefix}.{node.name}"
        return_unit = parse_name_unit(node.name) or pragmas.get(node.lineno)
        sig = FunctionSig(
            qualname=qual,
            name=node.name,
            module=name,
            lineno=node.lineno,
            params=[(a.arg, declared_param_unit(a)) for a in _param_nodes(node)],
            return_unit=return_unit,
            return_type=_annotation_name(node.returns),
            class_name=class_name,
            is_generator=node in generators,
        )
        summary.functions[qual] = sig
        if class_qual is not None:
            summary.classes[class_qual]["methods"][node.name] = qual
        return sig

    def walk(body, prefix: str, class_qual: Optional[str],
             class_name: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sig = register(stmt, prefix, class_qual, class_name)
                walk(stmt.body, sig.qualname, None, None)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}"
                summary.classes[qual] = {
                    "methods": {},
                    "bases": [b for b in map(_dotted, stmt.bases) if b],
                }
                walk(stmt.body, qual, qual, stmt.name)
            elif isinstance(stmt, (ast.If, ast.Try)):
                for sub in ast.iter_child_nodes(stmt):
                    if isinstance(sub, ast.stmt):
                        walk([sub], prefix, class_qual, class_name)
                    elif isinstance(sub, ast.ExceptHandler):
                        walk(sub.body, prefix, class_qual, class_name)

    walk(tree.body, name, None, None)
    return summary


class SignatureIndex:
    """Project-wide function/class lookup over module summaries.

    Resolution mirrors :mod:`.callgraph` (import aliases, relative
    imports, package re-exports, class methods through bases) but runs on
    the module summaries alone.
    """

    def __init__(self, summaries: Iterable[ModuleSummary]):
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSig] = {}
        self.classes: dict[str, dict] = {}
        self._class_module: dict[str, str] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
            self.functions.update(summary.functions)
            for qual, info in summary.classes.items():
                self.classes[qual] = info
                self._class_module[qual] = summary.module

    # -- name resolution ---------------------------------------------------

    @staticmethod
    def _absolutize(dotted: str, summary: ModuleSummary) -> str:
        if not dotted.startswith("."):
            return dotted
        level = len(dotted) - len(dotted.lstrip("."))
        remainder = dotted[level:]
        package = (
            summary.module if summary.is_package
            else summary.module.rsplit(".", 1)[0]
        )
        parts = package.split(".")
        if level > 1:
            parts = parts[: len(parts) - (level - 1)] or parts[:1]
        base = ".".join(parts)
        return f"{base}.{remainder}" if remainder else base

    def resolve_qualname(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Absolute dotted name -> project function/class qualname."""
        if _depth > 8:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:i])
            summary = self.modules.get(module_name)
            if summary is None:
                continue
            rest = parts[i:]
            qual = f"{module_name}.{'.'.join(rest)}"
            if qual in self.functions or qual in self.classes:
                return qual
            target = summary.imports.get(rest[0])
            if target is not None:
                absolute = self._absolutize(target, summary)
                return self.resolve_qualname(
                    ".".join([absolute, *rest[1:]]), _depth + 1
                )
            return None
        return None

    def resolve_in_module(self, dotted: str,
                          summary: ModuleSummary) -> Optional[str]:
        """Resolve a dotted chain as written inside ``summary``'s module."""
        root, _, rest = dotted.partition(".")
        local = f"{summary.module}.{dotted}"
        if local in self.functions or local in self.classes:
            return local
        target = summary.imports.get(root)
        if target is not None:
            absolute = self._absolutize(target, summary)
            full = f"{absolute}.{rest}" if rest else absolute
            return self.resolve_qualname(full)
        return None

    def resolve_method(self, class_qual: str, method: str,
                       _depth: int = 0) -> Optional[FunctionSig]:
        if _depth > 8:
            return None
        info = self.classes.get(class_qual)
        if info is None:
            return None
        func_qual = info["methods"].get(method)
        if func_qual is not None:
            return self.functions.get(func_qual)
        owner = self.modules.get(self._class_module.get(class_qual, ""))
        for base in info["bases"]:
            base_qual = None
            if owner is not None:
                base_qual = self.resolve_in_module(base, owner)
            if base_qual is None:
                base_qual = self.resolve_qualname(base)
            if base_qual is not None and base_qual in self.classes:
                found = self.resolve_method(base_qual, method, _depth + 1)
                if found is not None:
                    return found
        return None

    def callable_sig(self, qual: str) -> Optional[FunctionSig]:
        """The signature invoked by calling ``qual`` (functions or classes)."""
        sig = self.functions.get(qual)
        if sig is not None:
            return sig
        if qual in self.classes:
            return self.resolve_method(qual, "__init__")
        return None


# ---------------------------------------------------------------------------
# the forward abstract interpreter
# ---------------------------------------------------------------------------

#: Builtins transparent to units: result unit == (common) argument unit.
_TRANSPARENT_BUILTINS = frozenset({"abs", "max", "min", "round", "float", "sorted"})


class _FnScope:
    """Per-function environment for the forward pass."""

    def __init__(self):
        self.units: dict[str, Unit] = {}
        self.types: dict[str, str] = {}  # local name -> class qualname


class UnitChecker:
    """Runs UNIT001/UNIT002/UNIT003 over one file against an index."""

    def __init__(self, index: SignatureIndex,
                 rules: Optional[dict[str, Rule]] = None):
        self.index = index
        catalogue = {cls.id: cls() for cls in UNIT_RULE_CLASSES}
        self.rules = rules if rules is not None else catalogue
        self.findings: list[Finding] = []

    # -- entry point -------------------------------------------------------

    def check_module(self, summary: ModuleSummary, source: str,
                     tree: ast.Module) -> list[Finding]:
        self.findings = []
        self._summary = summary
        self._lines = source.splitlines()
        self._pragmas = unit_pragmas(source)
        self._check_body(tree.body, prefix=summary.module, class_qual=None,
                         func_sig=None, scope=_FnScope(), top_level=True)
        return sorted(self.findings)

    def _check_body(self, body, prefix: str, class_qual: Optional[str],
                    func_sig: Optional[FunctionSig], scope: _FnScope,
                    top_level: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_function(stmt, prefix, class_qual)
            elif isinstance(stmt, ast.ClassDef):
                qual = f"{prefix}.{stmt.name}"
                self._check_body(stmt.body, qual, qual, None, _FnScope(),
                                 top_level=True)
            else:
                self._check_stmt(stmt, scope, func_sig, top_level)

    def _check_function(self, node, prefix: str,
                        class_qual: Optional[str]) -> None:
        qual = f"{prefix}.{node.name}"
        sig = self._summary.functions.get(qual)
        scope = _FnScope()
        if sig is not None:
            for pname, punit in sig.params:
                if punit is not None:
                    scope.units[pname] = punit
        # Parameter annotations + ``self`` seed receiver types.
        params = _param_nodes(node)
        for arg in params:
            type_name = _annotation_name(arg.annotation)
            if type_name:
                resolved = self.index.resolve_in_module(type_name, self._summary)
                if resolved in self.index.classes:
                    scope.types[arg.arg] = resolved
        if class_qual is not None and params:
            scope.types[params[0].arg] = class_qual
        self._check_body(node.body, qual, None, sig, scope, top_level=False)

    # -- statements --------------------------------------------------------

    def _check_stmt(self, stmt: ast.stmt, scope: _FnScope,
                    func_sig: Optional[FunctionSig], top_level: bool) -> None:
        if isinstance(stmt, ast.Assign):
            self._handle_assign(stmt, scope, top_level)
        elif isinstance(stmt, ast.AnnAssign):
            self._handle_ann_assign(stmt, scope, top_level)
        elif isinstance(stmt, ast.AugAssign):
            self._handle_aug_assign(stmt, scope, top_level)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._visit_exprs(stmt.value, scope)
            if func_sig is not None and func_sig.return_unit is not None:
                unit = self._infer(stmt.value, scope)
                declared = func_sig.return_unit
                if unit is not None and not unit.same_dimension(declared):
                    self._report(
                        "UNIT001", stmt,
                        f"returns {unit.render()} from `{func_sig.name}` "
                        f"whose name declares {declared.render()}",
                    )
        elif isinstance(stmt, (ast.If, ast.While)):
            self._visit_exprs(stmt.test, scope)
            self._check_block(stmt.body, scope, func_sig, top_level)
            self._check_block(stmt.orelse, scope, func_sig, top_level)
        elif isinstance(stmt, ast.For):
            self._visit_exprs(stmt.iter, scope)
            self._check_block(stmt.body, scope, func_sig, top_level)
            self._check_block(stmt.orelse, scope, func_sig, top_level)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._visit_exprs(item.context_expr, scope)
            self._check_block(stmt.body, scope, func_sig, top_level)
        elif isinstance(stmt, ast.Try):
            self._check_block(stmt.body, scope, func_sig, top_level)
            for handler in stmt.handlers:
                self._check_block(handler.body, scope, func_sig, top_level)
            self._check_block(stmt.orelse, scope, func_sig, top_level)
            self._check_block(stmt.finalbody, scope, func_sig, top_level)
        else:
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._visit_exprs(value, scope)

    def _check_block(self, body, scope, func_sig, top_level) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested defs are checked via their own summary walk
            self._check_stmt(stmt, scope, func_sig, top_level)

    def _handle_assign(self, stmt: ast.Assign, scope: _FnScope,
                       top_level: bool) -> None:
        self._visit_exprs(stmt.value, scope)
        value_unit = self._pragmas.get(stmt.lineno) or self._infer(
            stmt.value, scope
        )
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self._bind_name(target, stmt.value, value_unit, scope,
                                stmt, top_level)
            elif isinstance(target, (ast.Tuple, ast.List)) and isinstance(
                stmt.value, (ast.Tuple, ast.List)
            ) and len(target.elts) == len(stmt.value.elts):
                for elt, val in zip(target.elts, stmt.value.elts):
                    if isinstance(elt, ast.Name):
                        unit = self._pragmas.get(stmt.lineno) or self._infer(
                            val, scope
                        )
                        self._bind_name(elt, val, unit, scope, stmt, top_level)

    def _handle_ann_assign(self, stmt: ast.AnnAssign, scope: _FnScope,
                           top_level: bool) -> None:
        if stmt.value is not None:
            self._visit_exprs(stmt.value, scope)
        if not isinstance(stmt.target, ast.Name):
            return
        type_name = _annotation_name(stmt.annotation)
        if type_name and stmt.value is None:
            resolved = self.index.resolve_in_module(type_name, self._summary)
            if resolved in self.index.classes:
                scope.types[stmt.target.id] = resolved
        if stmt.value is not None:
            unit = self._pragmas.get(stmt.lineno) or self._infer(
                stmt.value, scope
            )
            self._bind_name(stmt.target, stmt.value, unit, scope, stmt,
                            top_level)

    def _handle_aug_assign(self, stmt: ast.AugAssign, scope: _FnScope,
                           top_level: bool) -> None:
        self._visit_exprs(stmt.value, scope)
        if not isinstance(stmt.target, ast.Name):
            return
        target_unit = scope.units.get(stmt.target.id) or parse_name_unit(
            stmt.target.id
        )
        value_unit = self._pragmas.get(stmt.lineno) or self._infer(
            stmt.value, scope
        )
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            if (
                target_unit is not None
                and value_unit is not None
                and not self._literal_operand(stmt.value)
            ):
                self._check_addition(stmt, target_unit, value_unit, "augmented")
        elif isinstance(stmt.op, ast.Mult) and target_unit and value_unit:
            scope.units[stmt.target.id] = target_unit.mul(value_unit)
        elif isinstance(stmt.op, ast.Div) and target_unit and value_unit:
            scope.units[stmt.target.id] = target_unit.div(value_unit)

    def _bind_name(self, target: ast.Name, value: ast.expr,
                   value_unit: Optional[Unit], scope: _FnScope,
                   stmt: ast.stmt, top_level: bool) -> None:
        declared = parse_name_unit(target.id)
        pragma = self._pragmas.get(stmt.lineno)
        # Receiver-type seeding: x = ClassName(...) / x = factory(...).
        if isinstance(value, ast.Call):
            type_qual = self._call_result_type(value, scope)
            if type_qual is not None:
                scope.types[target.id] = type_qual
        if declared is not None:
            if pragma is not None and not pragma.same_dimension(declared):
                self._report(
                    "UNIT003", stmt,
                    f"`{target.id}` is suffix-declared {declared.render()} "
                    f"but its `# unit:` pragma says {pragma.render()}",
                )
            elif (
                not top_level
                and pragma is None
                and self._is_nonzero_literal(value)
            ):
                self._report(
                    "UNIT003", stmt,
                    f"`{target.id}` is assigned the bare literal "
                    f"{ast.literal_eval(value)!r}; annotate the unit "
                    f"(`# unit: {declared.render()}`) or compute it",
                )
            if (
                value_unit is not None
                and pragma is None
                and not self._is_literal(value)
                and not value_unit.same_dimension(declared)
            ):
                self._report(
                    "UNIT001", stmt,
                    f"`{target.id}` declared {declared.render()} is assigned "
                    f"a {value_unit.render()} value",
                )
            scope.units[target.id] = declared
        elif value_unit is not None:
            scope.units[target.id] = value_unit
        else:
            scope.units.pop(target.id, None)

    # -- expression inference ----------------------------------------------

    def _visit_exprs(self, expr: ast.expr, scope: _FnScope) -> None:
        """Walk an expression tree, firing checks on every sub-expression."""
        self._infer(expr, scope)
        for child in ast.walk(expr):
            if child is expr:
                continue
            if isinstance(child, (ast.BinOp, ast.Compare, ast.Call)):
                self._infer(child, scope)

    def _infer(self, expr: ast.expr, scope: _FnScope,
               _seen: Optional[set] = None) -> Optional[Unit]:
        if _seen is None:
            _seen = set()
        if id(expr) in _seen:
            return None
        _seen.add(id(expr))
        if isinstance(expr, ast.Constant):
            return None  # literals are unit-polymorphic
        if isinstance(expr, ast.Name):
            unit = scope.units.get(expr.id)
            return unit if unit is not None else parse_name_unit(expr.id)
        if isinstance(expr, ast.Attribute):
            return parse_name_unit(expr.attr)
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand, scope, _seen)
        if isinstance(expr, ast.IfExp):
            left = self._infer(expr.body, scope, _seen)
            right = self._infer(expr.orelse, scope, _seen)
            if left is not None and right is not None and left.same_dimension(right):
                return left if left.same_scale(right) else left.unanchored()
            return None
        if isinstance(expr, ast.BinOp):
            return self._infer_binop(expr, scope, _seen)
        if isinstance(expr, ast.Compare):
            self._check_compare(expr, scope, _seen)
            return None
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, scope, _seen)
        return None

    def _literal_operand(self, expr: ast.expr) -> bool:
        return isinstance(expr, ast.Constant) and isinstance(
            expr.value, (int, float)
        ) and not isinstance(expr.value, bool)

    def _is_literal(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.UnaryOp):
            return self._is_literal(expr.operand)
        return self._literal_operand(expr)

    def _is_nonzero_literal(self, expr: ast.expr) -> bool:
        if not self._is_literal(expr):
            return False
        try:
            return ast.literal_eval(expr) != 0
        except (ValueError, TypeError):
            return False

    def _infer_binop(self, expr: ast.BinOp, scope: _FnScope,
                     _seen: set) -> Optional[Unit]:
        left = self._infer(expr.left, scope, _seen)
        right = self._infer(expr.right, scope, _seen)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            if left is not None and right is not None:
                self._check_addition(expr, left, right, "arithmetic")
                if left.same_dimension(right):
                    return left if left.same_scale(right) else left.unanchored()
                return None
            known = left if left is not None else right
            if known is None:
                return None
            other = expr.right if left is not None else expr.left
            # unit +- bare literal: the literal adopts the unit's dimension
            # but we can no longer vouch for the scale.
            return known if self._is_literal(other) else None
        if isinstance(expr.op, ast.Mult):
            if left is not None and right is not None:
                return left.mul(right)
            known, other = (left, expr.right) if left is not None else (right, expr.left)
            if known is not None and self._is_literal(other):
                return known.unanchored()  # explicit conversion factor
            return None
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            if left is not None and right is not None:
                return left.div(right)
            if left is not None and self._is_literal(expr.right):
                return left.unanchored()
            if right is not None and self._is_literal(expr.left):
                return DIMENSIONLESS.div(right).unanchored()
            return None
        if isinstance(expr.op, ast.Pow):
            if left is not None and isinstance(expr.right, ast.Constant) and isinstance(
                expr.right.value, int
            ):
                return left.pow(expr.right.value)
            return None
        if isinstance(expr.op, ast.Mod):
            return left
        return None

    def _check_addition(self, node: ast.AST, left: Unit, right: Unit,
                        kind: str) -> None:
        if "UNIT001" not in self.rules:
            return
        if not left.same_dimension(right):
            self._report(
                "UNIT001", node,
                f"{kind} mixes {left.render()} with {right.render()}",
            )
        elif not left.same_scale(right):
            self._report(
                "UNIT001", node,
                f"{kind} mixes scales {left.render()} vs {right.render()} "
                "of the same dimension; convert explicitly",
            )

    def _check_compare(self, expr: ast.Compare, scope: _FnScope,
                       _seen: set) -> None:
        operands = [expr.left, *expr.comparators]
        units = [self._infer(op, scope, _seen) for op in operands]
        for i, op in enumerate(expr.ops):
            if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                   ast.Eq, ast.NotEq)):
                continue
            left, right = units[i], units[i + 1]
            if left is None or right is None:
                continue
            # ``x_s > 0`` style zero/one-sided literals are fine and were
            # already skipped (literal operands infer to None).
            self._check_addition(expr, left, right, "comparison")
            return  # one report per comparison chain

    # -- calls -------------------------------------------------------------

    def _resolve_call_sig(self, call: ast.Call,
                          scope: _FnScope) -> Optional[FunctionSig]:
        dotted = _dotted(call.func)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        if rest and root in scope.types:
            parts = rest.split(".")
            if len(parts) == 1:
                return self.index.resolve_method(scope.types[root], parts[0])
            return None
        if root in scope.units and rest:
            return None  # unit-valued local; not a receiver we can type
        resolved = self.index.resolve_in_module(dotted, self._summary)
        if resolved is not None:
            return self.index.callable_sig(resolved)
        return None

    def _call_result_type(self, call: ast.Call,
                          scope: _FnScope) -> Optional[str]:
        """Class qualname a call evaluates to, for receiver typing."""
        dotted = _dotted(call.func)
        if dotted is not None:
            resolved = self.index.resolve_in_module(dotted, self._summary)
            if resolved in self.index.classes:
                return resolved
        sig = self._resolve_call_sig(call, scope)
        if sig is not None and sig.return_type:
            owner = self.index.modules.get(sig.module)
            if owner is not None:
                resolved = self.index.resolve_in_module(sig.return_type, owner)
                if resolved in self.index.classes:
                    return resolved
        return None

    def _infer_call(self, call: ast.Call, scope: _FnScope,
                    _seen: set) -> Optional[Unit]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _TRANSPARENT_BUILTINS:
            units = [self._infer(arg, scope, _seen) for arg in call.args]
            known = [u for u in units if u is not None]
            if known and all(k.same_dimension(known[0]) for k in known):
                return known[0] if all(
                    k.same_scale(known[0]) for k in known
                ) else known[0].unanchored()
            return None
        sig = self._resolve_call_sig(call, scope)
        if sig is None:
            # Fall back to the callee leaf name's suffix (``x.busy_joules()``).
            if isinstance(func, ast.Attribute):
                return parse_name_unit(func.attr)
            return None
        if "UNIT002" in self.rules:
            self._check_args(call, sig, scope, _seen)
        if sig.return_unit is not None:
            return sig.return_unit
        return None

    def _check_args(self, call: ast.Call, sig: FunctionSig, scope: _FnScope,
                    _seen: set) -> None:
        params = sig.params
        offset = 0
        if sig.is_method and isinstance(call.func, ast.Attribute):
            offset = 1  # receiver fills the first parameter
        by_name = {pname: punit for pname, punit in params}
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            index = i + offset
            if index >= len(params):
                break
            self._check_one_arg(call, sig, params[index], arg, scope, _seen)
        for kw in call.keywords:
            if kw.arg is None:
                continue
            if kw.arg in by_name:
                self._check_one_arg(
                    call, sig, (kw.arg, by_name[kw.arg]), kw.value, scope, _seen
                )

    def _check_one_arg(self, call: ast.Call, sig: FunctionSig,
                       param: tuple[str, Optional[Unit]], arg: ast.expr,
                       scope: _FnScope, _seen: set) -> None:
        pname, punit = param
        if punit is None:
            return
        unit = self._infer(arg, scope, _seen)
        if unit is None:
            return
        if not unit.same_dimension(punit):
            self._report(
                "UNIT002", call,
                f"argument for `{pname}` of `{sig.qualname}` (declared "
                f"{punit.render()}) has dimension {unit.render()}",
            )
        elif not unit.same_scale(punit):
            self._report(
                "UNIT002", call,
                f"argument for `{pname}` of `{sig.qualname}` is "
                f"{unit.render()} but the parameter is declared "
                f"{punit.render()}; convert explicitly",
            )

    # -- plumbing ----------------------------------------------------------

    def _report(self, rule_id: str, node: ast.AST, message: str) -> None:
        rule = self.rules.get(rule_id)
        if rule is None:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self._lines):
            snippet = self._lines[line - 1].strip()
        finding = Finding(
            path=self._summary.path, line=line, col=col, rule=rule.id,
            message=message, snippet=snippet,
        )
        if finding not in self.findings:
            self.findings.append(finding)
