"""The vdaplint rule pack: the platform's determinism & safety invariants.

Every rule here encodes something the reproduction's claims depend on:
the sim kernel promises "same seed => byte-identical trace", so nothing
under ``src/repro`` may read the wall clock (DET001), touch global RNG
state (DET002), schedule off unordered iteration (DET003), or consume
filesystem listings in inode order (DET004).  SIM001 keeps host-blocking
calls out of generator-based sim processes, FLT001 bans exact float
equality on sim timestamps, RES001 forbids silently-swallowed broad
excepts, and API001 keeps ``__all__`` honest.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Optional

from .engine import FileContext, Rule

__all__ = [
    "WallClockRule",
    "GlobalRngRule",
    "UnorderedIterationRule",
    "UnsortedListingRule",
    "BlockingCallRule",
    "TimestampEqualityRule",
    "SilentExceptRule",
    "DunderAllRule",
    "RULE_CLASSES",
    "default_rules",
    "rules_by_id",
]


class WallClockRule(Rule):
    """DET001: wall-clock reads make traces irreproducible.

    Sim components must take time from ``Simulator.now``; any call that
    reaches for the host clock couples the trace to real time.
    """

    id = "DET001"
    name = "wall-clock-read"
    description = (
        "wall-clock access (time.time/monotonic/perf_counter, datetime.now) "
        "breaks trace reproducibility; use the sim clock (Simulator.now)"
    )

    BANNED = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.process_time",
            "time.process_time_ns",
            "time.clock_gettime",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        qualname = ctx.qualname(node.func)
        if qualname in self.BANNED:
            ctx.report(self, node, f"wall-clock read `{qualname}()`; take time from the sim clock")


class GlobalRngRule(Rule):
    """DET002: global RNG state is shared, unseeded, and order-sensitive.

    All randomness must come from named, seeded streams
    (``repro.sim.random.RngRegistry``) or an explicit
    ``numpy.random.default_rng(seed)`` generator passed in.
    """

    id = "DET002"
    name = "global-rng"
    description = (
        "module-level RNG state (random.*, numpy.random.seed/rand/...) is "
        "nondeterministic under reordering; draw from repro.sim.random streams"
    )

    #: Legacy numpy module-level RNG entry points (global hidden state).
    NUMPY_GLOBAL = frozenset(
        {
            "seed",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "standard_normal",
            "exponential",
            "poisson",
            "get_state",
            "set_state",
        }
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        qualname = ctx.qualname(node.func)
        if qualname is None:
            return
        parts = qualname.split(".")
        if parts[0] == "random" and len(parts) == 2:
            ctx.report(
                self, node,
                f"global stdlib RNG `{qualname}()`; use a seeded stream from "
                "repro.sim.random.RngRegistry",
            )
        elif (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] in self.NUMPY_GLOBAL
        ):
            ctx.report(
                self, node,
                f"numpy global RNG `{qualname}()`; use numpy.random.default_rng(seed) "
                "or a repro.sim.random stream",
            )


class UnorderedIterationRule(Rule):
    """DET003: iteration order of sets feeds scheduling decisions.

    Scoped to the subsystems that make ordering decisions (``sim``,
    ``offload``, ``edgeos``, ``faults``): iterating a ``set`` (or an
    explicit ``dict.keys()`` view) without ``sorted(...)`` lets hash
    randomization pick the schedule.
    """

    id = "DET003"
    name = "unordered-iteration"
    description = (
        "iterating a set or dict.keys() in scheduling code (sim/offload/"
        "edgeos/faults) without sorted() leaves the order to hash randomization"
    )

    SCOPE = frozenset({"sim", "offload", "edgeos", "faults"})

    def collect_AnnAssign(self, node: ast.AnnAssign, ctx: FileContext) -> None:
        """Gather names that are provably set-typed in this file."""
        if self._is_set_annotation(node.annotation):
            self._add_symbol(node.target, ctx)

    def collect_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        if self._is_set_value(node.value):
            for target in node.targets:
                self._add_symbol(target, ctx)

    def _add_symbol(self, target: ast.AST, ctx: FileContext) -> None:
        if self._out_of_scope(ctx):
            return
        name = self._dotted(target)
        if name:
            ctx.scratch.setdefault(self.id, set()).add(name)

    def visit_For(self, node: ast.For, ctx: FileContext) -> None:
        self._check_iterable(node.iter, ctx)

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext) -> None:
        self._check_generators(node.generators, ctx)

    def visit_SetComp(self, node: ast.SetComp, ctx: FileContext) -> None:
        self._check_generators(node.generators, ctx)

    def visit_DictComp(self, node: ast.DictComp, ctx: FileContext) -> None:
        self._check_generators(node.generators, ctx)

    def visit_GeneratorExp(self, node: ast.GeneratorExp, ctx: FileContext) -> None:
        self._check_generators(node.generators, ctx)

    def _check_generators(self, generators: Iterable[ast.comprehension],
                          ctx: FileContext) -> None:
        for gen in generators:
            self._check_iterable(gen.iter, ctx)

    def _out_of_scope(self, ctx: FileContext) -> bool:
        """A ``repro`` subsystem that makes no ordering decisions."""
        return ctx.subsystem is not None and ctx.subsystem not in self.SCOPE

    def _check_iterable(self, iterable: ast.AST, ctx: FileContext) -> None:
        if self._out_of_scope(ctx):
            return
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            ctx.report(self, iterable, "iteration over a set literal; wrap in sorted()")
            return
        if isinstance(iterable, ast.Call):
            func = iterable.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                ctx.report(self, iterable,
                           f"iteration over `{func.id}(...)`; wrap in sorted()")
            elif isinstance(func, ast.Attribute) and func.attr == "keys":
                ctx.report(self, iterable,
                           "iteration over `.keys()`; iterate the dict or wrap in sorted()")
            return
        dotted = self._dotted(iterable)
        symbols = ctx.scratch.get(self.id) or set()
        if dotted and dotted in symbols:
            ctx.report(self, iterable,
                       f"iteration over set-typed `{dotted}`; wrap in sorted()")

    @staticmethod
    def _dotted(node: ast.AST) -> Optional[str]:
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        return ".".join(reversed(parts))

    @staticmethod
    def _is_set_annotation(annotation: Optional[ast.AST]) -> bool:
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        return isinstance(annotation, ast.Name) and annotation.id in (
            "set",
            "frozenset",
            "Set",
            "FrozenSet",
        )

    @staticmethod
    def _is_set_value(value: ast.AST) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        )


class UnsortedListingRule(Rule):
    """DET004: the filesystem returns names in inode order, not a stable one."""

    id = "DET004"
    name = "unsorted-listing"
    description = (
        "os.listdir/os.scandir/os.walk/glob results are filesystem-order; "
        "wrap in sorted() (or sort in place) before use"
    )

    BANNED = frozenset(
        {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        qualname = ctx.qualname(node.func)
        if qualname not in self.BANNED:
            return
        if self._under_sorted(node):
            return
        ctx.report(self, node, f"unsorted filesystem enumeration `{qualname}(...)`")

    @staticmethod
    def _under_sorted(node: ast.AST) -> bool:
        """True when an enclosing expression already sorts the listing."""
        current = getattr(node, "parent", None)
        while current is not None and not isinstance(current, ast.stmt):
            if isinstance(current, ast.Call):
                func = current.func
                if isinstance(func, ast.Name) and func.id == "sorted":
                    return True
            current = getattr(current, "parent", None)
        return False


class BlockingCallRule(Rule):
    """SIM001: blocking the host inside a sim process stalls the event loop.

    ``time.sleep`` is banned everywhere (simulated delay is
    ``sim.timeout``); other host-blocking calls are flagged when they
    appear inside a generator function (the platform's sim-process shape).
    """

    id = "SIM001"
    name = "blocking-call"
    description = (
        "time.sleep (anywhere) or blocking I/O (inside generator-based sim "
        "processes) stalls the event loop; use sim.timeout / events"
    )

    ALWAYS_BANNED = frozenset({"time.sleep"})
    GENERATOR_BANNED = frozenset(
        {
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "os.system",
            "socket.create_connection",
            "urllib.request.urlopen",
            "requests.get",
            "requests.post",
            "input",
        }
    )

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        qualname = ctx.qualname(node.func)
        if qualname in self.ALWAYS_BANNED:
            ctx.report(self, node,
                       f"blocking `{qualname}()`; simulated delay is sim.timeout(delay)")
        elif qualname in self.GENERATOR_BANNED and ctx.in_generator():
            ctx.report(self, node,
                       f"blocking call `{qualname}()` inside a sim process generator")


class TimestampEqualityRule(Rule):
    """FLT001: sim timestamps are floats; exact equality is a coin flip.

    ``sim.now == deadline`` silently never fires once arithmetic rounds the
    clock; compare with ``>=``/``<=`` ordering or an epsilon.
    """

    id = "FLT001"
    name = "timestamp-equality"
    description = (
        "== / != on sim timestamps (sim.now, .timestamp, now_s) is brittle "
        "float equality; use ordering comparisons or an epsilon"
    )

    TIMESTAMP_ATTRS = frozenset({"now", "now_s", "timestamp"})
    TIMESTAMP_NAMES = frozenset({"now_s", "timestamp"})

    def visit_Compare(self, node: ast.Compare, ctx: FileContext) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for expr in [node.left, *node.comparators]:
            if self._is_timestamp(expr):
                ctx.report(
                    self, node,
                    "exact ==/!= on a sim timestamp; use ordering (>=, <=) or "
                    "abs(a - b) < eps",
                )
                return

    @classmethod
    def _is_timestamp(cls, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Attribute):
            return expr.attr in cls.TIMESTAMP_ATTRS
        if isinstance(expr, ast.Name):
            return expr.id in cls.TIMESTAMP_NAMES
        return False


class SilentExceptRule(Rule):
    """RES001: broad excepts that swallow silently hide real failures.

    A bare ``except:`` or ``except Exception`` handler must re-raise, use
    the bound exception, or visibly record it (log/warn/error/record/fail);
    otherwise fault-storm failures vanish without a trace.
    """

    id = "RES001"
    name = "silent-broad-except"
    description = (
        "bare/broad except that neither re-raises, uses the bound exception, "
        "nor logs/records it silently swallows failures"
    )

    BROAD = frozenset({"Exception", "BaseException"})
    HANDLING_HINTS = ("log", "warn", "error", "exception", "record", "fail")

    def visit_ExceptHandler(self, node: ast.ExceptHandler, ctx: FileContext) -> None:
        if not self._is_broad(node.type):
            return
        if self._handles(node):
            return
        caught = "bare except" if node.type is None else "broad except"
        ctx.report(
            self, node,
            f"{caught} swallows the failure silently; narrow the exception type, "
            "re-raise, or record it",
        )

    @classmethod
    def _is_broad(cls, exc_type: Optional[ast.AST]) -> bool:
        if exc_type is None:
            return True
        if isinstance(exc_type, ast.Name):
            return exc_type.id in cls.BROAD
        if isinstance(exc_type, ast.Tuple):
            return any(cls._is_broad(elt) for elt in exc_type.elts)
        return False

    @classmethod
    def _handles(cls, handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, ast.Raise):
                    return True
                if (
                    handler.name
                    and isinstance(inner, ast.Name)
                    and inner.id == handler.name
                    and isinstance(inner.ctx, ast.Load)
                ):
                    return True
                if isinstance(inner, ast.Call):
                    target = inner.func
                    leaf = target.attr if isinstance(target, ast.Attribute) else (
                        target.id if isinstance(target, ast.Name) else ""
                    )
                    if any(hint in leaf.lower() for hint in cls.HANDLING_HINTS):
                        return True
        return False


class DunderAllRule(Rule):
    """API001: ``__all__`` must exist in public modules and only name real things.

    "Public" means importable library surface.  pytest-collected modules
    (``test_*``, ``bench_*``, ``conftest``), scripts with an
    ``if __name__ == "__main__"`` guard, and empty / docstring-only
    modules (bare package markers) are nobody's import surface, so only
    the honesty check (no ghost names) applies to them.
    """

    id = "API001"
    name = "dunder-all"
    description = (
        "public modules must declare __all__, and every declared name must "
        "be defined at module top level (test/bench/script modules exempt)"
    )

    PYTEST_PREFIXES = ("test_", "bench_")

    def visit_Module(self, node: ast.Module, ctx: FileContext) -> None:
        module = ctx.module_name
        if module.startswith("_") and module != "__init__":
            return  # private modules and __main__ need no __all__
        statements = list(self._top_level(node))
        dunder_all = None
        for stmt in statements:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        dunder_all = stmt
        if dunder_all is None:
            if not self._requires_dunder_all(module, node):
                return
            ctx.report_at(self, 1, 0, "public module missing __all__")
            return
        if any(
            isinstance(stmt, ast.ImportFrom) and any(a.name == "*" for a in stmt.names)
            for stmt in statements
        ):
            return  # star imports make the defined-name set unknowable
        declared = self._declared_names(dunder_all.value)
        if declared is None:
            return  # computed __all__; nothing to check statically
        defined = self._defined_names(statements)
        for name in declared:
            if name not in defined and not (
                module == "__init__" and self._is_submodule(ctx.path, name)
            ):
                ctx.report(self, dunder_all,
                           f"__all__ declares `{name}` but the module never defines it")

    @staticmethod
    def _is_submodule(init_path: str, name: str) -> bool:
        """Whether a package ``__init__``'s ``__all__`` entry names a
        submodule beside it -- what ``from pkg import *`` then imports."""
        package = os.path.dirname(init_path)
        return os.path.isfile(os.path.join(package, f"{name}.py")) or (
            os.path.isfile(os.path.join(package, name, "__init__.py"))
        )

    @classmethod
    def _requires_dunder_all(cls, module: str, node: ast.Module) -> bool:
        """Only importable library surface must declare ``__all__``."""
        if module.startswith(cls.PYTEST_PREFIXES) or module == "conftest":
            return False
        body = node.body
        if not body or (
            len(body) == 1
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
        ):
            return False  # empty or docstring-only package marker
        for stmt in body:
            if isinstance(stmt, ast.If) and cls._is_main_guard(stmt.test):
                return False  # a script, not an import surface
        return True

    @staticmethod
    def _is_main_guard(test: ast.AST) -> bool:
        return (
            isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name)
            and test.left.id == "__name__"
            and any(
                isinstance(comp, ast.Constant) and comp.value == "__main__"
                for comp in test.comparators
            )
        )

    @classmethod
    def _top_level(cls, node: ast.AST) -> Iterable[ast.stmt]:
        """Module body plus conditionally-executed top-level blocks."""
        for stmt in getattr(node, "body", []):
            yield stmt
            if isinstance(stmt, (ast.If, ast.Try)):
                yield from cls._top_level(stmt)
                for block in ("orelse", "finalbody", "handlers"):
                    for sub in getattr(stmt, block, []):
                        if isinstance(sub, ast.ExceptHandler):
                            yield from cls._top_level(sub)
                        elif isinstance(sub, ast.stmt):
                            yield sub
                            if isinstance(sub, (ast.If, ast.Try)):
                                yield from cls._top_level(sub)

    @staticmethod
    def _declared_names(value: ast.AST) -> Optional[list[str]]:
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names: list[str] = []
        for elt in value.elts:
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                names.append(elt.value)
            else:
                return None
        return names

    @staticmethod
    def _defined_names(statements: Iterable[ast.stmt]) -> set[str]:
        defined: set[str] = set()
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                defined.add(elt.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    defined.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    defined.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name != "*":
                        defined.add(alias.asname or alias.name)
        return defined


#: Shipped rule classes, in catalogue order.
RULE_CLASSES = [
    WallClockRule,
    GlobalRngRule,
    UnorderedIterationRule,
    UnsortedListingRule,
    BlockingCallRule,
    TimestampEqualityRule,
    SilentExceptRule,
    DunderAllRule,
]


def default_rules() -> list[Rule]:
    """Fresh instances of the full shipped rule pack."""
    return [cls() for cls in RULE_CLASSES]


def rules_by_id() -> dict[str, Rule]:
    """Map rule id -> fresh rule instance, for --select/--ignore lookups."""
    return {rule.id: rule for rule in default_rules()}
