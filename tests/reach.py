#!/usr/bin/env python3
"""Which functions under ``src/repro`` do the non-test surfaces ever run?

Run from the repository root (several minutes; the surfaces run one
after another, each under a profile hook):

    python tests/reach.py                       # every surface
    python tests/reach.py --only diagnostics    # surfaces whose label matches
    python tests/reach.py --only diagnostics --ran

Each surface -- the paper CLI, the examples, the fleet drives, the
scenario runner, vdaplint, the paper benches and the perfbench smokes --
runs in a subprocess whose ``PYTHONPATH`` starts with a directory holding
a generated ``sitecustomize``.  That module installs a ``sys.setprofile``
hook in every interpreter the surface starts, spawned fleet workers
included, and dumps the code objects it saw under ``repro`` at exit.  A
forked worker leaves through ``os._exit`` and a terminated one through
SIGTERM, so both are patched to dump first.

The report counts every ``def`` under ``src/repro`` (nested ones too)
and its body lines (first body statement to the last line), then prints
the ones no surface ran and, of those, the ones whose name no code
outside ``tests/`` mentions: no ``Name``, attribute, import alias or
string constant with that name in ``src``, ``benchmarks``, ``examples``
or ``perfbench``.  Dunder methods are protocol hooks, so they never count
as unreferenced.  Last come the classes none of whose own methods ran,
with no name filter: a method called ``put`` or ``step`` is named
somewhere, so only this list shows a whole unreached class.  ``--ran``
prints the functions that did run instead.

The paper benches rewrite ``benchmarks/results/`` in place, as CI does;
``git diff benchmarks/results/`` stays empty on a clean tree.  This is a
script, not a pytest module, and not a CI step.
"""

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
#: Trees whose code counts as a caller; ``tests/`` does not.
CALLER_TREES = ("src", "benchmarks", "examples", "perfbench")

SITECUSTOMIZE = '''\
import os, signal, sys, threading

_OUT = os.environ.get("REACH_OUT")
if _OUT:
    _seen = set()
    _state = {"dumping": False}

    def _hook(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        if _state["dumping"]:
            return
        _state["dumping"] = True
        sys.setprofile(None)
        threading.setprofile(None)
        marker = os.sep + "repro" + os.sep
        rows = sorted({
            f"{code.co_filename}\\t{code.co_firstlineno}"
            for code in list(_seen) if marker in code.co_filename
        })
        path = os.path.join(_OUT, f"calls-{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(row + "\\n" for row in rows))
        _state["dumping"] = False
        _seen.clear()

    def _exit(code, _real=os._exit):
        _dump()
        _real(code)

    def _on_term(signum, frame):
        if _state["dumping"]:
            return  # let the dump finish; the process exits right after
        _dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    import atexit
    atexit.register(_dump)
    os._exit = _exit
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _on_term)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def surfaces(out: str) -> list[tuple[str, list[str]]]:
    """(label, argv) for every non-test surface CI drives."""
    py = sys.executable
    plan = os.path.join(out, "fleet-plan.json")
    runs = [(f"cli-{cmd}", [py, "-m", "repro", cmd])
            for cmd in ("table1", "fig2", "fig3", "drive")]
    runs += [(f"example-{name}", [py, f"examples/{name}.py"])
             for name in ("adas_drive", "amber_platoon", "diagnostics_session",
                          "faulty_drive", "layer_split",
                          "pbeam_personalization", "quickstart")]
    runs += [
        ("example-full_drive-observe",
         [py, "examples/full_drive.py", "--observe", os.path.join(out, "obs")]),
        ("fleet-check", [py, "examples/fleet_drive.py", "--partitions", "4", "--check"]),
        ("fleet-kill", [py, "examples/fleet_drive.py", "--partitions", "4",
                        "--check", "--kill", "2:7"]),
        ("fleet-plan-out", [py, "examples/fleet_drive.py", "--vehicles", "8",
                            "--partitions", "4", "--workload", "skewed",
                            "--seed", "0", "--plan-out", plan]),
        ("fleet-plan", [py, "examples/fleet_drive.py", "--partitions", "4",
                        "--workload", "skewed", "--check", "--plan", plan]),
        ("fleet-round-robin", [py, "examples/fleet_drive.py", "--partitions", "4",
                               "--workload", "skewed", "--check"]),
        ("fleet-scenario", [py, "examples/fleet_drive.py", "--scenario",
                            "scenarios/fleet_smoke.yaml", "--check"]),
        ("scenarios-inline", [py, "-m", "repro.scenarios", "run",
                              "scenarios/fleet_smoke.yaml", "--check"]),
        ("scenarios-processes", [py, "-m", "repro.scenarios", "run",
                                 "scenarios/fleet_smoke.yaml", "--mode",
                                 "processes", "--check"]),
        ("vdaplint-trees", [py, "-m", "repro.analysis", "src/repro",
                            "benchmarks", "examples", "tests"]),
        ("vdaplint-scenarios", [py, "-m", "repro.analysis", "--scenarios",
                                "scenarios"]),
        ("benches", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     "benchmarks", "--ignore=benchmarks/bench_fleet_throughput.py",
                     "--benchmark-disable"]),
    ]
    runs += [(f"perfbench-{name}", [py, "perfbench/run.py", "--workload", name,
                                    "--seed", "0", "--seconds", "1", "--trace", "0"])
             for name in ("paper-cli", "fleet-skewed", "fleet-procs")]
    return runs


def record(selected: list[tuple[str, list[str]]], hook_dir: str,
           out: str) -> tuple[set[tuple[str, int]], list[str]]:
    """Run each surface under the hook; return what ran and the failures.

    What ran is a set of (module path, first line) pairs, one per code
    object that was called.
    """
    reached = set()
    failed = []
    for label, argv in selected:
        dump_dir = os.path.join(out, "calls", label)
        os.makedirs(dump_dir)
        env = dict(os.environ, REACH_OUT=dump_dir, PYTHONPATH=os.pathsep.join(
            p for p in (hook_dir, SRC, os.environ.get("PYTHONPATH")) if p))
        print(f"running {label} ...", file=sys.stderr, flush=True)
        status = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).returncode
        if status != 0:
            failed.append(f"{label} (exit {status})")
        for name in sorted(os.listdir(dump_dir)):
            with open(os.path.join(dump_dir, name), encoding="utf-8") as fh:
                for line in fh:
                    filename, lineno = line.rstrip("\n").split("\t")
                    reached.add((_package_path(filename), int(lineno)))
    return reached, failed


def _package_path(filename: str) -> str:
    """``.../src/repro/net/channel.py`` -> ``repro/net/channel.py``."""
    parts = os.path.normpath(filename).split(os.sep)
    start = len(parts) - 1 - parts[::-1].index("repro")
    return "/".join(parts[start:])


def definitions() -> list[tuple[str, int, str, int, str | None]]:
    """(module path, first line, qualified name, body lines, owning class)
    of every def; the owner is the qualified name of the class whose body
    holds the def, or None."""
    found = []
    for path in _python_files(PACKAGE):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = _package_path(path)
        for node, qualname, owner in _defs(tree.body, "", None):
            # A code object's first line is its first decorator's.
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            body = node.end_lineno - node.body[0].lineno + 1
            found.append((module, first, qualname, body, owner))
    return found


def _python_files(root: str) -> list[str]:
    return sorted(os.path.join(dirpath, name) for dirpath, _, names in os.walk(root)
                  for name in names if name.endswith(".py"))


def _defs(nodes, prefix, owner):
    """Every def among ``nodes`` and below them, with its qualified name
    and the class whose body holds it (``owner`` for ``nodes`` itself)."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            yield node, qualname, owner
            yield from _defs(node.body, qualname + ".<locals>.", None)
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".", prefix + node.name)
        else:
            yield from _defs(ast.iter_child_nodes(node), prefix, None)


def caller_names() -> set[str]:
    """Every name code outside ``tests/`` mentions."""
    mentioned = set()
    for tree_root in CALLER_TREES:
        for path in _python_files(os.path.join(ROOT, tree_root)):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    mentioned.add(node.id)
                elif isinstance(node, ast.Attribute):
                    mentioned.add(node.attr)
                elif isinstance(node, ast.alias):
                    mentioned.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    mentioned.add(node.value)
    return mentioned


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="LABEL", default=None,
                        help="run only the surfaces whose label contains one of these")
    parser.add_argument("--ran", action="store_true",
                        help="list the functions that ran instead of those that did not")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="reach-") as out:
        hook_dir = os.path.join(out, "hook")
        os.makedirs(hook_dir)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w", encoding="utf-8") as fh:
            fh.write(SITECUSTOMIZE)
        selected = [(label, argv) for label, argv in surfaces(out)
                    if args.only is None or any(key in label for key in args.only)]
        if not selected:
            parser.error(f"no surface label contains any of {args.only}")
        reached, failed = record(selected, hook_dir, out)

    defs = definitions()
    total_lines = sum(d[3] for d in defs)
    print(f"surfaces: {len(selected)} ({', '.join(label for label, _ in selected)})")
    if args.ran:
        ran = [(module, qualname) for module, first, qualname, *_ in defs
               if (module, first) in reached]
        print(f"ran: {len(ran)} of {len(defs)} functions")
        for module, qualname in ran:
            print(f"  {module}:{qualname}")
        return 1 if failed else 0

    never = [d for d in defs if (d[0], d[1]) not in reached]
    print(f"never ran: {len(never)} of {len(defs)} functions, "
          f"{sum(d[3] for d in never)} of {total_lines} body lines")
    by_module = defaultdict(list)
    for module, first, qualname, body, _owner in never:
        by_module[module].append(f"{qualname} ({body})")
    for module in sorted(by_module):
        print(f"  {module}: {', '.join(by_module[module])}")

    names = caller_names()
    orphans = [d for d in never
               if not d[2].rpartition(".")[2].startswith("__")
               and d[2].rpartition(".")[2] not in names]
    print(f"never ran and unnamed outside tests/: {len(orphans)} functions, "
          f"{sum(d[3] for d in orphans)} body lines")
    for module, first, qualname, body, _owner in orphans:
        print(f"  {module}:{first} {qualname} ({body})")

    methods = defaultdict(list)
    for module, first, _qualname, body, owner in defs:
        if owner is not None:
            methods[module, owner].append(((module, first) in reached, body))
    idle = sorted(key for key, rows in methods.items() if not any(ran for ran, _ in rows))
    print(f"classes none of whose methods ran: {len(idle)}, "
          f"{sum(body for key in idle for _, body in methods[key])} body lines")
    for module, owner in idle:
        rows = methods[module, owner]
        print(f"  {module}:{owner} ({len(rows)} defs, {sum(b for _, b in rows)} body lines)")
    for label in failed:
        print(f"FAILED surface: {label}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
