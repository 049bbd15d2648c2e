"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chgeom"


def _defined_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced_names(node):
    """The names a statement reads, as plain names, attributes or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_private_module_name_is_used():
    # a module-level private function, class or constant that no other
    # statement of the package reads is dead code
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    refs = [_referenced_names(node) for _, node in statements]
    unused = []
    for i, (module, node) in enumerate(statements):
        for name in _defined_names(node):
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in r for k, r in enumerate(refs) if k != i):
                unused.append(f"{module}: {name}")
    assert unused == []
    assert len(statements) > 100  # the package was found and parsed


def test_cli_imports_only_chgeom_beyond_numpy_json_and_argparse():
    # each command is a fresh process and pays for every module it imports
    code = ("import sys, numpy, json, argparse\n"
            "before = set(sys.modules)\n"
            "import chgeom.cli\n"
            "print(sorted(set(sys.modules) - before))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    extra = ast.literal_eval(run.stdout)
    assert "chgeom.cli" in extra
    assert [m for m in extra if m.partition(".")[0] != "chgeom"] == []


def _collector_references(tree):
    """The nodes of a module that name the gc module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "gc"
            or isinstance(node, ast.alias) and node.name.partition(".")[0] == "gc"
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
            or isinstance(node, ast.Constant) and node.value == "gc"]


def test_only_the_cli_entry_point_touches_the_collector():
    # main freezes the collector because its process ends with the command;
    # a library call must never change its host's collector
    touching = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if refs := _collector_references(tree):
            touching[path.name] = (tree, len(refs))
    assert list(touching) == ["cli.py"]
    tree, count = touching["cli.py"]
    (main,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert len(_collector_references(main)) == count
