"""Leftover code in src/unitlift, read with the stdlib ast module.

Two kinds of leftover fail:
- a module-level import that no line of its module uses, other than the
  names in the module's __all__ and ``from __future__`` imports;
- a private module-level function or class that no other line of the
  package names.  The cli._cmd_* handlers are exempt: main finds them by
  name, as "_cmd_" + the command.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "unitlift"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(SRC.glob("*.py"))}


def _read_names(tree):
    """(name, line) for every name the module reads: bare names and the
    attribute of a dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = {n for n, _ in _read_names(tree)} | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_definition_is_named_elsewhere():
    reads = {}  # name -> the (module, line) pairs that read it
    for name, tree in MODULES.items():
        for read, line in _read_names(tree):
            reads.setdefault(read, set()).add((name, line))
    unnamed = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            if name == "cli.py" and node.name.startswith("_cmd_"):
                continue
            if not reads.get(node.name, set()) - {(name, node.lineno)}:
                unnamed.append(f"{name}: {node.name}")
    assert unnamed == []
