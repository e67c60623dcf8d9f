"""Every module-level function and class of the package is in use.

A name counts as used when code of src/rcmlab outside its own definition
refers to it (as a name or as an attribute) or when rcmlab/__init__.py
exports it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmlab"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _exported(init: ast.Module):
    names = set()
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _references(trees):
    """(module, line, name) of every name and attribute read in the package."""
    refs = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.lineno, node.attr))
    return refs


def _definitions(trees):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, kinds):
                yield module, node


def _unused(trees):
    exported = _exported(trees["__init__"])
    refs = _references(trees)
    unused = []
    for module, node in _definitions(trees):
        if node.name in exported:
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        used = any(
            name == node.name and not (mod == module and start <= line <= node.end_lineno)
            for mod, line, name in refs
        )
        if not used:
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_definition_is_used():
    assert _unused(_trees()) == []


def test_an_unused_definition_is_named():
    trees = _trees()
    trees["connfn"].body.append(ast.parse("def _orphan(x):\n    return _orphan(x)\n").body[0])
    assert _unused(trees) == ["connfn._orphan"]
