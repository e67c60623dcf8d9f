"""Every module-level function and class of the package is in use.

A name counts as used when code of src/rcmlab other than __init__.py, outside
the name's own definition, refers to it (as a name or as an attribute).  An
export alone does not count, except for the names of UNUSED_EXPORTS, each a
root export or a target of the benchmark's tracer.
"""

import ast
from pathlib import Path

from test_benchmark_surface import _targets

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmlab"

# Names that no package code calls, each kept for a caller outside it
UNUSED_EXPORTS = {
    # the benchmark's traced entry points (pinned by test_benchmark_surface.py)
    "sample_points",
    "connect",
    "count_isolated",
    "count_truncation_family",
    "count_components",
    "overlap_integral",
    # a builtin connection function's constructor, like exponential and hard_disk
    "gaussian",
}


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


def _unused(trees, allowed=frozenset()):
    refs = [ref for ref in _references(trees) if ref[0] != "__init__"]
    unused = []
    for module, node in _definitions(trees):
        if module == "__init__" or node.name in allowed:
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
    assert _unused(_trees(), UNUSED_EXPORTS) == []


def test_every_allowed_name_is_an_unused_export():
    trees = _trees()
    unused = {name.partition(".")[2] for name in _unused(trees)}
    traced = {path for _, path, _ in _targets()}
    assert UNUSED_EXPORTS <= _exported(trees["__init__"]) | traced
    assert UNUSED_EXPORTS <= unused


def test_an_unused_definition_is_named():
    trees = _trees()
    trees["connfn"].body.append(ast.parse("def _orphan(x):\n    return _orphan(x)\n").body[0])
    # exported, but referred to by __init__.py alone
    trees["connfn"].body.append(ast.parse("def exported_orphan(x):\n    return x\n").body[0])
    trees["__init__"].body.append(ast.parse("from .connfn import exported_orphan").body[0])
    assert _unused(trees, UNUSED_EXPORTS) == ["connfn._orphan", "connfn.exported_orphan"]
