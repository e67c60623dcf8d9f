"""Every module-level function and class, and every method and property,
of the package is in use, and every name a module imports is read there.

A name counts as used when code of src/rcmlab other than __init__.py, outside
the name's own definition, refers to it (as a name or as an attribute).  An
export alone does not count, except for the names of UNUSED_EXPORTS, each a
root export or a target of the benchmark's tracer.  A method that Python or a
base class calls counts as used: a dunder, or a name a base class defines
(numpy calls ``_PointSeed.generate_state`` through ``ISeedSequence``).
"""

import ast
import importlib
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

# Imports that their module never reads
UNREAD_IMPORTS = {
    # kept for the benchmark's tracer
    # (pinned by test_benchmark_surface.py::test_re_exports_the_tracer_checks)
    "moments.adaptive_quad",
    "stats.simulate_graph",
    # the tracer's simulator.sample_points, defined in the streams module
    "simulator.sample_points",
    # a preload: verify-all's pool workers, forked from the importing process,
    # inherit scipy.spatial instead of each importing it in a timed pass
    # (pinned by test_config_cli.py::test_acceptance_preloads_the_tree_search)
    "acceptance.scipy",
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


def _called_for_it(module, cls, name):
    """Whether Python or a base class of module.cls calls its method name."""
    if name.startswith("__") and name.endswith("__"):
        return True
    runtime = getattr(importlib.import_module(f"rcmlab.{module}"), cls, None)
    return runtime is not None and any(hasattr(base, name) for base in runtime.__mro__[1:])


def _definitions(trees):
    """(module, qualified name, node) of each module-level function and class
    and each method of those classes, properties included."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                yield module, node.name, node
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, functions) and not _called_for_it(module, node.name, item.name):
                    yield module, f"{node.name}.{item.name}", item


def _unused(trees, allowed=frozenset()):
    refs = [ref for ref in _references(trees) if ref[0] != "__init__"]
    unused = []
    for module, qualname, node in _definitions(trees):
        if qualname in allowed:
            continue
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        used = any(
            name == node.name and not (mod == module and start <= line <= node.end_lineno)
            for mod, line, name in refs
        )
        if not used:
            unused.append(f"{module}.{qualname}")
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
    # a method and a property no code reads, and a method a base class defines
    classes = {node.name: node for node in trees["connfn"].body if isinstance(node, ast.ClassDef)}
    classes["ConnectionFunction"].body.extend(ast.parse(
        "def _orphan_method(self):\n    return self\n"
        "@property\ndef orphan_property(self):\n    return 1\n"
    ).body)
    classes["ConnFnError"].body.extend(ast.parse("def with_traceback(self, tb):\n    return self\n").body)
    assert _unused(trees, UNUSED_EXPORTS) == [
        "connfn.ConnectionFunction._orphan_method",
        "connfn.ConnectionFunction.orphan_property",
        "connfn._orphan",
        "connfn.exported_orphan",
    ]


def _unread_imports(trees):
    """module.name of each name a module other than __init__.py imports
    (from __future__ aside) and never reads."""
    unread = []
    for module, tree in sorted(trees.items()):
        if module == "__init__":
            continue
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{module}.{name}" for name in bound if name not in read]
    return unread


def test_every_import_is_read():
    assert _unread_imports(_trees()) == sorted(UNREAD_IMPORTS)


def test_an_unread_import_is_named():
    trees = _trees()
    trees["stats"].body[:0] = ast.parse(
        "import os.path\nfrom dataclasses import replace as _replace\n"
    ).body
    assert _unread_imports(trees) == [
        "acceptance.scipy", "moments.adaptive_quad", "simulator.sample_points", "stats.os",
        "stats._replace", "stats.simulate_graph",
    ]
