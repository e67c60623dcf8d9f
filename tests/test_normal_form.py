"""A connection function's normal form is read in one module, and the
symbolic transform stack stays gone.

The attributes ``scales``, ``lo`` and ``hi`` of a connection function are
read by code of src/rcmlab in ``connfn.py`` alone, and in
``quadrature._folded``, which folds a builtin's scale factors, and a hard
disk's inside cut, into a closed form's radius.  The names
``TruncateInside``, ``TruncateOutside``, ``Scale`` and ``with_transform``,
and the attribute ``transforms``, appear nowhere in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmlab"

FORM = {"scales", "lo", "hi"}
FORM_READERS = {("quadrature", "_folded")}
STACK_NAMES = {"TruncateInside", "TruncateOutside", "Scale", "with_transform"}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _identifiers(node):
    """(line, identifier, is_attribute) of every name, attribute, definition
    and imported name under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id, False
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr, True
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield sub.lineno, sub.name, False
        elif isinstance(sub, ast.ImportFrom):
            for alias in sub.names:
                yield sub.lineno, alias.name, False


def _violations(trees):
    """module:line and what each read of the form outside its readers, or
    each trace of the stack, is."""
    found = []
    for module, tree in sorted(trees.items()):
        for top in tree.body:
            where = (module, getattr(top, "name", None))
            for line, name, attribute in _identifiers(top):
                if attribute and name in FORM and module != "connfn" and where not in FORM_READERS:
                    found.append(f"{module}:{line} reads .{name}")
                if name in STACK_NAMES or (attribute and name == "transforms"):
                    found.append(f"{module}:{line} names {name}")
    return found


def test_only_connfn_reads_the_normal_form():
    assert _violations(_trees()) == []


def test_a_reader_or_a_stack_name_is_named():
    trees = _trees()
    trees["moments"].body.extend(ast.parse(
        "def _edge(g):\n    return g.hi\n"
        "def _stack(g):\n    return g.transforms\n"
    ).body)
    trees["quadrature"].body.extend(ast.parse(
        "from .connfn import Scale\n"
        "def _folded_twice(h):\n    return h.scales, h.lo\n"
    ).body)
    # a local variable named lo is not the attribute
    trees["stats"].body.extend(ast.parse("def _span(lo, hi):\n    return hi - lo\n").body)
    assert [v.split(" ", 1)[1] for v in _violations(trees)] == [
        "reads .hi", "names transforms", "names Scale", "reads .scales", "reads .lo",
    ]
