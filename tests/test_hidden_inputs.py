"""Every choice enters the package through an argument.

No module of src/rcmlab reads the process environment (``os.environ``,
``os.environb``, ``os.getenv``), so a run is a function of its config, its
flags and its call arguments alone.  The deleted names stay deleted: no
module defines ``make_variant`` or ``VARIANTS`` (the two cut
orders are the method chains of ``ConnectionFunction``),
``resolve_workers`` (the worker count is an argument), ``LatticeRegion``
(a box of unit cells is a ``Region`` with integer corners),
``check_domination`` or ``DominationCheck`` (criterion c09 sweeps its own
grid), and the value types hold no field that nothing reads.
"""

import ast
import dataclasses
from pathlib import Path

from rcmlab.moments import DominationConstant
from rcmlab.stats import CovarianceField, StatSample

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rcmlab"

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}
RETIRED = {
    "make_variant", "VARIANTS", "resolve_workers", "LatticeRegion", "check_domination",
    "DominationCheck",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _os_names(tree):
    """The local names of the os module in a tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name == "os")
    return names


def _environment_reads(trees):
    """(module, line) of every read of the environment."""
    found = []
    for module, tree in sorted(trees.items()):
        os_names = _os_names(tree)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                    and isinstance(node.value, ast.Name) and node.value.id in os_names):
                found.append((module, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT for alias in node.names
            ):
                found.append((module, node.lineno))
    return found


def _retired_definitions(trees):
    """(module, line, name) of every definition or assignment of a retired name."""
    found = []
    for module, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [(module, node.lineno, name) for name in names if name in RETIRED]
    return found


def test_no_module_reads_the_environment():
    assert _environment_reads(_trees()) == []


def test_no_retired_name_is_defined():
    assert _retired_definitions(_trees()) == []


def test_value_types_hold_only_the_kept_fields():
    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(StatSample) == ["values", "base_seed", "bias_bound"]
    assert names(CovarianceField) == [
        "offsets", "cov", "se", "total", "total_se", "lattice_side", "dependence_range"
    ]
    assert names(DominationConstant) == ["M", "C_pair", "C_total"]


def test_the_guards_name_what_they_find():
    trees = _trees()
    trees["stats"].body.extend(ast.parse(
        "import os as _os\n"
        "from os import getenv\n"
        "def resolve_workers(w):\n"
        "    return w or int(_os.environ.get('RCMLAB_WORKERS', '1'))\n"
        "VARIANTS = ('inside',)\n"
    ).body)
    reads = _environment_reads(trees)
    assert [module for module, _ in reads] == ["stats", "stats"]
    assert [name for _, _, name in _retired_definitions(trees)] == [
        "resolve_workers", "VARIANTS"
    ]
