"""Every random word of the package comes from ``rcmlab.streams``.

The source is read through ``ast``: ``rcmlab/simulator.py`` imports neither
ctypes nor numpy.random and reads no ``np.random``, ``streams`` is the only
package module that imports ctypes, and of the streams module's functions
``simulate_block`` calls ``block_points`` and ``block_coins`` alone.
"""

import ast

from test_dead_names import _trees


def _stream_uses(tree):
    """(line, name) of each import statement in the tree that imports
    ctypes or numpy.random, or a module or name within them, and of each
    read of ``random`` from a name numpy is imported as."""
    numpy_names = {
        alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "numpy"
    }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            uses.append((node.lineno, f"{node.value.id}.random"))
            continue
        else:
            continue
        found = [name for name in modules
                 if name.partition(".")[0] == "ctypes" or (name + ".").startswith("numpy.random.")]
        uses += [(node.lineno, name) for name in found[:1]]  # one a statement
    return sorted(uses)


def _function(tree, name):
    return next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_simulator_reaches_no_random_stream():
    assert _stream_uses(_trees()["simulator"]) == []


def test_streams_alone_imports_ctypes():
    importers = {
        module for module, tree in _trees().items()
        if any(name.partition(".")[0] == "ctypes" for _, name in _stream_uses(tree))
    }
    assert importers == {"streams"}


def test_simulate_block_calls_two_stream_functions():
    trees = _trees()
    defined = {node.name for node in trees["streams"].body if isinstance(node, ast.FunctionDef)}
    called = {
        node.func.id for node in ast.walk(_function(trees["simulator"], "simulate_block"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert called & defined == {"block_points", "block_coins"}


def test_a_stream_use_is_named():
    tree = _trees()["simulator"]
    tree.body[:0] = ast.parse(
        "import ctypes.util\nfrom numpy import random\nfrom numpy.random import PCG64\n"
    ).body
    _function(tree, "simulate_block").body[:0] = ast.parse("rng = np.random.default_rng(1)").body
    # the lines are those of the parsed snippets
    assert _stream_uses(tree) == [(1, "ctypes.util"), (1, "np.random"), (2, "numpy.random"),
                                  (3, "numpy.random")]
