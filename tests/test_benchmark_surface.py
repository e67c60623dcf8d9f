"""The names the benchmark's tracer wraps must stay in the package.

rcmbench/tracing.py replaces each (module, attribute) of its TARGETS in every
rcmlab module that holds it, so a name deleted or moved here would break a
traced benchmark run and the benchmark's own tests.  Its hooks also read
some arguments by position (``_arg`` in rcmbench/tracing.py), so a moved
parameter would silently zero a traced count: those positions are pinned
here too.  This test only reads rcmbench/.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from rcmlab import moments, quadrature, simulator, stats

TRACING = Path(__file__).resolve().parents[1] / "rcmbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("rcmbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def _resolve(modname, path):
    # as Tracer.install resolves it: attributes along the path, then the last
    # one from the owner's own namespace
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


@pytest.mark.parametrize("modname,path,span", _targets())
def test_every_traced_target_resolves(modname, path, span):
    assert callable(_resolve(modname, path)), span


# the positions at which the tracer's hooks read each target's arguments
ARG_POSITIONS = [
    ("rcmlab.connfn", "ConnectionFunction.eval", {"x": 1}),
    ("rcmlab.simulator", "connect", {"points": 0, "reach": 3}),
    ("rcmlab.simulator", "pair_uniform", {"i": 1}),
    ("rcmlab.stats", "replicate_many", {"m": 2}),
    ("rcmlab.quadrature", "adaptive_quad", {"f": 0, "spec": 3}),
    ("rcmlab.quadrature", "overlap_integral", {"h1": 0, "h2": 1, "s": 2, "d": 3, "spec": 4}),
]


@pytest.mark.parametrize("modname,path,positions", ARG_POSITIONS)
def test_traced_arguments_keep_their_positions(modname, path, positions):
    assert (modname, path) in {(m, p) for m, p, _ in _targets()}
    params = list(inspect.signature(_resolve(modname, path)).parameters)
    assert {name: params.index(name) for name in positions} == positions


def test_re_exports_the_tracer_checks():
    assert moments.adaptive_quad is quadrature.adaptive_quad
    assert stats.simulate_graph is simulator.simulate_graph
