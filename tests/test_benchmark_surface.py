"""The names the benchmark's tracer wraps must stay in the package.

rcmbench/tracing.py replaces each (module, attribute) of its TARGETS in every
rcmlab module that holds it, so a name deleted or moved here would break a
traced benchmark run and the benchmark's own tests.  This test only reads
rcmbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from rcmlab import moments, quadrature, simulator, stats

TRACING = Path(__file__).resolve().parents[1] / "rcmbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("rcmbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("modname,path,span", _targets())
def test_every_traced_target_resolves(modname, path, span):
    # resolved as Tracer.install resolves it: attributes along the path, then
    # the last one from the owner's own namespace
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr]), span


def test_re_exports_the_tracer_checks():
    assert moments.adaptive_quad is quadrature.adaptive_quad
    assert stats.simulate_graph is simulator.simulate_graph
