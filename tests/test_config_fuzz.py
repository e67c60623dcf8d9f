"""rcmlab's subcommands on drawn configs end in an exit code, never a traceback.

The strategy draws keys of ``config._KEYS`` (d, K, kind, a, table,
transforms, lambda, the n and R lists, m, tolerances and budgets) in their
valid ranges, K's lower corner at 0, -1000 or 1000, and one in five examples
also sets one invalid entry; each drawn float is written with ``repr``, so
the run sees exactly the value drawn.  Each example runs one subcommand
serially: it returns 0 or 1, or 2 with a ``config error:`` line.  An example
runs when each block plan of the config the run builds (the file with the
run's ``--out-dir`` and ``--workers``) is either refused (above the plan's
bound on a replication's expected points plus candidate pairs, say, before
anything is drawn) or stays below 2^20 units a replication, which keeps
memory near 100 MB, and 2^22 units over the run's replications, which keeps
the file within ~20 s.  Transform stacks with two ``outside`` cuts are not
drawn: a d=3 ``variance-growth`` with two was seen to run past 60 s, and one
cut already makes a d=2 overlap slow.
"""

import io
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from rcmlab import cli
from rcmlab.config import ConfigError
from rcmlab.connfn import ConnFnError
from rcmlab.moments import ModelError
from rcmlab.simulator import SimulationError, _replication_work, block_plan

COMMANDS = ("moments", "simulate", "clt-test", "truncation-demo", "variance-growth",
            "martingale-check")
HANDLED = (ConfigError, ConnFnError, ModelError, SimulationError)


def _floats(values):
    return ", ".join(map(repr, values))


# one entry each that the config or a subcommand refuses, ending in exit 2
INVALID = (
    ("model.g.a", "0"),
    ("model.g.table", "0:1, 0.5:1.5, 1:0"),
    ("model.g.transforms", "scale:-1"),
    ("run.n_list", "0.5"),
    ("run.R_list", "0"),
    ("run.m", "1"),
    ("numerics.max_subdiv", "2"),
    ("numerics.tail_eps", "1e-3"),
    ("numerics.eps_edges", "0"),
)


@st.composite
def tables(draw):
    """(radius, value) pairs falling from (0, 1) to value 0."""
    k = draw(st.integers(1, 3))
    steps = draw(st.lists(st.floats(0.05, 1.5), min_size=k, max_size=k))
    values = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=k - 1, max_size=k - 1)))
    radii = [0.0]
    for step in steps:
        radii.append(radii[-1] + step)
    return ", ".join(f"{r!r}:{v!r}" for r, v in zip(radii, [1.0, *values[::-1], 0.0]))


@st.composite
def configs(draw):
    d = draw(st.integers(1, 3))
    abs_tol = draw(st.sampled_from([1e-6, 1e-10]))
    items = {
        "model.d": str(d),
        "model.K.lower": _floats([draw(st.sampled_from([0.0, -1e3, 1e3]))] * d),
        "model.K.sides": _floats(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d))),
        "model.g.kind": draw(st.sampled_from(["hard_disk", "exponential", "gaussian", "table"])),
        "model.g.a": repr(draw(st.floats(0.05, 5.0))),
        "model.g.table": draw(tables()),
        "model.g.transforms": ", ".join(f"{op}:{arg!r}" for op, arg in draw(st.lists(
            st.tuples(st.sampled_from(["inside", "outside", "scale"]), st.floats(0.2, 3.0)),
            max_size=2,
        ).filter(lambda steps: [op for op, _ in steps].count("outside") <= 1))),
        "model.lambda": repr(draw(st.floats(0.01, 10.0))),
        "run.n_list": _floats(draw(st.lists(st.floats(1.0, 4.0), min_size=1, max_size=2))),
        "run.R_list": _floats(draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=2))),
        "run.m": str(draw(st.sampled_from([100, 2]))),
        "numerics.rel_tol": repr(draw(st.sampled_from([1e-4, 1e-6, 1e-8]))),
        "numerics.abs_tol": repr(abs_tol),
        "numerics.max_subdiv": str(draw(st.sampled_from([16, 128, 512]))),
        "numerics.tail_eps": repr(abs_tol * draw(st.sampled_from([1.0, 1e-2]))),
        "numerics.eps_margin": repr(draw(st.sampled_from([1e-4, 1e-2, 0.5]))),
        "numerics.eps_edges": repr(draw(st.sampled_from([1e-2, 0.5]))),
    }
    if draw(st.integers(0, 4)) == 4:
        key, value = draw(st.sampled_from(INVALID))
        items[key] = value
    return items


def _plan_works(argv):
    """The expected work of a replication of each block plan the run of argv
    may build, on the config that run builds; a refused config or plan draws
    nothing and adds none."""
    try:
        cfg = cli._effective(cli.build_parser().parse_args(argv))
    except ConfigError:
        return []
    works = []
    for n, r0 in [(n, r0) for n in cfg.n_list for r0 in (0.0, *(R / n for R in cfg.R_list))]:
        try:
            model = cfg.model.at_n(n)
            plan = block_plan(model.g_n, model.lam_n, model.K, cfg.policy, r0, r0, model.K)
        except HANDLED:
            continue
        works.append(_replication_work(plan.lam_n, plan.box, plan.reach, plan.focus))
    return works


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(items=configs())
def test_every_drawn_config_ends_in_an_exit_code(command, items):
    m = int(items["run.m"])
    with tempfile.TemporaryDirectory() as out, redirect_stderr(io.StringIO()) as stderr:
        path = Path(out) / "fuzz.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in items.items()))
        argv = [command, "--config", str(path), "--out-dir", out, "--workers", "1"]
        assume(all(w < 2**20 and m * w < 2**22 for w in _plan_works(argv)))
        code = cli.main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("config error:")
    elif err:
        assert code == 1 and err.startswith("error:")
