"""rcmlab's subcommands on drawn configs end in an exit code, never a traceback.

``fuzz_configs.json`` holds 30 configs per subcommand, each a dict of keys
of ``config._KEYS`` (d, K, kind, a, table, transforms, lambda, the n and R
lists, m, tolerances and budgets) with every float written by ``repr``.
Hypothesis drew them, derandomized, in their valid ranges: K's lower corner
at 0, -1000 or 1000, at most one ``outside`` cut in a transform stack, and
one in five examples with one invalid entry (a = 0, a rising table, a
negative scale, n = 0.5, R = 0, m = 1, max_subdiv = 2, tail_eps = 1e-3 or
eps_edges = 0).  An example was kept when each block plan of its run stayed
below 2^20 units a replication and 2^22 over the run's replications, or was
refused; the file is the 30 kept per subcommand, in the order drawn, and
repeats a config where the draws did.  Read from a file, the configs do not
move when the code under test does.  Each config runs its subcommand
serially: it returns 0 or 1, or 2 with a ``config error:`` line.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from rcmlab import cli

COMMANDS = ("moments", "simulate", "clt-test", "truncation-demo", "variance-growth",
            "martingale-check")
CONFIGS = json.loads(Path(__file__).with_name("fuzz_configs.json").read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_every_drawn_config_ends_in_an_exit_code(command):
    drawn = [items for name, items in CONFIGS if name == command]
    assert len(drawn) == 30
    for k, items in enumerate(drawn):
        with tempfile.TemporaryDirectory() as out, redirect_stderr(io.StringIO()) as stderr:
            path = Path(out) / "fuzz.cfg"
            path.write_text("".join(f"{key} = {value}\n" for key, value in items.items()))
            code = cli.main([command, "--config", str(path), "--out-dir", out, "--workers", "1"])
        err = stderr.getvalue()
        assert code in (0, 1, 2), (k, items)
        if code == 2:
            assert err.startswith("config error:"), (k, err)
        elif err:
            assert code == 1 and err.startswith("error:"), (k, err)
