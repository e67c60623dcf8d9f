"""Pinned report bytes: each subcommand below, run on a committed config,
writes reports whose sha256 digests are the ones recorded here.

run_meta.txt (wall clock) is left out, as the determinism guarantee leaves
it out.  `truncation-demo` runs at R = 2 > diam K, so its swapped
scale-then-cut section runs too.  A change that moves a report byte fails
here; a deliberate re-baseline re-pins the digests and says why.
"""

import hashlib
from pathlib import Path

import pytest

from rcmlab import cli

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# name: (config, subcommand and flags, exit code, {report file: sha256})
RUNS = {
    "moments": ("default.cfg", ["moments"], 0, {
        "moments.csv": "25e8acf72de97b86226e01ec93218dbf2e200675ddf1b6edecd821739db9d6a6",
        "moments.json": "686bc4b7c0f956cae6bd4a47895a5f0523d7d34c830a7e89d23f09c0e2094def",
    }),
    "simulate": ("default.cfg", ["simulate", "--set", "run.m=200"], 0, {
        "simulate.csv": "c5930d70f6a2ba9690883d6b26195f5c29666fe4f2c8e25b372a65c36ccc6227",
        "simulate.json": "49b7e2ed52df23a3ac2933f444750fec927fb881da0a207242dec954dd0a99c9",
    }),
    # exit 1: at lam_n <= 8 on the unit interval the count is too discrete for
    # the KS gate, which the reports record
    "clt-test": ("default.cfg", ["clt-test", "--set", "run.m=100"], 1, {
        "clt_test.csv": "aac19b8d7e10ed461467bad2c5dca3a381e79014732ef00a898fcdd4937b4bbf",
        "clt_test.json": "d0de623aa0f8156ba60243a13830f3e9063b955281c90115cc24b8b133580032",
    }),
    "truncation-demo": (
        "default.cfg",
        ["truncation-demo", "--set", "run.m=200", "--set", "run.R_list=2"],
        0,
        {
            "truncation_demo.csv":
                "03584fbf3844d9361d299c0f5d3cb42e2dd35d8d9827eae3df973c7bb962884e",
            "truncation_demo.json":
                "3e38d65bfcd861ef04b65fd07a70cfdc11ed67deff00e1b8af1b664a2322609b",
        },
    ),
    "variance-growth": ("default.cfg", ["variance-growth", "--set", "run.m=200"], 0, {
        "variance_growth.csv": "3aa8b15761ca64944344acf893d6f47364e03955a93080cb87e5f9e17557d705",
        "variance_growth.json": "c24ffdcfa167ca3be8f84db51b8816106b61262584447cb3895b07bc3a19f8c4",
    }),
    "moments-2d": ("clt_2d.cfg", ["moments", "--set", "run.n_list=2"], 0, {
        "moments.csv": "a8dd4805f9df73024cc924dfb37b80f68dfc4f5dcd2ff0a3278960dce395a5f2",
        "moments.json": "4208e92cb9c72c6978dd1d07570a5f4258f85224a1227d86628655e94ba3b093",
    }),
    "covariance-field": (
        "default.cfg",
        ["covariance-field", "--set", "model.g.kind=hard_disk", "--set", "model.g.a=0.5",
         "--set", "run.r=2", "--set", "run.m=200"],
        0,
        {
            "covariance_field.csv":
                "012108154545ab4bb2bbbf0f8f7386af91f7027563489fe18d74390cc0530c02",
            "covariance_field.json":
                "e887f906632820063cc3d2a27537ddbe411d1909eb88dd24f6980ac83cbdd928",
        },
    ),
    "covariance-field-2d": (
        "clt_2d.cfg",
        ["covariance-field", "--set", "model.g.kind=hard_disk", "--set", "model.g.a=0.5",
         "--set", "run.m=100"],
        0,
        {
            "covariance_field.csv":
                "91504390b1a5eac5309e6d5bb11f74a242916bb22232317c373202bc368040fd",
            "covariance_field.json":
                "5afd303a4e36149cd3b7258f3ce61493c091bbc2803745a67c23cf2704b56f65",
        },
    ),
    "variance-growth-lower-bound": (
        "clt_2d.cfg",
        ["variance-growth", "--lower-bound", "--set", "model.g.kind=hard_disk",
         "--set", "model.g.a=0.5", "--set", "run.m=100", "--set", "run.n_list=2,3"],
        0,
        {
            "variance_growth.csv":
                "7caa54558c58fe7768740301c208b64288bb5e0d029fff3a1cc15fa72b7c065b",
            "variance_growth.json":
                "87534254eb15ef02e52698c533d8ef17b12c87dd7d5d5091d405f461fcf29cb2",
        },
    ),
    # n = 1, where ModelConfig.g_n is g itself and g.scale(1.0) is another
    # object with the same values, cuts and tail radii
    "moments-n1": ("default.cfg", ["moments", "--set", "run.n_list=1,2"], 0, {
        "moments.csv": "5bdf0fe80b4cdc4c302a4ee0a93c19eb8fca620fba1956f7a8725327f4ae1558",
        "moments.json": "86825799d12e296dadcd6a58357e18f616e11b7ec28287742a6fe892001e6fa7",
    }),
    "moments-2d-disk-n1": (
        "clt_2d.cfg",
        ["moments", "--set", "run.n_list=1", "--set", "model.g.kind=hard_disk",
         "--set", "model.g.a=1", "--set", "run.R_list=0.5"],
        0,
        {
            "moments.csv": "b45c198996cecabb78d8b0ebfb665f71bd95de17faa8362932755e8f6b8d84ff",
            "moments.json": "3c0b8ddef81177bd48359393a9319b515f9d1ce82e86920680f9d4eb601820e9",
        },
    ),
    # the coupling twin at n = 1
    "truncation-demo-2d-n1": (
        "clt_2d.cfg",
        ["truncation-demo", "--set", "run.m=200", "--set", "run.n_list=1,2"],
        0,
        {
            "truncation_demo.csv":
                "feb1a5922ddf1453a43b10c94f77d96e2342af572383ff3753b77ea351bfb5ce",
            "truncation_demo.json":
                "5b18c1519b6c48289a57e34e50855abb65895765f6841c69c5b96102cdd57436",
        },
    ),
    "martingale-check": ("default.cfg", ["martingale-check"], 0, {
        "martingale_check.csv": "60e27236ac939eb5e344123d26c6ccd57d2a99af6cf7685e3268880114c86023",
        "martingale_check.json": "9894aa9b776d6270ed865f318fe651638ae327b2e01ebd37e2131bfc995cf8ea",
    }),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_report_digests(name, tmp_path):
    config, argv, code, digests = RUNS[name]
    rc = cli.main([*argv, "--config", str(CONFIGS / config), "--out-dir", str(tmp_path)])
    assert rc == code
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
        if path.name != "run_meta.txt"
    }
    assert written == digests
