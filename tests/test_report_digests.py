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
        "moments.csv": "cfbd0d99da5a9f4593bb6056223f883b14361c9098ae87885ffe67db40bf4531",
        "moments.json": "3e2780bfedb251580f83c774edb33b3353a107d2f64553bf2fc903b3fffcd0bd",
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
                "c346e396b10239cd7ee86f1b528b248b546787667eb094f39e544a4ededa5851",
            "truncation_demo.json":
                "ed80a014583a2ac4a273b8e050d216fc85e853fbbcefa0913769b64d3c723ec5",
        },
    ),
    "variance-growth": ("default.cfg", ["variance-growth", "--set", "run.m=200"], 0, {
        "variance_growth.csv": "1f2b2ed9a9ad5a0a87da0418d444a6a3c9252c36d3a5d65b8b283a6025d9a624",
        "variance_growth.json": "f6bfd9f00d34b1742f2f05962c0f8fb0b18b71533570765126915376a3a65e0f",
    }),
    "moments-2d": ("clt_2d.cfg", ["moments", "--set", "run.n_list=2"], 0, {
        "moments.csv": "a91f5267c0b46d8aa6eb4f16fd8636e518a61ad9eec14f50c838a6a35a9d1b1b",
        "moments.json": "24408e22b55ad490d412c4b1d96253f0edc40f4c409fe31a10582bc7286220e9",
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
        "moments.csv": "5f6875152bdc65a60cacd4cdd81d97247e74cf03b9d5f3555202e6c8fd410965",
        "moments.json": "79feed7ebee011b0728933675a860d030ba8ec57d9e94514be871e231353420c",
    }),
    "moments-2d-disk-n1": (
        "clt_2d.cfg",
        ["moments", "--set", "run.n_list=1", "--set", "model.g.kind=hard_disk",
         "--set", "model.g.a=1", "--set", "run.R_list=0.5"],
        0,
        {
            "moments.csv": "353dc0151f0b2dde8fc6afc9e492a0328965cc342dfc71fb8ce03369bcbd146d",
            "moments.json": "e90dd93a0228f2fd1c46da00b4f49d4cc7bdf1c3837ac84c41bebbcb25166f6d",
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
