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
        "moments.csv": "4603ddecf4059ea54c25c8bff0444e0c6ff35ef50137fff5031619eeda9643ce",
        "moments.json": "17058724c77fb3ca4d3c052454d4c8974c88209cc44aad5b84efa3cbb24b6eb2",
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
        "moments.csv": "f296172c35881c7c707420b3c9eb3b2defce30f96615c938a07f9cf6bf226970",
        "moments.json": "c3964f3cd9fa72a26eaea3a19fc165f4e924c1f879997a245bebe54f701a3f79",
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
        "moments.csv": "7d365afcc22c547f03555ff1811b2de44f387bdab747d1cc18fe25dd6351963e",
        "moments.json": "9ea1fe7c6a8896c47c2dc7f7ea90f2898d8890c0834adc9f080fc87b06f992be",
    }),
    "moments-2d-disk-n1": (
        "clt_2d.cfg",
        ["moments", "--set", "run.n_list=1", "--set", "model.g.kind=hard_disk",
         "--set", "model.g.a=1", "--set", "run.R_list=0.5"],
        0,
        {
            "moments.csv": "02c7011e4a2384ab5dbe6be075c07204128287553baa4764f588e75d342b0294",
            "moments.json": "b91144b4d4a0d1e595afb5463812e6af0725051c8fd442f01677464fa3833fea",
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
