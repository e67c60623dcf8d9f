import dataclasses
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rcmlab import cli
from rcmlab.acceptance import CriterionResult
from rcmlab.config import ConfigError, ExperimentConfig, load_config, parse_config
from rcmlab.moments import ModelConfig
from rcmlab.stats import StatsError

ROOT = Path(__file__).resolve().parents[1]

FULL = """
# experiment description
model.d = 2
model.lambda = 1.5
model.K.lower = 0, 0
model.K.sides = 1, 1
model.g.kind = exponential
model.g.a = 0.5
model.g.transforms = scale:2, inside:0.25
model.density_rule = scaled
run.n_list = 2, 4
run.R_list = 0.5
run.m = 100
run.base_seed = 7
numerics.rel_tol = 1e-7
numerics.ks_threshold = 0.1
output.format = json
"""

# FULL with a full-precision value on every list key
PRECISE = FULL + """
model.K.lower = 0.12345678901, -0.98765432109
model.K.sides = 1.0000001, 0.3333333333
run.n_list = 2.0000001, 4.00000003
run.R_list = 0.50000001, 1.2345678901
model.g.kind = table
model.g.table = 0:1, 0.3333333333:0.4444444444, 1.0000001:0
model.g.transforms = scale:1.0000001, inside:0.2500000001
"""

# the column order of every subcommand's CSV report
CSV_HEADERS = {
    "simulate": "statistic,R,n,lam_n,m,mean,se_mean,variance,config_hash,base_seed",
    "moments": "quantity,R,n,lam_n,value,error_bound,config_hash,base_seed",
    "clt-test": "n,lam_n,m,ks_distance,threshold,passed,config_hash,base_seed",
    "truncation-demo": "section,n,R,value,note",
    "variance-growth": "kind,n,lam_n,value,se,limit,gap",
    "covariance-field": "offset,cov,se",
    "martingale-check": "space,variance,telescoped,abs_diff",
    "verify-all": "criterion,name,passed",
}


class TestParsing:
    def test_full_config(self):
        cfg = parse_config(FULL)
        assert cfg.model.d == 2
        assert cfg.model.lam == 1.5
        assert cfg.model.K.sides == (1.0, 1.0)
        assert cfg.n_list == (2.0, 4.0)
        assert cfg.spec.rel_tol == 1e-7
        assert cfg.formats == ("json",)
        # transforms applied in order: scale by 2, then cut at 0.25
        assert cfg.model.g.eval(0.2) == pytest.approx(math.exp(-0.4 / 0.5))
        assert cfg.model.g.eval(0.3) == 0.0

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.model.d == 1
        assert cfg.model.g.kind == "exponential"
        assert cfg.formats == ("csv", "json")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("\n\nmodel.dd = 3\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_value_mentions_key(self):
        with pytest.raises(ConfigError, match="model.lambda"):
            parse_config("model.lambda = abc\n")

    @pytest.mark.parametrize(
        "key,text",
        [
            ("model.lambda", "1e400"),
            ("model.n", "nan"),
            ("model.g.a", "inf"),
            ("model.K.lower", "nan"),
            ("model.K.sides", "inf"),
            ("model.g.table", "0:1, nan:0"),
            ("model.g.transforms", "scale:inf"),
            ("model.density_rule", "1:-inf"),
            ("run.n_list", "2, inf"),
            ("run.R_list", "inf"),
            ("numerics.rel_tol", "nan"),
            ("numerics.ks_threshold", "-inf"),
        ],
    )
    def test_non_finite_number_names_the_key(self, key, text):
        with pytest.raises(ConfigError, match=f"key '{key}'.*not a finite number"):
            parse_config(f"{key} = {text}\n")

    def test_table_kind(self):
        cfg = parse_config(
            "model.g.kind = table\nmodel.g.table = 0:1, 0.5:0.4, 1:0\n"
        )
        assert cfg.model.g.eval(0.25) == pytest.approx(0.7)
        assert cfg.model.g.support_radius == 1.0

    def test_explicit_density_rule(self):
        cfg = parse_config("model.density_rule = 2:5.0, 4:17.0\nmodel.n = 2\nrun.n_list = 2, 4\n")
        assert cfg.model.at_n(2.0).lam_n == 5.0

    def test_density_rule_covers_the_n_list(self):
        with pytest.raises(ConfigError, match="^run.n_list: .*n=4"):
            parse_config("model.density_rule = 1:1, 2:4\nrun.n_list = 2, 4\n")

    def test_density_rule_covers_model_n(self):
        with pytest.raises(ConfigError, match="^model.n: .*n=1"):
            parse_config("model.density_rule = 2:4, 4:16\nrun.n_list = 2, 4\n")

    def test_density_rule_names_each_n_once(self):
        with pytest.raises(ConfigError, match="model.density_rule"):
            parse_config("", ["model.density_rule=1:1,1:2"])

    def test_cross_validation(self):
        with pytest.raises(ConfigError):
            parse_config("model.d = 2\n")  # K stays 1-dimensional
        with pytest.raises(ConfigError):
            parse_config("run.m = 1\n")
        with pytest.raises(ConfigError):
            parse_config("output.format = yaml\n")
        with pytest.raises(ConfigError):
            parse_config("numerics.ks_threshold = 2\n")

    def test_overrides(self):
        cfg = parse_config(FULL, ["run.m=250", "model.lambda=2.0"])
        assert cfg.m == 250
        assert cfg.model.lam == 2.0
        with pytest.raises(ConfigError, match="--set: unknown key 'nope'"):
            parse_config(FULL, ["nope=1"])

    def test_an_override_replaces_the_entry_before_validation(self):
        assert parse_config("run.m = 1\n", ["run.m=50"]).m == 50

    def test_hash_ignores_execution_details(self):
        base = parse_config(FULL)
        assert base.config_hash() == parse_config(FULL, ["output.dir=elsewhere"]).config_hash()
        assert base.config_hash() == parse_config(FULL, ["run.workers=4"]).config_hash()
        assert base.config_hash() != parse_config(FULL, ["model.lambda=9"]).config_hash()

    def test_canonical_roundtrip(self):
        cfg = parse_config(FULL)
        again = parse_config("".join(f"{k} = {v}\n" for k, v in cfg.entries))
        assert again.config_hash() == cfg.config_hash()
        assert again == cfg

    @pytest.mark.parametrize(
        "key,value",
        [
            ("model.K.lower", "1234567.0, -0.98765432109"),
            ("model.K.sides", "1.00000049, 0.3333333333333333"),
            ("run.n_list", "3.0000001, 1234567.5"),
            ("run.R_list", "0.70000001, 1.2345678901"),
            ("model.g.table", "0:1, 0.6666666667:0.1234567891, 2.0000001:0"),
            ("model.g.transforms", "outside:0.1000000001, scale:3.0000001"),
        ],
    )
    def test_an_override_is_the_file_entry(self, key, value):
        # the override and the file's other list entries keep every digit
        cfg = parse_config(PRECISE, [f"{key}={value}"])
        assert cfg == parse_config(PRECISE + f"{key} = {value}\n")
        assert dict(cfg.entries)[key] == value

    def test_an_experiment_holds_its_model_and_copies_none_of_it(self):
        experiment = {f.name for f in dataclasses.fields(ExperimentConfig)}
        model = {f.name for f in dataclasses.fields(ModelConfig)}
        assert "model" in experiment and not experiment & model

    def test_hash_covers_the_seventh_digit(self):
        sides = [parse_config(f"model.K.sides = {v}\n").config_hash() for v in ("1", "1.000001")]
        assert sides[0] != sides[1]

    def test_an_explicit_density_rule_hashes_as_its_pairs(self):
        cfgs = [parse_config(f"model.density_rule = {rule}\nrun.n_list = 1, 2\n")
                for rule in ("1:1, 2:4", "1:1.0,2:4")]
        assert cfgs[0] == cfgs[1] and cfgs[0].config_hash() == cfgs[1].config_hash()
        assert dict(cfgs[1].entries)["model.density_rule"] == "1:1, 2:4"

    def test_scaled_configs_keep_their_hashes(self):
        from rcmlab.acceptance import _DET_CONFIG

        hashes = [load_config(str(ROOT / "configs" / name)).config_hash()
                  for name in ("default.cfg", "clt_2d.cfg")]
        hashes.append(parse_config(_DET_CONFIG).config_hash())
        assert hashes == ["51660aa991d14da1", "53e9db059be677d9", "4a909429b6f60a8c"]

    @pytest.mark.parametrize(
        "kind,unread",
        [
            ("model.g.kind = exponential\n", "model.g.table = 0:1, 1:0\n"),
            ("model.g.kind = table\nmodel.g.table = 0:1, 0.5:0.4, 1:0\n", "model.g.a = 2.5\n"),
        ],
    )
    def test_the_unread_connection_key_leaves_the_hash(self, kind, unread):
        base, other = parse_config(kind), parse_config(kind + unread)
        assert other.model.g == base.model.g
        assert other.config_hash() == base.config_hash()
        assert other == base

    @pytest.mark.parametrize(
        "kind,key,text",
        [
            ("model.g.kind = exponential\n", "model.g.table", "0:1, x:0"),
            ("model.g.kind = hard_disk\n", "model.g.table", "0:1, nan:0"),
            ("model.g.kind = table\nmodel.g.table = 0:1, 1:0\n", "model.g.a", "abc"),
            ("model.g.kind = table\nmodel.g.table = 0:1, 1:0\n", "model.g.a", "inf"),
        ],
    )
    def test_a_bad_unread_connection_key_is_a_config_error(self, kind, key, text):
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            parse_config(kind + f"{key} = {text}\n")


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "model.d = 1\n"
        "model.lambda = 1.0\n"
        "model.g.kind = exponential\n"
        "model.g.a = 1.0\n"
        "run.n_list = 2\n"
        "run.R_list = 1.0\n"
        "run.m = 150\n"
        "run.base_seed = 11\n"
        f"output.dir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    return path


class TestCli:
    def test_moments_writes_reports(self, cfg_file, tmp_path):
        rc = cli.main(["moments", "--config", str(cfg_file)])
        assert rc == 0
        csv_text = (tmp_path / "out" / "moments.csv").read_text()
        assert csv_text.startswith("quantity,")
        payload = json.loads((tmp_path / "out" / "moments.json").read_text())
        assert payload["base_seed"] == 11
        names = {row["quantity"] for row in payload["rows"]}
        assert {"mean_isolated", "mean_excess", "var_excess", "limit_var_isolated"} <= names

    def test_flags_keep_every_digit_of_the_file(self, cfg_file, tmp_path):
        with cfg_file.open("a", encoding="utf-8") as fh:
            fh.write("model.K.sides = 1.00000049\n")
        assert cli.main(["moments", "--config", str(cfg_file)]) == 0
        argv = ["moments", "--config", str(cfg_file), "--workers", "1", "--out-dir", str(tmp_path / "o4")]
        assert cli.main(argv) == 0
        plain = (tmp_path / "out" / "moments.json").read_bytes()
        assert (tmp_path / "o4" / "moments.json").read_bytes() == plain
        rounded = load_config(str(cfg_file), ["model.K.sides=1"]).config_hash()
        assert json.loads(plain)["config_hash"] != rounded

    def test_simulate_with_dump(self, cfg_file, tmp_path):
        dump = tmp_path / "realization.txt"
        rc = cli.main(
            ["simulate", "--config", str(cfg_file), "--dump-realization", str(dump)]
        )
        assert rc == 0
        assert dump.exists()
        assert (tmp_path / "out" / "simulate.csv").exists()

    def test_clt_test_failing_exit_code(self, cfg_file):
        # m=150 of a low-count statistic cannot look normal
        rc = cli.main(["clt-test", "--config", str(cfg_file)])
        assert rc == 1

    def test_clt_test_below_100_replications_is_config_error(
        self, cfg_file, tmp_path, monkeypatch, capsys
    ):
        def no_replications(*args, **kwargs):
            raise AssertionError("replicated before the config was checked")

        monkeypatch.setattr(cli, "replicate", no_replications)
        out = tmp_path / "clt"
        argv = ["clt-test", "--config", str(cfg_file), "--out-dir", str(out), "--set", "run.m=50"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "run.m" in err
        assert list(out.iterdir()) == []  # no report, no run_meta.txt

    def test_truncation_demo(self, cfg_file, tmp_path):
        rc = cli.main(
            ["truncation-demo", "--config", str(cfg_file), "--set", "run.R_list=2.0",
             "--set", "run.m=100"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "truncation_demo.json").read_text())
        sections = {row["section"] for row in payload["rows"]}
        assert {"coupling", "swapped_mean_density", "collapse_fraction"} <= sections

    def test_martingale_check(self, cfg_file, tmp_path):
        rc = cli.main(["martingale-check", "--config", str(cfg_file)])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "martingale_check.json").read_text())
        assert payload["passed"] is True

    def test_covariance_field_cli(self, cfg_file, tmp_path):
        rc = cli.main(
            ["covariance-field", "--config", str(cfg_file),
             "--set", "model.d=2", "--set", "model.K.lower=0,0",
             "--set", "model.K.sides=1,1", "--set", "model.g.kind=hard_disk",
             "--set", "model.g.a=0.5", "--set", "run.m=400"]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "covariance_field.json").read_text())
        assert payload["positive_by_3se"] is True

    def test_variance_growth(self, cfg_file, tmp_path):
        rc = cli.main(
            ["variance-growth", "--config", str(cfg_file), "--set", "run.m=200"]
        )
        assert rc == 0
        assert (tmp_path / "out" / "variance_growth.csv").exists()

    _PLANE = ["--set", "model.d=2", "--set", "model.K.lower=0,0", "--set", "model.K.sides=1,1"]

    @pytest.mark.parametrize("sets, named", [
        ([], "model.d"),
        (_PLANE, "bounded-support"),
        ([*_PLANE, "--set", "model.g.kind=hard_disk", "--set", "model.g.a=0.5",
          "--set", "run.n_list=2.5,2.7"], "run.n_list"),
    ], ids=["d1", "unbounded", "fractional_n"])
    def test_lower_bound_outside_d2_fails_before_the_sweep(
        self, cfg_file, tmp_path, monkeypatch, capsys, sets, named
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("density sweep ran before the config was checked")

        monkeypatch.setattr(cli, "replicate", no_sweep)
        argv = ["variance-growth", "--config", str(cfg_file), "--lower-bound", *sets]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not (tmp_path / "out" / "variance_growth.csv").exists()

    def test_seed_flag_overrides(self, cfg_file, tmp_path):
        rc = cli.main(["moments", "--config", str(cfg_file), "--seed", "77"])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "moments.json").read_text())
        assert payload["base_seed"] == 77

    def test_missing_config_is_config_error(self):
        assert cli.main(["moments", "--config", "/nonexistent/x.cfg"]) == 2

    def test_bad_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.lambda = -3\n", encoding="utf-8")
        assert cli.main(["moments", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "flags", [["--workers", "-3"], ["--set", "run.workers=-3"]], ids=["flag", "set"]
    )
    def test_negative_workers_is_config_error(self, flags, cfg_file, tmp_path, capsys):
        out = tmp_path / "neg"
        rc = cli.main(["clt-test", "--config", str(cfg_file), "--out-dir", str(out), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "run.workers" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moments", "simulate"])
    def test_density_rule_gap_is_config_error(self, command, cfg_file, tmp_path, capsys):
        out = tmp_path / "gap"
        rc = cli.main(
            [command, "--config", str(cfg_file), "--out-dir", str(out),
             "--set", "model.density_rule=1:1,2:4", "--set", "run.n_list=2,4"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["moments", "simulate", "truncation-demo"])
    @pytest.mark.parametrize("key", ["run.n_list", "run.R_list"])
    def test_empty_list_is_config_error(self, command, key, cfg_file, tmp_path, capsys):
        out = tmp_path / "empty"
        argv = [command, "--config", str(cfg_file), "--out-dir", str(out), "--set", f"{key}="]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["model.g.a=inf", "run.R_list=inf", "model.K.lower=nan"])
    def test_non_finite_override_is_config_error(self, item, cfg_file, tmp_path, capsys):
        argv = ["moments", "--config", str(cfg_file), "--out-dir", str(tmp_path), "--set", item]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and item.partition("=")[0] in err

    # tail_eps equal to abs_tol: the inner spec of the d = 2 overlap integral
    # tightens abs_tol tenfold and caps tail_eps with it
    def test_tail_eps_at_the_absolute_tolerance_runs(self, tmp_path):
        argv = ["moments", "--config", str(ROOT / "configs" / "clt_2d.cfg"),
                "--out-dir", str(tmp_path), "--set", "numerics.tail_eps=1e-10"]
        assert cli.main(argv) == 0

    # finite but extreme model sizes: the expected point count of K or of the
    # window is beyond a Poisson draw, the moment bound's exponential
    # overflows, or no finite radius bounds the tail; each names the number
    # it cannot take
    @pytest.mark.parametrize("command,item,says", [
        ("simulate", "run.n_list=1e308", "vol(K) = 1e+308 expected points"),
        ("simulate", "model.g.a=1e300", "vol(window) = 1.40274e+303 expected points"),
        ("simulate", "model.g.a=1e307", "exponential scale a = 1e+307"),
        # the mass 2e307 is finite, but not the bracket's pair constant
        ("moments", "model.g.a=1e307", "mu int(g) = 2e+307"),
        ("simulate", "model.K.sides=1e308", "vol(K) = inf expected points"),
        ("truncation-demo", "run.R_list=1e300", "vol(window) = 2e+300 expected points"),
        ("moments", "run.n_list=1e308", "intensity 1e+308"),
    ])
    def test_extreme_model_sizes_end_in_an_error_line(self, command, item, says, tmp_path,
                                                      capsys):
        argv = [command, "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--set", item]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and says in err

    # a mass omega_d a^d Gamma(d/2) / 2 of 1.5e308: the tail radius is
    # finite, but the window's Poisson mean and the bracket's pair constant
    # overflow
    @pytest.mark.parametrize("command", ["simulate", "moments"])
    def test_overflowing_tail_mass_ends_in_an_error_line(self, command, tmp_path, capsys):
        argv = [command, "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path)]
        for item in ("model.d=3", "model.K.lower=0,0,0", "model.K.sides=1,1,1",
                     "model.g.kind=gaussian", "model.g.a=3e102"):
            argv += ["--set", item]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        says = {"simulate": "lam_n * vol(window) = inf expected points",
                "moments": "mu int(g) = 1.50345e+308"}[command]
        assert err.startswith("error:") and says in err

    # d = 3, lambda = 10, exponential(5) at n = 2: ~1.8e8 points a replication,
    # refused by the plan before anything is drawn
    def test_replication_beyond_the_work_bound_ends_in_an_error_line(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--workers", "1"]
        for item in ("model.d=3", "model.K.lower=0,0,0", "model.K.sides=1,1,1",
                     "model.lambda=10", "model.g.a=5", "run.n_list=2"):
            argv += ["--set", item]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a replication's expected work")
        assert "exceeds the bound of 16777216" in err

    # a dense d = 3 model, mean degree ~452: the moment bracket's tail budget
    # tail_eps / (c 2^d) with c ~ exp(2 mu int(g)) leaves floats.  A hard disk
    # has its support radius whatever the budget; an exponential g ends in an
    # error line that names the budget
    @pytest.mark.parametrize("kind,code,says", [
        ("hard_disk", 0, ""),
        ("exponential", 1, "error: the bracket tail budget tail_eps / (c 2^d) = exp(-5468.37)"),
    ])
    def test_underflowing_bracket_budget(self, kind, code, says, tmp_path, capsys):
        argv = ["variance-growth", "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--workers", "1"]
        for item in ("model.d=3", "model.K.lower=0,0,0", "model.K.sides=1,1,1",
                     f"model.g.kind={kind}", "model.g.a=3", "model.lambda=4", "run.m=20"):
            argv += ["--set", item]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(says) if says else err == ""

    # eps * factor^d overflows, but the whole mass is far below every budget,
    # so the margin and the reach are 0 and the run goes through
    def test_negligible_scaled_mass_runs(self, tmp_path, capsys):
        argv = ["simulate", "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--set", "run.m=50"]
        for item in ("model.d=2", "model.K.lower=0,0", "model.K.sides=1,1",
                     "model.g.transforms=scale:1e200"):
            argv += ["--set", item]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        rows = json.loads((tmp_path / "simulate.json").read_text())["rows"]
        assert [row["m"] for row in rows] == [50] * 9

    # a margin or reach budget above the tail mass beyond a (at lambda = 0.02,
    # or a wide eps) puts that tail radius below a / 2
    @pytest.mark.parametrize("command,item", [
        ("simulate", "model.lambda=0.02"),
        ("simulate", "numerics.eps_margin=3"),
        ("simulate", "numerics.eps_edges=50"),
        ("truncation-demo", "model.lambda=0.02"),
        ("variance-growth", "model.lambda=0.02"),
        ("clt-test", "model.lambda=0.02"),
    ])
    def test_wide_tail_budgets_run(self, command, item, tmp_path, capsys):
        argv = [command, "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--set", "run.m=200", "--set", item]
        rc = cli.main(argv)
        assert capsys.readouterr().err == ""
        if command == "clt-test":
            # ~0.04 to 0.16 points in K: the count is far from normal, and the
            # exit status is the KS verdict
            rows = json.loads(next(tmp_path.glob("*.json")).read_text())["rows"]
            assert rc == 1 and rows and not any(row["passed"] for row in rows)
        else:
            assert rc == 0

    # a run's process pool is shut down, its workers joined, on every exit
    @pytest.mark.parametrize("code,fault", [(0, None), (1, StatsError("late")),
                                            (2, OSError("disk full"))])
    def test_no_worker_outlives_the_command(self, code, fault, pools, monkeypatch, tmp_path):
        if fault is not None:
            def emit(*args, **kwargs):
                raise fault

            monkeypatch.setattr(cli, "_emit", emit)
        argv = ["simulate", "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--set", "run.m=200", "--set", "run.n_list=2, 4",
                "--workers", "2"]
        assert cli.main(argv) == code
        assert multiprocessing.active_children() == []
        # both n share the command's one pool
        assert len(pools) == 1 and pools[0].shutdowns == 1

    def test_vanishing_intensity_simulates_empty_replications(self, tmp_path):
        argv = ["simulate", "--config", str(ROOT / "configs" / "default.cfg"),
                "--out-dir", str(tmp_path), "--set", "model.lambda=1e-300", "--format", "json"]
        assert cli.main(argv) == 0
        rows = json.loads((tmp_path / "simulate.json").read_text())["rows"]
        assert len(rows) == 9 and all(row["mean"] == 0.0 for row in rows)

    @pytest.mark.parametrize(
        "command,code", [("moments", 0), ("simulate", 0), ("clt-test", 1), ("martingale-check", 0)]
    )
    def test_run_meta_names_the_subcommand(self, command, code, cfg_file, tmp_path):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg_file), "--out-dir", str(out)]) == code
        meta = (out / "run_meta.txt").read_text(encoding="utf-8").splitlines()
        assert meta[0] == f"command: {command}"
        assert meta[1] == f"config_hash: {load_config(str(cfg_file)).config_hash()}"

    def test_no_run_meta_when_the_handler_fails(self, cfg_file, tmp_path):
        out = tmp_path / "field"
        # the exponential function has unbounded support, which this subcommand refuses
        assert cli.main(["covariance-field", "--config", str(cfg_file), "--out-dir", str(out)]) == 2
        assert not (out / "run_meta.txt").exists()

    def test_out_dir_below_a_file_is_config_error(self, cfg_file, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("", encoding="utf-8")
        out = plain / "x"
        assert cli.main(["moments", "--config", str(cfg_file), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err

    def test_verify_all_out_dir_below_a_file_fails_before_the_suite(
        self, cfg_file, tmp_path, capsys
    ):
        plain = tmp_path / "plain"
        plain.write_text("", encoding="utf-8")
        argv = ["verify-all", "--config", str(cfg_file), "--out-dir", str(plain / "x")]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error:")
        assert not any(line.startswith(("PASS", "FAIL")) for line in out.splitlines())

    def test_dump_in_a_missing_directory_is_config_error(self, cfg_file, tmp_path, capsys):
        dump = tmp_path / "missing" / "x.txt"
        rc = cli.main(
            ["simulate", "--config", str(cfg_file), "--set", "run.m=10",
             "--dump-realization", str(dump)]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(dump) in err
        assert not (tmp_path / "out" / "simulate.csv").exists()  # refused before any work

    @pytest.mark.parametrize("command", sorted(CSV_HEADERS))
    def test_csv_header_order(self, command, cfg_file, tmp_path, monkeypatch):
        def one_criterion(ctx):
            return [CriterionResult("c01", "criterion", True, 0.5)]

        monkeypatch.setattr(cli, "run_all", one_criterion)
        argv = [command, "--config", str(cfg_file), "--set", "run.m=100", "--format", "csv"]
        if command == "covariance-field":
            argv += ["--set", "model.d=2", "--set", "model.K.lower=0,0", "--set",
                     "model.K.sides=1,1", "--set", "model.g.kind=hard_disk"]
        assert cli.main(argv) in (0, 1)
        stem = command.replace("-", "_")
        lines = (tmp_path / "out" / f"{stem}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADERS[command]

    def test_verify_all_runtimes_go_to_run_meta_only(self, cfg_file, tmp_path, monkeypatch):
        def two_criteria(ctx):
            return [CriterionResult("c01", "one", True, 0.5),
                    CriterionResult("c02", "two", True, 1.25)]

        monkeypatch.setattr(cli, "run_all", two_criteria)
        out = tmp_path / "v"
        assert cli.main(["verify-all", "--config", str(cfg_file), "--out-dir", str(out)]) == 0
        for name in ("verify_all.csv", "verify_all.json"):
            assert "runtime" not in (out / name).read_text(encoding="utf-8")
        meta = (out / "run_meta.txt").read_text(encoding="utf-8").splitlines()
        assert meta[-2:] == ["runtime_s.c01: 0.500", "runtime_s.c02: 1.250"]

    def test_unknown_subcommand_rejected(self, cfg_file):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate", "--config", str(cfg_file)])

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        cli.main(["moments", "--config", str(cfg_file), "--out-dir", str(tmp_path / "a")])
        cli.main(["moments", "--config", str(cfg_file), "--out-dir", str(tmp_path / "b")])
        for name in ("moments.csv", "moments.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def readme_commands():
    """Every line of a README code block that starts with `rcmlab `."""
    commands, in_block = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("rcmlab "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert any(argv[0] == "moments" and "--set" in argv for argv in commands)
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        config = ROOT / args.config
        assert config.is_file(), f"{args.config} named in README does not exist"
        load_config(str(config), args.set)  # the overrides name real keys


# Run ahead of a _fresh_interpreter snippet: records, for every module loaded
# after it, the module whose code imported it, and defines absent().
_IMPORT_WATCH = """
import sys


class _ImportWatch:
    def __init__(self):
        self.importer = {}

    def find_spec(self, name, path=None, target=None):
        # the first frame outside the import machinery and a package's lazy
        # __getattr__ (as scipy's) runs the import statement
        frame = sys._getframe(1)
        while (frame.f_code.co_filename.startswith("<frozen") or frame.f_code.co_name == "__getattr__"
               or frame.f_globals.get("__name__", "").partition(".")[0] == "importlib"):
            frame = frame.f_back
        self.importer.setdefault(name, frame.f_globals.get("__name__", "?"))
        return None


_watch = _ImportWatch()
sys.meta_path.insert(0, _watch)


def absent(*names):
    \"\"\"Assert that no module in names, nor any submodule of one, is loaded,
    naming the module that first imported each one that is.\"\"\"
    held = {}
    for m in [*_watch.importer, *sys.modules]:  # in the order their imports began
        for n in names:
            if m in sys.modules and (m == n or m.startswith(n + ".")):
                held.setdefault(n, m)
    assert not held, "; ".join(
        f"{m} is loaded, first imported by {_watch.importer.get(m, 'the interpreter start')}"
        for m in held.values())
"""


def _fresh_interpreter(code):
    """Run code in a fresh interpreter: pytest's own may already hold the
    modules a test looks for.  The code may call absent(*names)."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _IMPORT_WATCH + code],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_fresh_interpreter_names_the_importer():
    with pytest.raises(AssertionError, match="scipy.special is loaded, first imported by rcmlab.connfn"):
        _fresh_interpreter("""
from rcmlab import gaussian
gaussian(1.0).tail_radius(1e-6, 3)
absent("rcmlab.simulator", "scipy.special")
""")


def test_root_import_loads_only_the_formula_layer():
    _fresh_interpreter("""
import rcmlab

absent("rcmlab.simulator", "rcmlab.stats", "scipy")
from rcmlab import ModelConfig, exponential, gaussian, limit_var_isolated, unit_box, var_isolated

limit_var_isolated(1.0, exponential(0.3), 2)
var_isolated(ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=2.0))
absent("scipy")
from rcmlab.stats import replicate_many
assert "rcmlab.simulator" in sys.modules
absent("scipy")
gaussian(1.0).tail_radius(1e-6, 3)
assert "scipy.special" in sys.modules
""")


def test_d1_replications_load_no_scipy():
    _fresh_interpreter("""
from rcmlab import ModelConfig, exponential, unit_box
from rcmlab.stats import StatRequest, replicate_many

cfg = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=2.0)  # c02's model
out = replicate_many(cfg, [StatRequest(name="L", kind="excess", r0=0.5)], 200, 7, workers=1)
assert out["L"].values.sum() > 0
absent("scipy")
""")


def test_d2_replications_load_the_tree_search_alone():
    _fresh_interpreter("""
from rcmlab import ModelConfig, exponential, unit_box
from rcmlab.stats import StatRequest, replicate_many

absent("scipy")
cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)
replicate_many(cfg, [StatRequest(name="I", kind="isolated")], 4, 7, workers=1)
assert _watch.importer["scipy.spatial"] == "rcmlab.simulator"
absent("scipy.sparse.csgraph")
""")


def test_ks_normality_loads_the_normal_cdf():
    _fresh_interpreter("""
import numpy as np
from rcmlab.stats import ks_normality

absent("scipy")
ks_normality(np.random.default_rng(1).standard_normal(200))
assert _watch.importer["scipy.special"] == "rcmlab.stats"
""")


def test_acceptance_preloads_the_tree_search():
    _fresh_interpreter("""
import multiprocessing

import rcmlab.acceptance
from rcmlab import stats

assert _watch.importer["scipy.spatial"] == "rcmlab.acceptance"
assert not stats._pools and not multiprocessing.active_children()
""")


def test_pool_workers_load_the_tree_search_themselves():
    _fresh_interpreter("""
import numpy as np
from rcmlab import ModelConfig, exponential, unit_box
from rcmlab.stats import StatRequest, replicate_many, run_scope

cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=4.0)
reqs = [StatRequest(name="I", kind="isolated"), StatRequest(name="L", kind="excess", r0=0.1)]
with run_scope():
    pooled = replicate_many(cfg, reqs, 16, 7, workers=2)
absent("scipy.spatial")
serial = replicate_many(cfg, reqs, 16, 7, workers=1)
for name in ("I", "L"):
    assert np.array_equal(pooled[name].values, serial[name].values)
""")


def test_cli_loads_csgraph_only_for_components():
    _fresh_interpreter("""
import numpy as np
import rcmlab.cli
from rcmlab.connfn import hard_disk
from rcmlab.quadrature import unit_box
from rcmlab.simulator import connect, count_components

absent("scipy.optimize", "scipy.sparse.csgraph")
pts = np.array([[0.4, 0.5], [0.6, 0.5], [0.2, 0.2]])
graph = connect(pts, hard_disk(0.25), unit_box(2).expand(1.0), 0.25, 3)
assert count_components(graph, unit_box(2), 2) == 1.0
assert "scipy.sparse.csgraph" in sys.modules
""")
