import json
import math
import shlex
from pathlib import Path

import pytest

from rcmlab import cli
from rcmlab.acceptance import CriterionResult
from rcmlab.config import ConfigError, load_config, parse_config

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
        assert cfg.d == 2
        assert cfg.lam == 1.5
        assert cfg.K.sides == (1.0, 1.0)
        assert cfg.n_list == (2.0, 4.0)
        assert cfg.spec.rel_tol == 1e-7
        assert cfg.formats == ("json",)
        # transforms applied in order: scale by 2, then cut at 0.25
        assert cfg.g.eval(0.2) == pytest.approx(math.exp(-0.4 / 0.5))
        assert cfg.g.eval(0.3) == 0.0

    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.d == 1
        assert cfg.g.kind == "exponential"
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
        assert cfg.g.eval(0.25) == pytest.approx(0.7)
        assert cfg.g.support_radius == 1.0

    def test_explicit_density_rule(self):
        cfg = parse_config("model.density_rule = 2:5.0, 4:17.0\nmodel.n = 2\n")
        assert cfg.model(2.0).lam_n == 5.0

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
        cfg = parse_config(FULL).with_overrides(["run.m=250", "model.lambda=2.0"])
        assert cfg.m == 250
        assert cfg.lam == 2.0
        with pytest.raises(ConfigError):
            parse_config(FULL).with_overrides(["nope=1"])

    def test_hash_ignores_execution_details(self):
        base = parse_config(FULL)
        assert base.config_hash() == base.with_overrides(["output.dir=elsewhere"]).config_hash()
        assert base.config_hash() == base.with_overrides(["run.workers=4"]).config_hash()
        assert base.config_hash() != base.with_overrides(["model.lambda=9"]).config_hash()

    def test_canonical_roundtrip(self):
        cfg = parse_config(FULL)
        again = parse_config(cfg.canonical())
        assert again.config_hash() == cfg.config_hash()


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

    def test_lower_bound_outside_d2_fails_before_the_sweep(
        self, cfg_file, tmp_path, monkeypatch, capsys
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("density sweep ran before the config was checked")

        monkeypatch.setattr(cli, "variance_density_convergence", no_sweep)
        assert cli.main(["variance-growth", "--config", str(cfg_file), "--lower-bound"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "model.d" in err
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

    def test_bad_workers_env_is_config_error(self, cfg_file, monkeypatch, capsys):
        monkeypatch.setenv("RCMLAB_WORKERS", "abc")
        assert cli.main(["clt-test", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "RCMLAB_WORKERS" in err

    @pytest.mark.parametrize("env", ["-3", "0"])
    def test_nonpositive_workers_env_is_config_error(self, env, cfg_file, monkeypatch, capsys):
        monkeypatch.setenv("RCMLAB_WORKERS", env)
        assert cli.main(["clt-test", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "RCMLAB_WORKERS" in err

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

    def test_zero_workers_means_unset(self, cfg_file, monkeypatch):
        monkeypatch.setenv("RCMLAB_WORKERS", "3")
        assert cli._workers(load_config(str(cfg_file), ["run.workers=0"])) == 3
        assert cli._workers(load_config(str(cfg_file), ["run.workers=2"])) == 2

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

    # finite but extreme model sizes: the expected point count of K or of the
    # window is beyond a Poisson draw, or the moment bound's exponential
    # overflows; each names the number it cannot take
    @pytest.mark.parametrize("command,item,says", [
        ("simulate", "run.n_list=1e308", "vol(K) = 1e+308 expected points"),
        ("simulate", "model.g.a=1e300", "vol(window) = 1.40274e+303 expected points"),
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
