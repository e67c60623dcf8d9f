"""Command-line front end: config parsing, experiment orchestration, reports.

Exit codes: 0 when every assertion of the subcommand passes, 1 on assertion
failure, 2 on configuration errors.  Given the same config and seed, every
subcommand produces byte-identical CSV/JSON payloads; wall-clock metadata
goes to a separate run_meta.txt excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .acceptance import AcceptanceContext, run_all
from .config import ConfigError, ExperimentConfig, load_config
from .connfn import ConnFnError
from .moments import (
    ModelError,
    limit_mean_excess,
    limit_var_excess,
    limit_var_isolated,
    mean_excess,
    mean_isolated,
    swapped_mean_density,
    var_excess,
    var_isolated,
    variance_ratio,
)
from .quadrature import QuadratureError
from .reports import write_csv, write_json, write_run_meta
from .simulator import SimulationError, dump_realization, simulate_graph
from .stats import (
    KS_MIN_REPLICATIONS,
    StatRequest,
    StatsError,
    coupling_check,
    covariance_field,
    exceedance_fraction,
    ks_normality,
    martingale_sweep,
    replicate,
    replicate_many,
    run_scope,
    variance_lower_bound,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcmlab",
        description="Random connection model laboratory: simulation, quadrature moments, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override run.base_seed")
        p.add_argument("--workers", type=int, default=None, help="override run.workers")
        p.add_argument("--out-dir", default=None, help="override output.dir")
        p.add_argument("--format", choices=("csv", "json", "both"), default=None,
                       help="override output.format")
        if name == "simulate":
            p.add_argument("--dump-realization", default=None, metavar="PATH",
                           help="write one raw realization (points + edges) as text")
        if name == "variance-growth":
            p.add_argument("--lower-bound", action="store_true",
                           help="also produce the quadratic lower-bound certificate (d=2)")
    return parser


def _effective(args) -> ExperimentConfig:
    """The config file with the command-line overrides."""
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"run.base_seed={args.seed}")
    if args.workers is not None:
        overrides.append(f"run.workers={args.workers}")
    if args.out_dir is not None:
        overrides.append(f"output.dir={args.out_dir}")
    if args.format is not None:
        overrides.append(f"output.format={args.format}")
    return load_config(args.config, overrides)


def _emit(cfg: ExperimentConfig, stem: str, rows, extra=None):
    """Write the rows as CSV, columns in the key order of the rows, and as JSON."""
    out = Path(cfg.out_dir)
    payload = {
        "base_seed": cfg.base_seed,
        "config_hash": cfg.config_hash(),
        "rows": rows,
    }
    if extra:
        payload.update(extra)
    if "csv" in cfg.formats:
        write_csv(out / f"{stem}.csv", rows[0].keys(), rows)
    if "json" in cfg.formats:
        write_json(out / f"{stem}.json", payload)


# -- subcommand handlers --------------------------------------------------------


def cmd_moments(cfg: ExperimentConfig, args) -> int:
    rows = []
    h = cfg.config_hash()

    def add(quantity, result, R=None, n=None, lam_n=None):
        rows.append(
            {
                "quantity": quantity,
                "R": R,
                "n": n,
                "lam_n": lam_n,
                "value": result.value,
                "error_bound": result.error,
                "config_hash": h,
                "base_seed": cfg.base_seed,
            }
        )

    lam, g, d = cfg.model.lam, cfg.model.g, cfg.model.d
    add("limit_var_isolated", limit_var_isolated(lam, g, d, cfg.spec))
    for R in cfg.R_list:
        add("limit_mean_excess", limit_mean_excess(lam, g, R, d), R=R)
        add("limit_var_excess", limit_var_excess(lam, g, R, d, cfg.spec), R=R)
        add("variance_ratio", variance_ratio(lam, g, R, d, cfg.spec), R=R)
    for n in cfg.n_list:
        model = cfg.model.at_n(n)
        add("mean_isolated", mean_isolated(model), n=n, lam_n=model.lam_n)
        add("var_isolated", var_isolated(model, cfg.spec), n=n, lam_n=model.lam_n)
        for R in cfg.R_list:
            add("mean_excess", mean_excess(model, R), R=R, n=n, lam_n=model.lam_n)
            add("var_excess", var_excess(model, R, cfg.spec), R=R, n=n, lam_n=model.lam_n)
    _emit(cfg, "moments", rows)
    return 0


def cmd_simulate(cfg: ExperimentConfig, args) -> int:
    R = cfg.R_list[0]
    rows = []
    bias = 0.0
    for n in cfg.n_list:
        model = cfg.model.at_n(n)
        reqs = [
            StatRequest(name="isolated", kind="isolated"),
            StatRequest(name="near_isolated", kind="near_isolated", r0=R / n),
            StatRequest(name="excess", kind="excess", r0=R / n),
        ]
        out = replicate_many(model, reqs, cfg.m, cfg.base_seed, cfg.policy, cfg.workers)
        for name in ("isolated", "near_isolated", "excess"):
            sample = out[name]
            bias = max(bias, sample.bias_bound)
            rows.append(
                {
                    "statistic": name,
                    "R": R,
                    "n": n,
                    "lam_n": model.lam_n,
                    "m": sample.m,
                    "mean": sample.mean,
                    "se_mean": sample.se_mean,
                    "variance": sample.variance,
                    "config_hash": cfg.config_hash(),
                    "base_seed": cfg.base_seed,
                }
            )
    _emit(cfg, "simulate", rows, extra={"bias_bound": bias})
    if getattr(args, "dump_realization", None):
        model = cfg.model.at_n(cfg.n_list[0])
        graph = simulate_graph(
            model.g_n, model.lam_n, model.K, cfg.base_seed, 0,
            cfg.policy, min_reach=R / cfg.n_list[0], min_margin=R / cfg.n_list[0],
        )
        dump_realization(graph, args.dump_realization)
    return 0


def cmd_clt_test(cfg: ExperimentConfig, args) -> int:
    if cfg.m < KS_MIN_REPLICATIONS:
        raise ConfigError(f"run.m must be >= {KS_MIN_REPLICATIONS} for the KS check, got {cfg.m}")
    rows = []
    all_ok = True
    bias = 0.0
    for n in cfg.n_list:
        model = cfg.model.at_n(n)
        sample = replicate(
            model,
            StatRequest(name="isolated", kind="isolated"),
            cfg.m,
            cfg.base_seed,
            cfg.policy,
            cfg.workers,
        )
        bias = max(bias, sample.bias_bound)
        ks = ks_normality(sample.values)
        ok = ks < cfg.ks_threshold
        all_ok = all_ok and ok
        rows.append(
            {
                "n": n,
                "lam_n": model.lam_n,
                "m": sample.m,
                "ks_distance": ks,
                "threshold": cfg.ks_threshold,
                "passed": ok,
                "config_hash": cfg.config_hash(),
                "base_seed": cfg.base_seed,
            }
        )
    _emit(cfg, "clt_test", rows, extra={"bias_bound": bias})
    return 0 if all_ok else 1


def cmd_truncation_demo(cfg: ExperimentConfig, args) -> int:
    R = cfg.R_list[0]
    rows = []
    coupling_ok = True
    bias = 0.0
    for n in cfg.n_list:
        exact, additive, out = coupling_check(
            cfg.model.at_n(n), R, min(cfg.m, 500), cfg.base_seed, cfg.policy, cfg.workers
        )
        bias = max(bias, out["I"].bias_bound)
        coupling_ok = coupling_ok and exact and additive
        rows.append(
            {
                "section": "coupling",
                "n": n,
                "R": R,
                "value": 1.0 if (exact and additive) else 0.0,
                "note": "1 when J == I(coupled cut graph) and J == I + L on every replication",
            }
        )

    diam = cfg.model.K.diameter
    if R > diam:
        for n in cfg.n_list:
            rows.append(
                {
                    "section": "swapped_mean_density",
                    "n": n,
                    "R": R,
                    "value": swapped_mean_density(cfg.model.at_n(n), R).value,
                    "note": "normalized mean when truncation is applied after scaling",
                }
            )
    else:
        rows.append(
            {
                "section": "swapped_mean_density",
                "n": None,
                "R": R,
                "value": None,
                "note": f"skipped: needs R > diam(K) = {diam:g}",
            }
        )

    n_big = max(cfg.n_list)
    model = cfg.model.at_n(n_big)
    sigma = math.sqrt(max(var_isolated(model, cfg.spec).value, 1e-300))
    for R_c in cfg.R_list:
        sample = replicate(
            model,
            StatRequest(name="L", kind="excess", r0=R_c / n_big),
            min(cfg.m, 3000),
            cfg.base_seed,
            cfg.policy,
            cfg.workers,
        )
        center = mean_excess(model, R_c).value
        rows.append(
            {
                "section": "collapse_fraction",
                "n": n_big,
                "R": R_c,
                "value": exceedance_fraction(sample.values, center, sigma, 0.25),
                "note": "P(|L - EL| / sd(I) >= 0.25); falls as R grows",
            }
        )

    _emit(cfg, "truncation_demo", rows, extra={"bias_bound": bias})
    return 0 if coupling_ok else 1


def cmd_variance_growth(cfg: ExperimentConfig, args) -> int:
    if args.lower_bound:
        if cfg.model.d != 2:
            raise ConfigError("--lower-bound needs model.d = 2")
        if cfg.model.g.support_radius is None:
            raise ConfigError("--lower-bound needs a bounded-support connection function")
        if any(n != int(n) for n in cfg.n_list):
            raise ConfigError(f"--lower-bound needs integer run.n_list entries, got {cfg.n_list}")
    limit = limit_var_isolated(cfg.model.lam, cfg.model.g, cfg.model.d, cfg.spec).value
    rows = []
    for n in cfg.n_list:
        model = cfg.model.at_n(n)
        sample = replicate(
            model,
            StatRequest(name="count", kind="isolated"),
            cfg.m,
            cfg.base_seed,
            cfg.policy,
            cfg.workers,
        )
        norm = model.lam_n * model.K.volume  # Var / (lam_n vol K) tends to the limit
        density = sample.variance / norm
        rows.append(
            {
                "kind": "density",
                "n": n,
                "lam_n": model.lam_n,
                "value": density,
                "se": sample.bootstrap_se_var() / norm,
                "limit": limit,
                "gap": abs(density - limit),
            }
        )
    ok = True
    extra = {}
    if args.lower_bound:
        cert, bound_rows = variance_lower_bound(
            cfg.model.lam,
            cfg.model.g,
            cfg.r,
            [int(n) for n in cfg.n_list],
            m_mu=max(cfg.m, 2000),
            m_var=cfg.m,
            base_seed=cfg.base_seed,
            policy=cfg.policy,
            workers=cfg.workers,
        )
        for row in bound_rows:
            ok = ok and row.var >= row.bound
            rows.append(
                {
                    "kind": "lower_bound",
                    "n": row.n,
                    "lam_n": cfg.model.lam,
                    "value": row.var,
                    "se": row.var_se,
                    "limit": row.bound,
                    "gap": row.var - row.bound,
                }
            )
        extra = {
            "certificate": {
                "mu_hat": cert.mu_hat,
                "mu_se": cert.mu_se,
                "M": cert.M,
                "alpha": cert.alpha,
                "gamma": cert.gamma,
                "r": cert.r,
                "support_radius": cert.R,
            }
        }
    _emit(cfg, "variance_growth", rows, extra=extra)
    return 0 if ok else 1


def cmd_covariance_field(cfg: ExperimentConfig, args) -> int:
    model = cfg.model
    if model.g_n.support_radius is None:
        raise ConfigError("covariance-field needs a bounded-support connection function")
    field = covariance_field(
        model, cfg.r, cfg.m, cfg.base_seed, policy=cfg.policy, workers=cfg.workers
    )
    rows = [
        {
            "offset": " ".join(str(z) for z in off),
            "cov": float(c),
            "se": float(s),
        }
        for off, c, s in zip(field.offsets, field.cov, field.se)
    ]
    _emit(
        cfg,
        "covariance_field",
        rows,
        extra={
            "total": field.total,
            "total_se": field.total_se,
            "positive_by_3se": field.positive,
            "lattice_side": field.lattice_side,
            "dependence_range": field.dependence_range,
        },
    )
    return 0 if field.positive else 1


def cmd_martingale_check(cfg: ExperimentConfig, args) -> int:
    reports = martingale_sweep(cfg.base_seed)
    rows = [
        {
            "space": k,
            "variance": report.variance,
            "telescoped": report.telescoped,
            "abs_diff": report.abs_diff,
        }
        for k, report in enumerate(reports)
    ]
    ok = all(report.ok for report in reports)
    _emit(
        cfg,
        "martingale_check",
        rows,
        extra={"worst_abs_diff": max(r.abs_diff for r in reports), "passed": ok},
    )
    return 0 if ok else 1


def cmd_verify_all(cfg: ExperimentConfig, args) -> int:
    ctx = AcceptanceContext(
        base_seed=cfg.base_seed,
        workers=cfg.workers,
        spec=cfg.spec,
        policy=cfg.policy,
    )
    results = run_all(ctx)
    rows = [{"criterion": r.cid, "name": r.name, "passed": r.passed} for r in results]
    args.runtimes = {r.cid: r.runtime for r in results}  # wall clock: run_meta.txt only
    _emit(
        cfg,
        "verify_all",
        rows,
        extra={"details": {r.cid: r.details for r in results}},
    )
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "simulate": (cmd_simulate, "replicate counting statistics and summarize them"),
    "moments": (cmd_moments, "evaluate closed-form and limiting moments by quadrature"),
    "clt-test": (cmd_clt_test, "KS normality check of the standardized isolated count"),
    "truncation-demo": (cmd_truncation_demo, "coupling identity and swapped-truncation degeneracy"),
    "variance-growth": (
        cmd_variance_growth, "variance density against its limit; optional lower bound"
    ),
    "covariance-field": (
        cmd_covariance_field, "lattice covariance field of the component statistic"
    ),
    "martingale-check": (
        cmd_martingale_check, "exact martingale variance identity on random finite spaces"
    ),
    "verify-all": (cmd_verify_all, "run the full acceptance suite"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective(args)
        # output paths are checked before any work is done
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        dump = getattr(args, "dump_realization", None)
        if dump and not Path(dump).parent.is_dir():
            raise ConfigError(f"--dump-realization: no directory to hold {dump}")
        with run_scope():  # one process pool per worker count for the whole command
            code = _COMMANDS[args.command][0](cfg, args)
        write_run_meta(
            cfg.out_dir, args.command, cfg.config_hash(), getattr(args, "runtimes", None)
        )
    except (ConfigError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ConnFnError, ModelError, SimulationError, StatsError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
