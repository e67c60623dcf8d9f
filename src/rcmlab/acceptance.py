"""Acceptance suite: every exit criterion as a callable check.

Each criterion returns a CriterionResult with a pass flag and a details
dict; run_all executes them in order and times each, reusing heavy Monte
Carlo samples where two criteria share a configuration.  The CLI
`verify-all` subcommand and tests/test_acceptance.py both drive this
module, so the pass/fail semantics cannot drift between the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .connfn import exponential, hard_disk
from .moments import (
    ModelConfig,
    domination_constants,
    excess_variance_bracket,
    limit_mean_excess,
    limit_var_excess,
    limit_var_isolated,
    mean_excess,
    pair_factor,
    swapped_mean_density,
    var_excess,
    variance_ratio,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, Region, unit_box
from .simulator import DEFAULT_POLICY, SimPolicy
from .stats import (
    StatRequest,
    coupling_check,
    covariance_field,
    ks_normality,
    martingale_sweep,
    replicate,
    run_scope,
    variance_lower_bound,
)

# Every verify-all run searches d=2 pairs in workers forked from this process, so
# one import here, after the package's own, serves them all (it loads scipy.special too).
import scipy.spatial


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    runtime: float = 0.0  # seconds; set by run_all
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.cid} {self.name} ({self.runtime:.1f}s)"


@dataclass
class AcceptanceContext:
    base_seed: int = 20240801
    workers: int = 1
    spec: QuadratureSpec = DEFAULT_SPEC
    policy: SimPolicy = DEFAULT_POLICY
    cache: dict = field(default_factory=dict)

    def seed(self, offset: int) -> int:
        return self.base_seed + offset


def _mean_agreement(sample, exact: float) -> tuple[float, float, bool]:
    """(gap, se, gap <= 3 se) of a Monte Carlo mean against its exact value; se
    has a Poisson-style floor sqrt(exact / m) for small-count means."""
    se = max(sample.se_mean, math.sqrt(max(exact, 0.0) / sample.m))
    gap = abs(sample.mean - exact)
    return gap, se, gap <= 3.0 * se


# -- criterion 1: coupling identity --------------------------------------------


def c01_coupling(ctx: AcceptanceContext) -> CriterionResult:
    configs = [
        ("d1-exp", ModelConfig(d=1, lam=1.5, K=unit_box(1), g=exponential(1.0), n=2.0), 1.0),
        ("d2-exp", ModelConfig(d=2, lam=1.5, K=unit_box(2), g=exponential(0.5), n=2.0), 1.0),
        ("d2-disk", ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(1.0), n=2.0), 0.5),
    ]
    details = {}
    ok = True
    for label, cfg, R in configs:
        coupled, additive, _ = coupling_check(cfg, R, 100, ctx.seed(1), ctx.policy, ctx.workers)
        details[label] = {"coupling_exact": coupled, "J_equals_I_plus_L": additive}
        ok = ok and coupled and additive
    return CriterionResult("c01", "coupling identity", ok, details=details)


# -- criteria 2 and 3: exact scaled mean and variance ---------------------------


def _excess_sample(ctx: AcceptanceContext):
    if "excess_sample" not in ctx.cache:
        cfg = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=2.0)
        sample = replicate(
            cfg,
            StatRequest(name="L", kind="excess", r0=0.5),
            100_000,
            ctx.seed(2),
            ctx.policy,
            ctx.workers,
        )
        ctx.cache["excess_sample"] = (cfg, sample)
    return ctx.cache["excess_sample"]


def c02_scaled_mean(ctx: AcceptanceContext) -> CriterionResult:
    cfg, sample = _excess_sample(ctx)
    exact = mean_excess(cfg, 1.0).value
    gap, se, ok = _mean_agreement(sample, exact)
    return CriterionResult(
        "c02",
        "exact scaled mean",
        ok,
        details={"mc_mean": sample.mean, "exact": exact, "gap": gap, "se": se, "m": sample.m},
    )


def c03_scaled_variance(ctx: AcceptanceContext) -> CriterionResult:
    cfg, sample = _excess_sample(ctx)
    exact = var_excess(cfg, 1.0, ctx.spec).value
    bse = sample.bootstrap_se_var()
    gap = abs(sample.variance - exact)
    ok = gap <= 3.0 * bse
    return CriterionResult(
        "c03",
        "exact scaled variance",
        ok,
        details={"mc_var": sample.variance, "exact": exact, "gap": gap, "bootstrap_se": bse},
    )


# -- criterion 4: convergence to the limits --------------------------------------


def c04_limit_convergence(ctx: AcceptanceContext) -> CriterionResult:
    g = exponential(1.0)
    R = 1.0
    base = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=g, n=1.0)
    mean_limit = limit_mean_excess(1.0, g, R, 1).value
    var_limit = limit_var_excess(1.0, g, R, 1, ctx.spec).value
    means, variances = [], []
    for n in (8.0, 16.0, 32.0):
        cfg = base.at_n(n)
        norm = cfg.lam_n * cfg.K.volume
        means.append(mean_excess(cfg, R).value / norm)
        variances.append(var_excess(cfg, R, ctx.spec).value / norm)
    # under the default density rule the normalized mean is n-independent, so
    # its successive differences are rounding noise; allow that floor
    tol = 1e-9

    def shrinking(seq, limit):
        d1, d2 = abs(seq[1] - seq[0]), abs(seq[2] - seq[1])
        return d2 <= d1 + tol and abs(seq[2] - limit) < 1e-2

    ok = shrinking(means, mean_limit) and shrinking(variances, var_limit)
    return CriterionResult(
        "c04",
        "normalized moments converge to limits",
        ok,
        details={
            "means": means,
            "mean_limit": mean_limit,
            "variances": variances,
            "var_limit": var_limit,
        },
    )


# -- criterion 5: limits vanish as R grows ---------------------------------------


def c05_vanishing_limits(ctx: AcceptanceContext) -> CriterionResult:
    g = exponential(1.0)
    R_list = (1.0, 2.0, 4.0, 8.0, 16.0)
    means = [limit_mean_excess(1.0, g, R, 1).value for R in R_list]
    variances = [limit_var_excess(1.0, g, R, 1, ctx.spec).value for R in R_list]

    def vanishing(seq):
        dec = all(b < a + 1e-12 for a, b in zip(seq, seq[1:]))
        return dec and seq[-1] < 1e-3 * seq[0]

    ok = vanishing(means) and vanishing(variances)
    return CriterionResult(
        "c05",
        "limits vanish with growing truncation radius",
        ok,
        details={"R_list": list(R_list), "means": means, "variances": variances},
    )


# -- criterion 6: degenerate swapped-order family ---------------------------------


def c06_swapped_truncation(ctx: AcceptanceContext) -> CriterionResult:
    g = exponential(1.0)
    K = unit_box(1)
    R = 2.0
    n_list = (1.0, 2.0, 4.0, 8.0, 16.0)
    vals = [
        swapped_mean_density(ModelConfig(d=1, lam=1.0, K=K, g=g, n=n), R).value
        for n in n_list
    ]
    decreasing = all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))
    below = vals[-1] < 1e-2 and vals[3] < 1e-2  # already tiny by n = 8

    mc_checks = {}
    ok_mc = True
    for n_mc in (2.0, 8.0):
        cfg = ModelConfig(d=1, lam=1.0, K=K, g=g, n=n_mc)
        exact = cfg.lam_n * K.volume * vals[n_list.index(n_mc)]
        sample = replicate(
            cfg,
            StatRequest(name="Lsw", kind="excess", r0=R),
            20_000,
            ctx.seed(6),
            ctx.policy,
            ctx.workers,
        )
        _, se, agree = _mean_agreement(sample, exact)
        ok_mc = ok_mc and agree
        mc_checks[f"n={n_mc:g}"] = {
            "mc_mean": sample.mean,
            "exact": exact,
            "se": se,
            "agree": agree,
        }
    ok = decreasing and below and ok_mc
    return CriterionResult(
        "c06",
        "swapped truncation order degenerates",
        ok,
        details={"normalized_means": vals, "decreasing": decreasing, "mc": mc_checks},
    )


# -- criterion 7: limiting isolated-variance density ------------------------------


def c07_variance_density(ctx: AcceptanceContext) -> CriterionResult:
    g = hard_disk(1.0)
    cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=g, n=8.0)
    limit = limit_var_isolated(1.0, g, 2, ctx.spec).value
    sample = replicate(
        cfg,
        StatRequest(name="I", kind="isolated"),
        10_000,
        ctx.seed(7),
        ctx.policy,
        ctx.workers,
    )
    density = sample.variance / (cfg.lam_n * cfg.K.volume)
    rel = abs(density - limit) / limit
    ok = rel <= 0.05
    return CriterionResult(
        "c07",
        "limiting variance density of isolated count",
        ok,
        details={"mc_density": density, "limit": limit, "relative_gap": rel, "m": sample.m},
    )


# -- criterion 8: central limit behaviour ----------------------------------------


def c08_clt(ctx: AcceptanceContext) -> CriterionResult:
    g = exponential(0.3)
    ks = {}
    for n in (2.0, 8.0):
        cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=g, n=n)
        sample = replicate(
            cfg,
            StatRequest(name="I", kind="isolated"),
            2000,
            ctx.seed(8),
            ctx.policy,
            ctx.workers,
        )
        ks[n] = ks_normality(sample.values)
    ok = ks[8.0] < 0.05 and ks[8.0] < ks[2.0]
    return CriterionResult(
        "c08",
        "standardized isolated count is near-normal",
        ok,
        details={"ks_n8": ks[8.0], "ks_n2": ks[2.0], "threshold": 0.05},
    )


# -- criterion 9: domination bound -------------------------------------------------


def c09_domination(ctx: AcceptanceContext) -> CriterionResult:
    """Both domination inequalities on a grid, the bracket at intensity lam
    (see domination_constants); a margin of up to 1e-7 above zero is taken as
    quadrature noise."""
    lam, g, d = 1.0, exponential(1.0), 1
    R_list = (0.5, 1.0, 2.0, 4.0)
    const = domination_constants(lam, g, d)
    x = np.geomspace(0.05, 10.0, 20)
    g_half = g.eval(x / 2.0)
    worst = -math.inf  # max over the grid of |bracket| - C_total g(x/2)
    for R in R_list:
        margin = np.abs(excess_variance_bracket(lam, g, R, d, ctx.spec)(x)) - const.C_total * g_half
        worst = max(worst, float(np.max(margin)))
    pf = pair_factor(2.0 * lam, g, g, x, d, ctx.spec).value
    worst_pair = float(np.max((pf - 1.0) - const.C_pair * g_half))
    return CriterionResult(
        "c09",
        "variance bracket dominated by C g(|x|/2)",
        worst <= 1e-7 and worst_pair <= 1e-7,
        details={
            "M": const.M,
            "C_pair": const.C_pair,
            "C_total": const.C_total,
            "worst_margin": worst,
            "worst_pair_margin": worst_pair,
            "points": x.size * len(R_list),
        },
    )


# -- criterion 10: variance ratio tends to one --------------------------------------


def c10_variance_ratio(ctx: AcceptanceContext) -> CriterionResult:
    g = exponential(1.0)
    ratios = [variance_ratio(1.0, g, R, 1, ctx.spec).value for R in (1.0, 2.0, 4.0, 8.0)]
    # truncation raises the variance density here, so the ratio approaches 1
    # from above; assert the monotone approach |ratio - 1| -> 0
    gaps = [abs(rho - 1.0) for rho in ratios]
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] < 1e-3
    return CriterionResult(
        "c10",
        "truncated/full variance ratio tends to 1",
        ok,
        details={"ratios": ratios, "gaps": gaps, "final_gap": gaps[-1]},
    )


# -- criterion 11: martingale variance identity --------------------------------------


def c11_martingale(ctx: AcceptanceContext) -> CriterionResult:
    reports = martingale_sweep(ctx.seed(11))
    return CriterionResult(
        "c11",
        "martingale variance identity (exact oracle)",
        all(report.ok for report in reports),
        details={"worst_abs_diff": max(r.abs_diff for r in reports), "spaces": len(reports)},
    )


# -- criterion 12: covariance field and box variance ---------------------------------


def c12_covariance_field(ctx: AcceptanceContext) -> CriterionResult:
    cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(0.5), n=1.0)
    field_est = covariance_field(
        cfg, r=2, m=600, base_seed=ctx.seed(12),
        lattice_side=12, policy=ctx.policy, workers=ctx.workers,
    )
    # the variance per cell converges to the covariance sum as the boundary
    # fraction vanishes
    rows = []
    for side in (4, 8, 16):
        size = side * side
        sample = replicate(
            replace(cfg, K=Region((0.0, 0.0), (float(side), float(side)))),
            StatRequest(name="comp", kind="component", r=2),
            600,
            ctx.seed(13),
            ctx.policy,
            ctx.workers,
        )
        var_density = sample.variance / size
        rows.append(
            {
                "side": side,
                "boundary_fraction": (size - (side - 2) ** 2) / size,
                "var_density": var_density,
                "var_density_se": sample.bootstrap_se_var() / size,
                "gap": abs(var_density - field_est.total),
            }
        )
    last = rows[-1]
    combined = 3.0 * math.hypot(last["var_density_se"], field_est.total_se)
    converged = last["gap"] <= combined
    fractions = [row["boundary_fraction"] for row in rows]
    ok = field_est.positive and converged and all(b < a for a, b in zip(fractions, fractions[1:]))
    return CriterionResult(
        "c12",
        "covariance sum positive and box variance matches it",
        ok,
        details={
            "cov_sum": field_est.total,
            "cov_sum_se": field_est.total_se,
            "rows": rows,
            "combined_3se": combined,
        },
    )


# -- criterion 13: quadratic variance lower bound --------------------------------------


def c13_lower_bound(ctx: AcceptanceContext) -> CriterionResult:
    g = hard_disk(0.5)
    cert, rows = variance_lower_bound(
        lam=1.0,
        g=g,
        r=1,
        n_list=(2, 3, 4),
        m_mu=4000,
        m_var=500,
        base_seed=ctx.seed(14),
        policy=ctx.policy,
        workers=ctx.workers,
    )
    cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=g, n=1.0)
    field_est = covariance_field(
        cfg, r=1, m=300, base_seed=ctx.seed(15),
        lattice_side=9, policy=ctx.policy, workers=ctx.workers,
    )
    bound_ok = all(row.var >= row.bound for row in rows)
    per_n2 = [row.var / row.n**2 for row in rows]
    stable = max(per_n2) <= 2.0 * min(per_n2)
    ok = cert.gamma > 0 and bound_ok and stable
    return CriterionResult(
        "c13",
        "variance grows at least quadratically",
        ok,
        details={
            "mu_hat": cert.mu_hat,
            "M": cert.M,
            "alpha": cert.alpha,
            "gamma": cert.gamma,
            "var_per_n2": per_n2,
            "fit_c": float(np.mean(per_n2)),
            "M2_cov_sum": cert.M**2 * field_est.total,
            "rows": [
                {"n": row.n, "var": row.var, "bound": row.bound} for row in rows
            ],
        },
    )


# -- criterion 14: deterministic reports ------------------------------------------------


_DET_CONFIG = """
model.d = 1
model.lambda = 1.0
model.K.lower = 0
model.K.sides = 1
model.g.kind = exponential
model.g.a = 1.0
run.n_list = 2
run.R_list = 1.0
run.m = 200
run.base_seed = 99
output.format = both
"""


def c14_determinism(ctx: AcceptanceContext) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "det.cfg"
        cfg_path.write_text(_DET_CONFIG, encoding="utf-8")

        def run(subcmd, out, extra=()):
            rc = cli.main(
                [subcmd, "--config", str(cfg_path), "--out-dir", str(Path(tmp) / out), *extra]
            )
            # exit 1 just flags a failed statistical assertion; the reports
            # are still written, which is all determinism compares
            if rc not in (0, 1):
                raise RuntimeError(f"{subcmd} exited {rc}")
            return {
                p.name: p.read_bytes()
                for p in sorted((Path(tmp) / out).iterdir())
                if p.name != "run_meta.txt"
            }

        m1 = run("moments", "m1")
        m2 = run("moments", "m2")
        c1 = run("clt-test", "c1", ("--workers", "1"))
        c2 = run("clt-test", "c2", ("--workers", "1"))
        c3 = run("clt-test", "c3", ("--workers", "2"))
        byte_identical = m1 == m2 and c1 == c2
        cross_workers = c1 == c3
    ok = byte_identical and cross_workers
    return CriterionResult(
        "c14",
        "byte-identical reports, worker-count invariant",
        ok,
        details={"byte_identical": byte_identical, "worker_invariant": cross_workers},
    )


CRITERIA = (
    c01_coupling,
    c02_scaled_mean,
    c03_scaled_variance,
    c04_limit_convergence,
    c05_vanishing_limits,
    c06_swapped_truncation,
    c07_variance_density,
    c08_clt,
    c09_domination,
    c10_variance_ratio,
    c11_martingale,
    c12_covariance_field,
    c13_lower_bound,
    c14_determinism,
)


def run_all(ctx: AcceptanceContext) -> list[CriterionResult]:
    """Every criterion in order, each timed and its line printed as it ends,
    in one run scope, so they share one process pool per worker count."""
    results = []
    with run_scope():
        for criterion in CRITERIA:
            t0 = time.perf_counter()
            result = criterion(ctx)
            result.runtime = time.perf_counter() - t0
            results.append(result)
            print(result.line())
    return results
