"""Regenerate ``references.json`` from the code under ``src/``.

    python3 rcmbench/make_references.py

Run it only on a commit whose outputs are the accepted baseline: the
benchmark counts every op whose output differs from these references as
failed.  It records

* for mc_*: a digest of each block's replicated values, so that a changed
  random stream shows up as failed ops, and for mc_tiny the exact mean it is
  checked against;
* for moments_d2: each evaluation's value and error bound.  The d=2 hard
  disk limit has a closed form, computed here independently with mpmath
  from the lens area; the other two have none, so the code's own value and
  error bound are stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def hard_disk_limit_var(lam: float, a: float, digits: int = 30) -> float:
    """limit_var_isolated(lam, hard_disk(a), d=2) from the lens-area closed form.

    iso + lam iso^2 int_{R^2} [(1 - g(|x|)) exp(lam A(|x|)) - 1] dx, where
    iso = exp(-lam pi a^2) and A(s) = 2a^2 acos(s/2a) - (s/2) sqrt(4a^2 - s^2)
    is the area shared by two radius-a disks at distance s.  The bracket is
    -1 for s <= a and exp(lam A(s)) - 1 for a < s < 2a.
    """
    with mpmath.workdps(digits):
        lam, a = mpmath.mpf(lam), mpmath.mpf(a)

        def lens(s):
            return 2 * a**2 * mpmath.acos(s / (2 * a)) - s / 2 * mpmath.sqrt(4 * a**2 - s**2)

        ring = mpmath.quad(lambda s: (mpmath.exp(lam * lens(s)) - 1) * s, [a, 2 * a])
        integral = -mpmath.pi * a**2 + 2 * mpmath.pi * ring
        iso = mpmath.exp(-lam * mpmath.pi * a**2)
        return float(iso + lam * iso**2 * integral)


def main():
    from rcmlab import mean_excess

    refs = {}
    for name, (nblocks, reps) in workloads.MC_BLOCKS.items():
        mc = workloads.MonteCarlo(name, {"digests": []})
        digests = [
            workloads.values_digest(
                mc.stats.replicate_many(mc.cfg, mc.requests, reps, workloads.MC_SEED + k, workers=1),
                mc.names,
            )
            for k in range(nblocks)
        ]
        refs[name] = {"digests": digests}
        print(name, "digests recorded", flush=True)
    tiny_cfg, _ = workloads.mc_model("mc_tiny")
    refs["mc_tiny"]["mean_excess"] = mean_excess(tiny_cfg, 1.0).value

    moments = {}
    for name, fn in workloads.moment_ops().items():
        res = fn()
        moments[name] = {"value": res.value, "error": res.error, "source": "seed code"}
        print(name, res, flush=True)
    moments["limit_var_isolated_disk"] = {
        "value": hard_disk_limit_var(1.0, 1.0),
        "error": 1e-15,
        "source": "mpmath, lens-area closed form",
    }
    refs["moments_d2"] = moments
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print("wrote", path)


if __name__ == "__main__":
    main()
