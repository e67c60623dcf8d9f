"""The benchmark's four workloads and the checks on their outputs.

Each workload is a fixed list of timed blocks.  The workload seed only
shuffles the order in which a pass runs them, so every run does identical
work and every block's output can be checked against a reference recorded
from the seed code (``references.json``, written by ``make_references.py``).

An op is a replication (mc_*), a moment evaluation (moments_d2) or an
acceptance criterion (verify_all).  It fails on an exception, a failed check
or a FAIL line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import sys
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
Block = Callable[[], tuple[int, int]]  # runs one timed block -> (ops attempted, ops failed)

# (workload, block count, replications per block); block k uses base seed
# MC_SEED + k, so the blocks are distinct and each has its own digest.
MC_SEED = 20240801
MC_BLOCKS = {"mc_tiny": (8, 400), "mc_large": (8, 4)}


def values_digest(samples: dict, names) -> str:
    """sha256 of the replicated values, in request order, as little-endian f8."""
    h = hashlib.sha256()
    for name in names:
        h.update(np.ascontiguousarray(samples[name].values, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _report_exception(label: str):
    print(f"op {label} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- Monte Carlo ---------------------------------------------------------------


def mc_model(name: str):
    from rcmlab import ModelConfig, exponential, unit_box
    from rcmlab.stats import StatRequest

    if name == "mc_tiny":  # the sample model of acceptance criterion c02
        cfg = ModelConfig(d=1, lam=1.0, K=unit_box(1), g=exponential(1.0), n=2.0)
        return cfg, [StatRequest(name="L", kind="excess", r0=0.5)]
    R = 1.0
    cfg = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=exponential(0.3), n=16.0)
    return cfg, [
        StatRequest(name="I", kind="isolated"),
        StatRequest(name="J", kind="near_isolated", r0=R / cfg.n),
        StatRequest(name="L", kind="excess", r0=R / cfg.n),
        StatRequest(name="C", kind="coupling", R=R),
    ]


class MonteCarlo:
    """Serial replicate_many blocks with per-replication and digest checks."""

    in_thread = True  # every block runs wholly in the calling thread

    def __init__(self, name: str, refs: dict):
        from rcmlab import stats

        self.stats = stats  # looked up per call, so the tracer's wrapper is seen
        self.name = name
        # ~25 points a replication: interpreter-bound, see calib
        self.small_array_passes = 3 if name == "mc_tiny" else 0
        self.cfg, self.requests = mc_model(name)
        self.names = [r.name for r in self.requests]
        self.nblocks, self.reps = MC_BLOCKS[name]
        self.digests = refs["digests"]
        self.mean_ref = refs.get("mean_excess")
        self._sum = 0.0
        self._sumsq = 0.0
        self._count = 0

    def blocks(self) -> list[Block]:
        return [self._block(k) for k in range(self.nblocks)]

    def _block(self, k: int):
        def run():
            try:
                out = self.stats.replicate_many(
                    self.cfg, self.requests, self.reps, MC_SEED + k, workers=1
                )
            except Exception:
                _report_exception(f"{self.name}[{k}]")
                return self.reps, self.reps
            return self.reps, self.check(k, out)

        return run

    def check(self, k: int, out: dict) -> int:
        """Failed replications of block k.

        The per-replication checks and the pass mean see the program's values
        whatever their digest; a digest that differs from the seed's then
        fails every replication of the block.
        """
        if self.mean_ref is not None:
            v = out["L"].values
            self._sum += float(v.sum())
            self._sumsq += float((v * v).sum())
            self._count += v.size
        bad = 0
        if "C" in out:
            broken = (out["J"].values != out["I"].values + out["L"].values) | (out["C"].values != 1.0)
            bad = int(np.count_nonzero(broken))
            if bad:
                print(f"{self.name}[{k}]: {bad} replications break J == I + L or coupling == 1",
                      file=sys.stderr)
        if values_digest(out, self.names) != self.digests[k]:
            print(f"{self.name}[{k}]: values digest differs from the seed's", file=sys.stderr)
            return self.reps
        return bad

    def overhead_probe(self):
        return self

    def finish_pass(self) -> int:
        """mc_tiny: the pass mean must lie within 3 SE of mean_excess (as c02)."""
        m, self._count = self._count, 0
        s, ss, self._sum, self._sumsq = self._sum, self._sumsq, 0.0, 0.0
        if self.mean_ref is None or m < 2:
            return 0
        mean = s / m
        var = max(ss - m * mean * mean, 0.0) / (m - 1)
        se = max(math.sqrt(var / m), math.sqrt(max(self.mean_ref, 0.0) / m))
        if abs(mean - self.mean_ref) > 3.0 * se:
            print(f"{self.name}: mean {mean} is not within 3 SE of {self.mean_ref}", file=sys.stderr)
            return 1
        return 0


# -- quadrature moments ------------------------------------------------------------


def moment_ops() -> dict:
    """The three d=2 evaluations at DEFAULT_SPEC, by reference name."""
    from rcmlab import ModelConfig, exponential, hard_disk, limit_var_isolated, unit_box
    from rcmlab import var_isolated

    disk_box = ModelConfig(d=2, lam=1.0, K=unit_box(2), g=hard_disk(1.0), n=2.0)
    return {
        "limit_var_isolated_disk": lambda: limit_var_isolated(1.0, hard_disk(1.0), 2),
        "var_isolated_disk_n2": lambda: var_isolated(disk_box),
        "limit_var_isolated_exp03": lambda: limit_var_isolated(1.0, exponential(0.3), 2),
    }


class Moments:
    in_thread = True
    small_array_passes = 3  # nested adaptive quadrature on 15-node arrays

    def __init__(self, refs: dict):
        self.ops = moment_ops()
        self.refs = refs

    def blocks(self) -> list[Block]:
        return [self._block(name, fn) for name, fn in self.ops.items()]

    def _block(self, name: str, fn):
        ref = self.refs[name]

        def run():
            try:
                res = fn()
            except Exception:
                _report_exception(name)
                return 1, 1
            return 1, int(not moment_ok(res.value, res.error, ref))

        return run

    def overhead_probe(self):
        return self

    def finish_pass(self) -> int:
        return 0


def moment_ok(value: float, error_bound: float, ref: dict) -> bool:
    """|value - ref| within the reported error bound plus the reference's own error."""
    ok = abs(value - ref["value"]) <= error_bound + ref["error"]
    if not ok:
        print(
            f"moment {value!r} (bound {error_bound:.3g}) misses reference {ref['value']!r}",
            file=sys.stderr,
        )
    return ok


# -- verify-all ----------------------------------------------------------------------

_CRITERION_LINE = re.compile(r"^(PASS|FAIL) c\d\d ")
N_CRITERIA = 14
VERIFY_SEED = 20240801  # the acceptance suite's own base seed


class _LineTap(io.TextIOBase):
    """stdout stand-in: forwards text to stderr and reports criterion lines."""

    def __init__(self, on_line):
        self._on_line = on_line
        self._buf = ""

    def write(self, text):
        sys.__stderr__.write(text)
        self._buf += text
        *lines, self._buf = self._buf.split("\n")
        for line in lines:
            m = _CRITERION_LINE.match(line)
            if m:
                self._on_line(m.group(1) == "PASS")
        return len(text)


class VerifyAll:
    """``rcmlab verify-all`` through an in-process call of cli.main.

    One timed block per criterion: a block ends when its PASS/FAIL line is
    printed, and a last block covers the report writing after c14.
    """

    in_thread = False  # pool workers do much of the work
    small_array_passes = 0

    def __init__(self, work_dir: Path):
        from rcmlab import cli

        self.cli = cli  # main looked up per call, so the tracer's wrapper is seen
        self.workers = min(2, os.cpu_count() or 1)
        self.argv = [
            "verify-all",
            "--config", str(HERE.parent / "configs" / "default.cfg"),
            "--seed", str(VERIFY_SEED),
            "--workers", str(self.workers),
            "--out-dir", str(work_dir / "verify_all"),
        ]

    def overhead_probe(self):
        return ParentCriteria(self.workers)

    def run_pass(self, timer) -> None:
        seen = {"passed": 0, "failed": 0}

        def on_line(passed: bool):
            seen["passed" if passed else "failed"] += 1
            timer.split(1, int(not passed))

        timer.begin()
        rc = None
        try:
            with contextlib.redirect_stdout(_LineTap(on_line)):
                rc = self.cli.main(self.argv)
        except Exception:
            _report_exception("verify-all")
        missing = max(N_CRITERIA - seen["passed"] - seen["failed"], 0)
        failed = missing
        if rc != 0 and missing == 0 and seen["failed"] == 0:
            print(f"verify-all exited {rc}", file=sys.stderr)
            failed = 1
        timer.end(missing, failed)


class ParentCriteria:
    """The criteria that run wholly in the benchmark process, one block each.

    verify_all's tracing overhead is measured on these: only the parent is
    traced, and a second full verify-all pass would double the run.
    """

    CIDS = ("c04", "c05", "c09", "c10", "c11")
    in_thread = True
    small_array_passes = 0

    def __init__(self, workers: int):
        from rcmlab import acceptance

        self.acceptance = acceptance  # CRITERIA looked up per call, as the tracer patches it
        self.ctx = acceptance.AcceptanceContext(base_seed=VERIFY_SEED, workers=workers)
        self.index = [k for k, c in enumerate(acceptance.CRITERIA) if c.__name__[:3] in self.CIDS]

    def blocks(self) -> list[Block]:
        return [self._block(k) for k in self.index]

    def _block(self, k: int):
        def run():
            try:
                return 1, int(not self.acceptance.CRITERIA[k](self.ctx).passed)
            except Exception:
                _report_exception(f"criterion {k + 1}")
                return 1, 1

        return run

    def finish_pass(self) -> int:
        return 0


def build(name: str, refs: dict, work_dir: Path):
    if name in MC_BLOCKS:
        return MonteCarlo(name, refs[name])
    if name == "moments_d2":
        return Moments(refs[name])
    return VerifyAll(work_dir)


def run_pass(workload, timer, seed: int) -> None:
    """One pass over the workload's blocks, in an order drawn from the seed."""
    if isinstance(workload, VerifyAll):
        workload.run_pass(timer)
        return
    blocks = workload.blocks()
    random.Random(seed).shuffle(blocks)
    timer.begin()
    for i, block in enumerate(blocks):
        attempted, failed = block()
        if i + 1 < len(blocks):
            timer.split(attempted, failed)
        else:
            timer.end(attempted, failed + workload.finish_pass())
