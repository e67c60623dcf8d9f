"""rcmlab benchmark: one workload per process.

    python3 rcmbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 rcmbench/run.py --workload all      # every workload, one table

Run from the root of a checkout; rcmlab is imported from its ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the host and, untraced, the raw wall_s, cpu_s and ops_per_s.
Progress and a readable table go to standard error.

A run does whole passes over its workload's fixed blocks, in an order drawn
from the seed, and reports the median over passes.  mc_* make
``seconds // 1.25`` passes (at least one); moments_d2 and verify_all make one
pass, which takes longer than ``seconds``.  After the passes, fresh
processes that only set the workload up, each timed from spawn to its ready
line, give ``setup_s``: their median time at the nominal host speed, which a
reference process gauges (see ``setup_seconds``).

With ``--trace 1`` a run makes one untraced and one traced pass; the traced
pass gives the per-layer metrics and the ratio of the two gives the tracing
overhead.  On verify_all, where only the parent process is traced, the
overhead is measured on the criteria that run wholly in the parent instead
of on a second full pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Before numpy is imported anywhere, so that pool workers inherit it too.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("mc_tiny", "mc_large", "moments_d2", "verify_all")
NOMINAL_PASS_S = {"mc_tiny": 1.25, "mc_large": 1.25}
SETUP_PROBES = 3
# The host's speed at spawning Python and importing numpy/scipy swings by up
# to ~1.5x over minutes.  setup_s is therefore scaled by a reference process
# that does only that, without rcmlab, timed before and after every probe.
# REFERENCE_NOMINAL_S is the reference's time on a 2-vCPU Xeon KVM guest.
REFERENCE_CODE = "import numpy, scipy.special; print('ready', flush=True)"
REFERENCE_NOMINAL_S = 0.4

# Bounded in BENCHMARK.json; the last output line carries exactly these.
END_TO_END = {"setup_s": "s", "wall_cal": "1", "peak_rss_mb": "MB"}
# Raw times and rates: on the line before the last and in the table only.
# The host's speed swings make their run-to-run spread too wide to bound.
RAW = {"setup_raw_s": "s", "wall_s": "s", "cpu_s": "s", "ops_per_s": "1/s"}


def setup(workload: str, work_dir: Path):
    """Import rcmlab from this checkout, load references, build the workload."""
    src = ROOT / "src"
    if not (src / "rcmlab" / "__init__.py").is_file():
        raise SystemExit(f"rcmbench: no rcmlab package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import rcmlab

    if Path(rcmlab.__file__).resolve().parent != (src / "rcmlab").resolve():
        raise SystemExit(f"rcmbench: imported rcmlab from {rcmlab.__file__}, not {src}")
    import workloads

    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    return workloads.build(workload, refs, work_dir)


class PassTimer:
    """Times one pass as a chain of blocks, with calibration between blocks.

    A block counts in calibration units its time on the calibrator's clock:
    the calling thread's CPU time for work that runs wholly in it, which
    like the kernel's own leaves out time the hypervisor runs other guests
    on this CPU, and wall time otherwise.
    """

    def __init__(self, cal, on_block=None):
        self.cal = cal
        self.on_block = on_block
        self.wall = self.units = self.cpu = 0.0
        self.attempted = self.failed = 0

    @staticmethod
    def _cpu() -> float:
        """User + system time of this process and its reaped children."""
        return sum(
            u.ru_utime + u.ru_stime
            for u in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        )

    def _start(self, before: float):
        self._before = before
        if self.on_block is not None:
            self.on_block()
        self._cpu0 = self._cpu()
        self._c0 = self.cal.clock()
        self._t0 = time.perf_counter()

    def begin(self):
        self._start(self.cal.point())

    def end(self, attempted: int, failed: int) -> float:
        t1 = time.perf_counter()
        c1 = self.cal.clock()
        cpu1 = self._cpu()
        after = self.cal.point()
        self.wall += t1 - self._t0
        self.units += self.cal.units(self._c0, c1, self._before, after)
        self.cpu += cpu1 - self._cpu0
        self.attempted += attempted
        self.failed += failed
        return after

    def split(self, attempted: int, failed: int):
        self._start(self.end(attempted, failed))


def _seconds_to_ready(argv: list[str]) -> float:
    """Wall time from spawning ``argv`` until it prints its ready line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"{argv[1:]} exited {rc} without its ready line")
    return elapsed


def setup_seconds(workload: str) -> tuple[float, float]:
    """Set-up time of the workload in a fresh process: (raw, at nominal host speed).

    Each of SETUP_PROBES probes runs between two reference processes and is
    scaled by REFERENCE_NOMINAL_S / (mean time of those two); both values
    are medians over the probes.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload]
    reference = [sys.executable, "-c", REFERENCE_CODE]
    refs = [_seconds_to_ready(reference)]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_seconds_to_ready(probe))
        refs.append(_seconds_to_ready(reference))
    scaled = [t * REFERENCE_NOMINAL_S / (0.5 * (a + b)) for t, a, b in zip(raw, refs, refs[1:])]
    return statistics.median(raw), statistics.median(scaled)


def timed_pass(workload, seed: int, tracer=None) -> PassTimer:
    """One pass with its own calibrator; with a tracer, one op per block."""
    from calib import Calibrator
    import workloads

    cal = Calibrator(workload.in_thread, workload.small_array_passes)
    timer = PassTimer(cal, on_block=None if tracer is None else tracer.new_op)
    cal.start()
    try:
        workloads.run_pass(workload, timer, seed)
    finally:
        cal.stop()
    return timer


def traced_pass(workload, seed: int):
    """One pass with the tracer installed; the wrappers are gone on return."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        timer = timed_pass(workload, seed, tracer)
    finally:
        tracer.uninstall()
    return tracer, timer


def host_record(passes) -> dict:
    import calib
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration": calib.summary(p.cal for p in passes),
    }


def run(args) -> tuple[dict, dict]:
    work_dir = WORK / str(os.getpid())
    workload = setup(args.workload, work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)  # verify-all's c14 uses tempfile
    try:
        return _measure(args, workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(args, workload) -> tuple[dict, dict]:
    passes = []
    if args.trace:
        # overhead: the same blocks untraced, then traced
        probe = workload.overhead_probe()
        untraced = timed_pass(probe, args.seed)
        passes.append(untraced)
        if probe is not workload:
            passes.append(traced_pass(probe, args.seed)[1])
        tracer, timer = traced_pass(workload, args.seed)
        passes.append(timer)
        overhead = passes[1].units / untraced.units
        tracer.write(WORK / f"trace_{args.workload}.npz")
    else:
        nominal = NOMINAL_PASS_S.get(args.workload, math.inf)
        for k in range(max(1, int(args.seconds // nominal))):
            passes.append(timed_pass(workload, args.seed * 1000 + k))
    record = {"host": host_record(passes)}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = tracer.metrics(overhead)
    else:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        setup_raw_s, setup_s = setup_seconds(args.workload)
        values = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "wall_cal": statistics.median(p.units for p in passes),
            "peak_rss_mb": usage / 1024.0,
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "ops_per_s": statistics.median(p.attempted / p.wall for p in passes),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record["raw"] = {name: {"value": values[name], "unit": unit} for name, unit in RAW.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def _table(rows: dict[str, tuple[dict, dict]]) -> str:
    """Metrics and raw values by name (rows) and workload (columns), plus fail_frac."""
    cols = {w: {**res["metrics"], **rec.get("raw", {})} for w, (rec, res) in rows.items()}
    names = list(dict.fromkeys(n for c in cols.values() for n in c))
    lines = ["metric".ljust(42) + "unit".ljust(7) + "".join(w.rjust(14) for w in rows)]
    for n in names:
        unit = next(c[n]["unit"] for c in cols.values() if n in c)
        cells = "".join(f"{c[n]['value']:14.6g}" if n in c else " " * 14 for c in cols.values())
        lines.append(n.ljust(42) + unit.ljust(7) + cells)
    fail = "".join(f"{res['failed'] / res['attempted']:14.6g}" for _, res in rows.values())
    lines.append("fail_frac".ljust(42) + "1".ljust(7) + fail)
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload in turn, each in its own benchmark process."""
    rows = {}
    for w in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        if out.returncode != 0:
            print(f"rcmbench: workload {w} exited {out.returncode}", file=sys.stderr)
            return out.returncode
        record, result = out.stdout.strip().splitlines()[-2:]
        rows[w] = (json.loads(record), json.loads(result))
    print(_table(rows))
    return 0 if all(res["correct"] for _, res in rows.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.setup_probe, WORK / str(os.getpid()))
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    record, result = run(args)
    print(_table({args.workload: (record, result)}), file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
