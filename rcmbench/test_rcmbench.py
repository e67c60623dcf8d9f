"""Tests of the benchmark itself (not part of the Tier-1 suite).

    python3 -m pytest -q rcmbench/test_rcmbench.py
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calib import Calibrator  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    import json

    return json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def _traced_counts(refs) -> dict:
    """Per-layer counts of one mc_tiny block and one d=1 moment, traced."""
    from rcmlab import exponential, moments

    tracer = tracing.Tracer()
    tracer.install()
    try:
        attempted, failed = workloads.MonteCarlo("mc_tiny", refs["mc_tiny"]).blocks()[0]()
        tracer.new_op()
        moments.limit_var_isolated(1.0, exponential(1.0), 1)
    finally:
        tracer.uninstall()
    assert (attempted, failed) == (400, 0)
    metrics = tracer.metrics(overhead=1.0)
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_two_traced_runs_give_identical_counts(refs):
    first = _traced_counts(refs)
    second = _traced_counts(refs)
    assert first == second
    assert first["stats.replications"] == 400
    assert first["connfn.tail_radius.calls"] > 0
    assert first["quadrature.adaptive_quad.calls"] > 0


def _holders():
    return tracing.Tracer()._holders()


def test_wrappers_are_removed_after_tracing(refs):
    from rcmlab import acceptance, connfn, moments, quadrature, simulator, stats

    before = {(id(h), k): v for h in _holders() for k, v in vars(h).items()}
    tracer = tracing.Tracer()
    tracer.install()
    assert quadrature.adaptive_quad is moments.adaptive_quad
    assert hasattr(moments.adaptive_quad, "rcmbench_span")
    assert hasattr(stats.simulate_graph, "rcmbench_span")
    assert hasattr(connfn.ConnectionFunction.eval, "rcmbench_span")
    assert all(hasattr(c, "rcmbench_span") for c in acceptance.CRITERIA)
    assert stats.ProcessPoolExecutor.__name__ == "TracedPool"
    tracer.uninstall()

    after = {(id(h), k): v for h in _holders() for k, v in vars(h).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(v, "rcmbench_span") for v in after.values())
    assert simulator.connect.__module__ == "rcmlab.simulator"


def _mc_block(name, refs):
    mc = workloads.MonteCarlo(name, refs[name])
    out = mc.stats.replicate_many(mc.cfg, mc.requests, mc.reps, workloads.MC_SEED, workers=1)
    return mc, out


def test_recorded_outputs_pass_their_checks(refs):
    for name in workloads.MC_BLOCKS:
        mc, out = _mc_block(name, refs)
        assert mc.check(0, out) == 0
    ref = refs["moments_d2"]["limit_var_isolated_disk"]
    assert workloads.moment_ok(0.048757943976608174, 1.057026930032906e-08, ref)


def test_corrupted_digest_fails_every_op_of_the_block(refs):
    name = "mc_tiny"
    corrupted = dict(refs[name], digests=["0" * 16] + refs[name]["digests"][1:])
    mc = workloads.MonteCarlo(name, corrupted)
    out = mc.stats.replicate_many(mc.cfg, mc.requests, mc.reps, workloads.MC_SEED, workers=1)
    assert mc.check(0, out) == mc.reps


def test_corrupted_value_fails(refs):
    mc, out = _mc_block("mc_tiny", refs)
    out["L"].values[7] += 1.0
    assert mc.check(0, out) == mc.reps

    ref = refs["moments_d2"]["limit_var_isolated_disk"]
    assert not workloads.moment_ok(0.0487580, 1.06e-8, ref)


def test_identity_checks_run_whatever_the_digest(refs, capsys):
    mc, out = _mc_block("mc_large", refs)
    out["C"].values[1] = 0.0
    out["J"].values[2] += 1.0
    assert mc.check(0, out) == mc.reps
    err = capsys.readouterr().err
    assert "2 replications break J == I + L or coupling == 1" in err
    assert "digest differs" in err

    # with a matching digest the identity failures alone are counted
    mc.digests = [workloads.values_digest(out, mc.names)]
    assert mc.check(0, out) == 2


def test_mc_tiny_mean_check(refs):
    mc = workloads.MonteCarlo("mc_tiny", refs["mc_tiny"])
    for block in mc.blocks()[:2]:
        assert block() == (mc.reps, 0)
    assert mc.finish_pass() == 0
    mc.mean_ref += 1.0
    mc.blocks()[0]()
    assert mc.finish_pass() == 1

    # the mean sees shifted values even though their digest fails the block
    mc, out = _mc_block("mc_tiny", refs)
    out["L"].values[:] += 1.0
    assert mc.check(0, out) == mc.reps
    assert mc.finish_pass() == 1


def test_fail_lines_and_exit_code_count_as_failed_ops(tmp_path):
    def fake_main(argv):
        print("PASS c01 coupling identity (0.1s)")
        print("FAIL c02 exact scaled mean (0.1s)")
        return 1

    va = workloads.VerifyAll(tmp_path)
    va.cli = SimpleNamespace(main=fake_main)
    timer = run.PassTimer(Calibrator())
    va.run_pass(timer)
    # c02 failed; c03-c14 never reported, so they count as failed too
    assert (timer.attempted, timer.failed) == (workloads.N_CRITERIA, 13)

    def all_pass_but_exit_1(argv):
        for k in range(1, workloads.N_CRITERIA + 1):
            print(f"PASS c{k:02d} criterion (0.1s)")
        return 1

    va.cli = SimpleNamespace(main=all_pass_but_exit_1)
    timer = run.PassTimer(Calibrator())
    va.run_pass(timer)
    assert (timer.attempted, timer.failed) == (workloads.N_CRITERIA, 1)


def test_traced_verify_all_has_one_outermost_cli_span(tmp_path, monkeypatch):
    """The workload's own cli.main call is traced; nested calls (as c14's) are not outermost."""
    from rcmlab import acceptance, cli

    def quick_run_all(ctx, echo=print):
        assert cli.main(["verify-all", "--config", str(tmp_path / "missing.cfg")]) == 2
        results = [
            acceptance.CriterionResult(f"c{k:02d}", "criterion", True, 0.0)
            for k in range(1, workloads.N_CRITERIA + 1)
        ]
        for r in results:
            echo(r.line())
        return results

    monkeypatch.setattr(cli, "run_all", quick_run_all)
    va = workloads.VerifyAll(tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        timer = run.PassTimer(Calibrator())
        va.run_pass(timer)
    finally:
        tracer.uninstall()
    assert (timer.attempted, timer.failed) == (workloads.N_CRITERIA, 0)

    sp = tracer.arrays()
    is_cli = sp["name"] == tracer.names.index("cli.main")
    assert np.count_nonzero(is_cli) == 2
    outer = np.flatnonzero(is_cli & ~sp["nested"])
    assert outer.size == 1 and sp["parent"][outer[0]] == -1
    outer_s = sp["end"][outer[0]] - sp["start"][outer[0]]
    self_s = tracer.metrics(overhead=1.0)["cli.main.self_s"]["value"]
    assert 0.0 < self_s <= outer_s


def test_calibration_units_reduce_to_time_over_mean_cost():
    cal = Calibrator()
    assert cal.units(1.0, 3.0, 0.5, 1.5) == pytest.approx(2.0)
    cal.samples.append((2.0, 2.0, 1.0))
    assert cal.units(1.0, 3.0, 1.0, 1.0) == pytest.approx(2.0)
    # a sample taken by the timed thread itself is left out of the block
    cal.samples[-1] = (2.0, 2.5, 1.0)
    assert cal.units(1.0, 3.0, 1.0, 1.0) == pytest.approx(1.5)
    assert cal.kernel() > 0.0
    assert np.isfinite(cal.point())


def test_small_array_pass_integrates_its_integrand():
    from scipy.integrate import quad

    exact = quad(lambda x: np.exp(-x * x) * np.sqrt(1.0 + x), 0.0, 1.0)[0]
    assert Calibrator._small_array_pass() == pytest.approx(exact, rel=1e-12)
    assert Calibrator(small_array_passes=3).kernel() > 0.0


def test_one_disturbed_sample_moves_little():
    cal = Calibrator()
    cal.samples.extend((float(t), float(t), 1.0) for t in range(1, 10))
    cal.samples[4] = (5.0, 5.0, 10.0)
    assert cal.units(0.0, 10.0, 1.0, 1.0) == pytest.approx(10.0)


def test_in_thread_blocks_leave_out_time_off_the_cpu():
    wall, thread = run.PassTimer(Calibrator()), run.PassTimer(Calibrator(in_thread=True))
    for timer in (wall, thread):
        timer.begin()
        time.sleep(0.05)
        timer.end(1, 0)
    assert wall.wall >= 0.05
    assert thread.units < 0.2 * wall.units


def test_in_thread_samples_come_from_the_main_thread_and_stop():
    previous = signal.getsignal(signal.SIGALRM)
    cal = Calibrator(in_thread=True)
    timer = run.PassTimer(cal)
    threads = threading.active_count()
    cal.start()
    try:
        assert threading.active_count() == threads
        timer.begin()
        c0 = time.thread_time()
        while time.thread_time() - c0 < 0.6:
            sum(k * 0.5 for k in range(1000))
        timer.end(1, 0)
    finally:
        cal.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inner = [s for s in cal.samples[1:-1] if s[1] > s[0]]
    assert len(inner) >= 1


def test_setup_seconds_scales_each_probe_by_the_references_around_it(monkeypatch):
    # ref, (probe, ref) x 3
    calls = iter([("-c", 0.8), ("run.py", 1.2), ("-c", 0.8), ("run.py", 1.0),
                  ("-c", 0.4), ("run.py", 1.2), ("-c", 0.4)])

    def fake_seconds_to_ready(argv):
        kind, seconds = next(calls)
        assert Path(argv[1]).name == kind
        return seconds

    monkeypatch.setattr(run, "SETUP_PROBES", 3)
    monkeypatch.setattr(run, "_seconds_to_ready", fake_seconds_to_ready)
    raw, scaled = run.setup_seconds("mc_tiny")
    # probes scale to 1.2 * 0.4 / 0.8, 1.0 * 0.4 / 0.6 and 1.2 * 0.4 / 0.4
    assert raw == pytest.approx(1.2)
    assert scaled == pytest.approx(run.REFERENCE_NOMINAL_S * 1.0 / 0.6)
