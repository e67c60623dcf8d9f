"""Acceptance suite: one test per exit criterion.

The full battery runs once per session (several minutes of Monte Carlo);
each test then asserts a single criterion so failures point at the exact
broken guarantee.  Every run prints one PASS/FAIL line per criterion.
"""

import hashlib
import json
import os

import pytest

from rcmlab.acceptance import CRITERIA, AcceptanceContext, run_all
from rcmlab.reports import write_json

# sha256 of {cid: details} as write_json writes it; the details do not
# depend on the worker count
DETAILS_SHA256 = "fa8bf520a3c76f918d6b107ed11a9899e9ce09b9905b4a8be7678d367e4e6cc3"


def _workers():
    """Up to 2 workers, so the pooled path runs too."""
    return min(2, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def results():
    ctx = AcceptanceContext(workers=_workers())
    out = {}
    for res in run_all(ctx):
        out[res.cid] = res
    return out


def _assert_passed(results, cid):
    res = results[cid]
    assert res.passed, f"{res.cid} {res.name}: {json.dumps(res.details, default=str)}"


def test_c01_coupling_identity(results):
    _assert_passed(results, "c01")


def test_c02_exact_scaled_mean(results):
    _assert_passed(results, "c02")


def test_c03_exact_scaled_variance(results):
    _assert_passed(results, "c03")


def test_c04_limit_convergence(results):
    _assert_passed(results, "c04")


def test_c05_vanishing_limits(results):
    _assert_passed(results, "c05")


def test_c06_swapped_truncation_degenerates(results):
    _assert_passed(results, "c06")


def test_c07_limiting_variance_density(results):
    _assert_passed(results, "c07")


def test_c08_central_limit_behaviour(results):
    _assert_passed(results, "c08")


def test_c09_domination_bound(results):
    _assert_passed(results, "c09")


def test_c10_variance_ratio_to_one(results):
    _assert_passed(results, "c10")


def test_c11_martingale_identity(results):
    _assert_passed(results, "c11")


def test_c12_covariance_field_and_boxes(results):
    _assert_passed(results, "c12")


def test_c13_variance_lower_bound(results):
    _assert_passed(results, "c13")


def test_c14_determinism(results):
    _assert_passed(results, "c14")


def test_every_criterion_covered(results):
    assert len(results) == len(CRITERIA) == 14


def test_details_are_pinned(results, tmp_path):
    path = write_json(tmp_path / "details.json", {cid: res.details for cid, res in results.items()})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DETAILS_SHA256
