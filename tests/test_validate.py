import dataclasses
import time

import pytest

from canalmpc import supervisor, validate
from canalmpc.canal import DEZ_REACHES
from canalmpc.control import compute_setpoint
from canalmpc.io import RunConfig
from canalmpc.topology import partition_of
from canalmpc.validate import run_checks


@pytest.mark.parametrize("n_reaches", [1, 2, 3, len(DEZ_REACHES)])
def test_invariants_hold_on_leading_reaches(n_reaches):
    """Every check runs on any reach table, including ones shorter than its partitions."""
    cfg = dataclasses.replace(RunConfig(), reaches=DEZ_REACHES[:n_reaches])
    failed = [(name, detail) for name, ok, detail in run_checks(cfg) if not ok]
    assert not failed


def test_partition_check_samples_long_chains():
    """Every check passes on a 20-reach chain within 5 s."""
    tail = [dataclasses.replace(r, index=13 + r.index) for r in DEZ_REACHES[:7]]
    cfg = dataclasses.replace(RunConfig(), reaches=DEZ_REACHES + tuple(tail))
    start = time.perf_counter()
    results = run_checks(cfg)
    assert time.perf_counter() - start < 5.0
    assert [(name, detail) for name, ok, detail in results if not ok] == []


@pytest.mark.parametrize("check, name, fault, detail", [
    ("coalition-block-assembly", "partition_of",
     lambda topology: partition_of(topology)[::-1], "assembly mismatch for "),
    ("global-steady-state", "compute_setpoint",
     lambda model, rho, omega: compute_setpoint(model, rho + 1.0, omega),
     "zero-level steady state moves by "),
    ("setpoint-telescoping", "compute_setpoint",
     lambda model, rho, omega: compute_setpoint(model, rho, omega + 1.0),
     "leaves the chain's steady state"),
], ids=["block-order", "wrong-offtakes", "wrong-boundary-flow"])
def test_broken_check_reported(monkeypatch, check, name, fault, detail):
    """A fault in what a check relies on fails that check, with its reason."""
    monkeypatch.setattr(validate, name, fault)
    results = {result[0]: result[1:] for result in run_checks(RunConfig())}
    ok, found = results[check]
    assert not ok
    assert detail in found


def test_failed_certificate_reported(monkeypatch):
    """A certificate past tolerance fails the synthesis check, naming the coalition."""
    monkeypatch.setattr(supervisor, "CERT_RTOL", 0.0)
    results = {name: (ok, detail) for name, ok, detail in run_checks(RunConfig())}
    ok, detail = results["synthesis-certificates"]
    assert not ok
    assert "certificate failed for coalition (1,)" in detail
