import dataclasses
import time

import pytest

from canalmpc import supervisor
from canalmpc.canal import DEZ_REACHES
from canalmpc.io import RunConfig
from canalmpc.validate import run_checks


@pytest.mark.parametrize("n_reaches", [1, 2, 3, len(DEZ_REACHES)])
def test_invariants_hold_on_leading_reaches(n_reaches):
    """Every check runs on any reach table, including ones shorter than its partitions."""
    cfg = dataclasses.replace(RunConfig(), reaches=DEZ_REACHES[:n_reaches])
    failed = [(name, detail) for name, ok, detail in run_checks(cfg) if not ok]
    assert not failed


def test_partition_check_samples_long_chains():
    """Past 16 reaches the partition check samples instead of enumerating 2^(N-1)."""
    tail = [dataclasses.replace(r, index=13 + r.index) for r in DEZ_REACHES[:7]]
    cfg = dataclasses.replace(RunConfig(), reaches=DEZ_REACHES + tuple(tail))
    start = time.perf_counter()
    results = run_checks(cfg)
    assert time.perf_counter() - start < 5.0
    assert [(name, detail) for name, ok, detail in results if not ok] == []
    detail = dict((name, detail) for name, _, detail in results)["partition-conditions-exhaustive"]
    assert detail == "4096 topologies, a seeded sample of the 2^19"


def test_failed_certificate_reported(monkeypatch):
    """A certificate past tolerance fails the synthesis check, naming the coalition."""
    monkeypatch.setattr(supervisor, "CERT_RTOL", 0.0)
    results = {name: (ok, detail) for name, ok, detail in run_checks(RunConfig())}
    ok, detail = results["synthesis-certificates"]
    assert not ok
    assert "certificate failed for coalition (1,)" in detail
