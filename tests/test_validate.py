import dataclasses

import pytest

from canalmpc.canal import DEZ_REACHES
from canalmpc.io import RunConfig
from canalmpc.validate import run_checks


@pytest.mark.parametrize("n_reaches", [1, 2, 3, len(DEZ_REACHES)])
def test_invariants_hold_on_leading_reaches(n_reaches):
    """Every check runs on any reach table, including ones shorter than its partitions."""
    cfg = dataclasses.replace(RunConfig(), reaches=DEZ_REACHES[:n_reaches])
    failed = [(name, detail) for name, ok, detail in run_checks(cfg) if not ok]
    assert not failed
