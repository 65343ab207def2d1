"""Shared test set-up: every test starts from a process with no remembered scan calls."""

import pytest

from zetabound import verifier


@pytest.fixture(autouse=True)
def _cold_scan_memo():
    # kernel-spy tests count the calls a scan makes, which a call another
    # test's scan left in verifier._MEMO would hide
    verifier._MEMO.clear()
