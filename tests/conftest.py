"""Shared test set-up: every test starts from a process with no remembered scan calls."""

import pytest

from zetabound import verifier


@pytest.fixture(autouse=True)
def _cold_scan_memo(monkeypatch):
    # kernel-spy tests count the calls a scan makes, which a call another
    # test's scan left in verifier._MEMO would hide; the memo is rebound,
    # as scans rebind it, so no published map is mutated
    monkeypatch.setattr(verifier, "_MEMO", {})
