"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from brauerval.lattices import forget_memos


@pytest.fixture(autouse=True)
def forget_memos_after_test():
    """Empty the memo tables after each test, as the CLI does after each task.

    A test that monkeypatches an engine function then never reads an
    answer memoised by an earlier test, nor leaves one for a later test.
    """
    yield
    forget_memos()
