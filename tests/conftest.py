"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def no_cache_from_environment(monkeypatch):
    # a developer's OLIVE_CACHE would serve or store counts behind the
    # tests' backs; tests that want the variable set it themselves
    monkeypatch.delenv("OLIVE_CACHE", raising=False)
