"""Fixtures shared by the test modules."""

import pytest

from mctails import qbd


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) replaces module.name by a wrapper that
    appends to the returned list on every call."""
    def install(module, name) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture
def rate_solve_tols(monkeypatch):
    """The tol of every qbd.solve_R call, in order."""
    tols = []
    original = qbd.solve_R

    def traced(*args, **kwargs):
        tols.append(kwargs.get("tol"))
        return original(*args, **kwargs)

    monkeypatch.setattr(qbd, "solve_R", traced)
    return tols
