"""Fixtures shared by the test modules."""

import sys

import pytest

from mctails import matkernel, qbd


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


@pytest.fixture
def each_gth_loop(monkeypatch):
    """each_gth_loop() iterates twice, with matkernel.FLOAT_FOLD_CELLS set
    so that every fold of stationary_row takes its numpy-slice loop, then
    its Python-float loop."""
    def turns():
        for cells in (-1, sys.maxsize):
            monkeypatch.setattr(matkernel, "FLOAT_FOLD_CELLS", cells)
            yield
    return turns
