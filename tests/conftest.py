"""Fixtures shared by the test modules."""

import sys
import tracemalloc
from typing import NamedTuple

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


class Traced(NamedTuple):
    """What a call left under tracemalloc: its result, and the bytes it
    still held at its end, above its start."""

    result: object
    kept: int


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "memory: bounds a traced memory peak (the tests that use traced_memory)")


def pytest_collection_modifyitems(items):
    for item in items:
        if "traced_memory" in getattr(item, "fixturenames", ()):
            item.add_marker("memory")


@pytest.fixture
def traced_memory():
    """traced_memory(call, bound, unit=1, what="B", label="") runs call()
    under tracemalloc and returns a Traced.  It prints the peak in units,
    named `what`, next to the bound, which ``pytest -rA`` shows, and asserts
    the peak is below bound units.  Every test that uses it is marked
    ``memory``."""
    def measure(call, bound, unit=1, what="B", label="") -> Traced:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        line = f"{label}peak {(peak - base) / unit:.2f} {what}, bound {bound:g} {what}"
        print(line)
        assert peak - base < bound * unit, line
        return Traced(result, kept - base)

    return measure
