"""The tail assembler: suffix sums, and the tail vectors of a series by level."""

import numpy as np
import pytest

from mctails.series import TailSeries, _powers, _suffix_sums


def _backward(rows, past):
    """out[k] = rows[k] + out[k + 1], from out[len(rows)] = past."""
    out = [past]
    for row in rows[::-1]:
        out.append(row + out[-1])
    return np.array(out[::-1])


@pytest.mark.parametrize("shape", [(7,), (5, 3), (4, 2, 2), (1, 3, 3)],
                         ids=["scalars", "rows", "blocks", "one-block"])
@pytest.mark.parametrize("with_past", [False, True])
def test_suffix_sums_are_the_backward_recurrence_bit_for_bit(shape, with_past):
    rng = np.random.default_rng(len(shape) + 10 * with_past)
    rows = rng.random(shape) * 10.0 ** rng.integers(-300, 3, size=shape)
    past = rng.random(shape[1:]) if with_past else None
    want = _backward(list(rows), np.zeros(shape[1:]) if past is None else past)
    got = _suffix_sums(rows, past)
    assert got.shape == (shape[0] + 1, *shape[1:])
    assert np.array_equal(got, want)
    assert np.array_equal(_suffix_sums(list(rows), past), want)


@pytest.mark.parametrize("first_level", [0, 1])
def test_rows_stacks_the_levels_it_is_asked_for(first_level):
    pis = [np.array([k, -k], dtype=float) for k in range(first_level, first_level + 4)]
    series = TailSeries(pis, first_level=first_level)
    last = series.last_level
    assert np.array_equal(series.rows(first_level, last), np.array(pis))
    assert np.array_equal(series.rows(first_level + 1, first_level + 2), np.array(pis[1:3]))
    assert np.array_equal(series.rows(last, last), pis[-1][None])
    for lo, hi in [(first_level - 1, last), (first_level, last + 1), (last + 1, last + 1)]:
        with pytest.raises(IndexError, match="outside"):
            series.rows(lo, hi)


@pytest.mark.parametrize("m", [1, 2, 32])
# 8 and 72 levels fill whole blocks (of 4 and 12 levels for m <= 2, of 1
# and 2 for m = 32); one level fewer or more leaves the last block partial
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 71, 72, 73, 400])
def test_powers_are_the_row_by_row_products(m, n):
    """The stacked, blocked rows head P^k match head, head P, ... formed one
    product at a time, within a few n m machine epsilons of each entry,
    whatever P's memory order; asked for its last columns only, _powers
    gives those columns of the full rows bit for bit."""
    rng = np.random.default_rng(m)
    rate = rng.random((m, m))
    rate *= 0.97 / rate.sum(axis=1).max()
    head = rng.random(m)
    want = [head]
    for _ in range(1, n):
        want.append(want[-1] @ rate)
    for order in "CF":
        ordered = np.asarray(rate, order=order)
        got = _powers(head, ordered, n)
        assert got.shape == (n, m)
        if n:
            assert np.array_equal(got[0], head)
            rel = np.abs(got - np.array(want)) / np.array(want)
            assert rel.max() <= 4 * n * m * np.finfo(float).eps
        _assert_trailing_columns_are_the_full_rows_bits(head, ordered, n, got)


def _assert_trailing_columns_are_the_full_rows_bits(head, rate, n, full):
    m = len(rate)
    for last in sorted({1, (m + 1) // 2, m}):
        trailing = _powers(head, rate, n, last)
        assert trailing.shape == (n, last)
        assert trailing.tobytes() == full[:, m - last:].tobytes()


@pytest.mark.parametrize("m,n", [(2, 3), (8, 10), (32, 20), (32, 63)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_powers_of_single_row_blocks_are_the_row_by_row_bits(m, n, order):
    """Below 2m levels the blocks hold one row each, and every row is the
    row before it times P, bit for bit, whatever P's memory order; so are
    the last columns alone."""
    rng = np.random.default_rng(m + n)
    rate = rng.random((m, m)) / m
    head = rng.random(m)
    want = [head]
    for _ in range(1, n):
        want.append(want[-1] @ rate)
    ordered = np.asarray(rate, order=order)
    assert _powers(head, ordered, n).tobytes() == np.array(want).tobytes()
    _assert_trailing_columns_are_the_full_rows_bits(head, ordered, n, np.array(want))


def test_a_series_owns_its_report_and_its_fields_can_be_reassigned():
    first, second = TailSeries([np.ones(2)]), TailSeries([np.ones(2)], None, "m", None, 0)
    first.truncation_report["terms"] = 3
    assert second.truncation_report == {} and second.first_level == 0
    first.pis = np.zeros((2, 2))
    assert first.last_level == 2
    pis = [np.ones(2)]
    assert TailSeries(pis, method="m") == TailSeries(pis, method="m")
    assert TailSeries(pis, method="m") != TailSeries(pis, method="n")


def test_series_compare_their_arrays_by_value():
    """Equal but distinct arrays make equal series, in a list of rows or one
    stack; one differing entry, or an x0 on one side only, makes them
    differ.  Series do not hash."""
    def series(pis, x0=None):
        return TailSeries(pis, x0, "mg", {"terms": 3})

    assert series([np.ones(2), np.ones(2)]) == series([np.ones(2), np.ones(2)])
    assert series(np.ones((2, 2)), np.ones(3)) == series(np.ones((2, 2)), np.ones(3))
    assert series([np.ones(2)]) != series([np.array([1.0, 0.5])])
    assert series([np.ones(2)], np.ones(3)) != series([np.ones(2)], np.zeros(3))
    assert series([np.ones(2)]) != series([np.ones(2)], np.ones(3))
    assert series([np.ones(2)], np.ones(3)) != series([np.ones(2)])
    assert series([np.ones(2)]) != TailSeries([np.ones(2)], None, "ul", {"terms": 3})
    with pytest.raises(TypeError):
        hash(series([np.ones(2)]))
