"""The tail assembler: suffix sums, and the tail vectors of a series by level."""

import numpy as np
import pytest

from mctails.series import TailSeries, _suffix_sums


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
