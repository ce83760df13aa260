"""Tail-probability series, and the one place that turns level masses x_j
into tails pi_k = sum_{j>=k} x_j: every route passes its level rows to
_suffix_sums or _from_levels, or a head and a rate matrix to _powers, the
power series that every level-independent tail is past its boundary."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError
from .matkernel import _ByValue


def _check_levels(value, least: int) -> None:
    """Refuse a level count that is not an integer of at least `least`, or is a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"levels must be an integer of at least {least}, got {value!r}")


def _powers(head, rate, levels: int, last: int | None = None) -> np.ndarray:
    """The rows head P^k, k < levels, of P = rate, stacked, or their `last`
    columns: each block of b ~ sqrt(2 levels) rows is one product of the
    row before it with [P | .. | P^b], copied out of one buffer, so only
    the columns asked for are kept, and b m <= levels keeps that stack
    within the rows.  It is built a power at a time: squaring repeats each
    rounding in every later power, 6x the error at level 400 of a 2-phase
    chain.  Where the rule leaves b = 1 (levels < 2m) each row is one
    product of the row before it with a C-ordered P, the bits the stack
    would give, written in place with no stack to build: the blocked loop's
    stack, buffer and copies cost up to a fifth more at 10-20 levels.
    Products go through np.dot, whose fixed cost per call is below
    np.matmul's, with the same bits."""
    m = len(rate)
    first = m - (last or m)
    block = max(1, min(math.isqrt(2 * levels), levels // m))
    if block == 1:
        rate = np.ascontiguousarray(rate)
        rows = np.empty((levels, m))
        rows[:1] = head
        for k in range(1, levels):
            np.dot(rows[k - 1], rate, out=rows[k])
        return rows[:, first:]
    width = block * m
    stack = np.empty((m, width))
    stack[:, :m] = rate
    for j in range(m, width, m):
        stack[:, j:j + m] = stack[:, j - m:j] @ rate
    rows, flat = np.empty((levels, m - first)), np.empty(m + width)
    rows[0], flat[:m] = head[first:], head
    for lo in range(1, levels, block):
        np.dot(flat[:m], stack, out=flat[m:])
        rows[lo:lo + block] = flat[m:].reshape(block, m)[:levels - lo, first:]
        flat[:m] = flat[-m:]
    return rows


def _suffix_sums(rows, past=None) -> np.ndarray:
    """s[k] = past + sum_{j>=k} rows[j] for k = 0..len(rows), so s[-1] = past
    (zero when None): one cumsum over the reversed stack, deepest row first."""
    if past is None:
        past = np.zeros_like(rows[0])
    return np.cumsum(np.concatenate(([past], rows[::-1])), axis=0)[::-1]


def _from_levels(rows, levels: int, method: str, report: dict, x0=None, past=None) -> TailSeries:
    """The TailSeries of level rows given up to one common scale, `past`
    the mass beyond the last row (see _suffix_sums).  With the boundary row
    `x0` the rows are levels 1..n, and x0 and the tails are scaled by
    kappa = 1/(x0 e + pi_1 e); without it they are levels 0..n, and the
    tails are divided by pi_0 e."""
    tails = _suffix_sums(rows, past)
    if x0 is None:
        pis, first = tails[:levels + 1] / tails[0].sum(), 0
    else:
        kappa = 1.0 / (float(x0.sum()) + float(tails[0].sum()))
        pis, x0, first = kappa * tails[:levels], kappa * x0, 1
    return TailSeries(pis, x0, method, report, first)


class TailSeries(_ByValue):
    """Tail-probability vectors for consecutive levels of a structured chain.

    pis[i], a row of a list or of one stacked array, is the tail vector of
    level ``first_level + i``: componentwise mass of all states at that
    level or above.  Generic chain solvers return series starting at level 1
    together with the boundary vector x0; the closed-form queue models start
    at level 0 (their level-0 entry sums to one) and leave x0 unset.  The
    fields may be reassigned; a series made without a truncation_report
    gets an empty dict of its own.  Series compare by value and do not hash.
    """

    __slots__ = ("pis", "x0", "method", "truncation_report", "first_level")

    def __init__(self, pis: list[np.ndarray] | np.ndarray, x0: np.ndarray | None = None,
                 method: str = "", truncation_report: dict | None = None,
                 first_level: int = 1):
        self.pis, self.x0, self.method = pis, x0, method
        self.truncation_report = {} if truncation_report is None else truncation_report
        self.first_level = first_level

    def __eq__(self, other):
        """By value, the arrays pis and x0 by np.array_equal: == on them
        gives an array, whose truth is ambiguous."""
        if type(other) is not type(self):
            return NotImplemented
        return (np.array_equal(self.pis, other.pis)
                and (self.x0 is None) == (other.x0 is None)
                and (self.x0 is None or np.array_equal(self.x0, other.x0))
                and (self.method, self.truncation_report, self.first_level)
                == (other.method, other.truncation_report, other.first_level))

    __hash__ = None

    @property
    def last_level(self) -> int:
        return self.first_level + len(self.pis) - 1

    def level(self, k: int) -> np.ndarray:
        if not self.first_level <= k <= self.last_level:
            raise IndexError(f"level {k} outside [{self.first_level}, {self.last_level}]")
        return self.pis[k - self.first_level]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """The tail vectors of levels lo..hi, stacked."""
        if not self.first_level <= lo <= hi <= self.last_level:
            raise IndexError(f"levels {lo}..{hi} outside [{self.first_level}, {self.last_level}]")
        return np.asarray(self.pis[lo - self.first_level:hi - self.first_level + 1])
