"""Dense kernel checks: guarded solves and stationary rows."""

from pathlib import Path

import numpy as np
import pytest

from mctails.errors import SingularMatrix, ValidationError
from mctails.matkernel import (
    as_matrix,
    inf_norm,
    inverse,
    solve_linear,
    solve_xa,
    stationary_row,
)


def test_solve_round_trip_on_random_system():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
    x = rng.normal(size=20)
    got = solve_linear(a, a @ x)
    assert inf_norm(got - x) < 1e-10


def test_solve_accepts_matrix_right_hand_sides():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    assert inf_norm(a @ inverse(a) - np.eye(6)) < 1e-12


def test_solve_xa_works_in_row_orientation():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
    x = rng.normal(size=5)
    got = solve_xa(a, x @ a)
    assert inf_norm(got - x) < 1e-11


def test_pivoting_handles_zero_leading_entry():
    got = solve_linear([[0.0, 1.0], [1.0, 0.0]], [2.0, 3.0])
    assert np.allclose(got, [3.0, 2.0])


def test_singular_system_is_rejected():
    # exactly singular, then singular to working precision (1-norm
    # reciprocal condition number about 3e-16)
    for a in ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]]):
        with pytest.raises(SingularMatrix):
            solve_linear(a, [1.0, 1.0])
        with pytest.raises(SingularMatrix):
            inverse(a)


def test_nonsquare_matrix_is_rejected():
    with pytest.raises(ValidationError):
        solve_linear([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 1.0])


def test_stationary_row_of_a_generator():
    v = stationary_row([[-1.0, 1.0], [2.0, -2.0]])
    assert inf_norm(v - np.array([2.0, 1.0]) / 3.0) < 1e-12


def test_stationary_row_of_a_stochastic_kernel():
    v = stationary_row([[0.6, 0.4], [0.2, 0.8]], continuous=False)
    assert inf_norm(v - np.array([1.0, 2.0]) / 3.0) < 1e-12


def test_stationary_row_rejects_rank_deficiency_beyond_one():
    with pytest.raises(SingularMatrix):
        stationary_row(np.zeros((3, 3)))


def test_stationary_row_rejects_two_closed_classes():
    # states {0, 1} and {2, 3} never reach each other
    q = np.array([[-1.0, 1.0, 0.0, 0.0],
                  [2.0, -2.0, 0.0, 0.0],
                  [0.0, 0.0, -3.0, 3.0],
                  [0.0, 0.0, 1.0, -1.0]])
    with pytest.raises(SingularMatrix):
        stationary_row(q)


def test_stationary_row_gives_transient_low_states_no_mass():
    # state 0 leaves for state 1, which never returns: the row is unique
    assert np.array_equal(stationary_row([[-1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])
    # two absorbing states above a transient one still have no unique row
    with pytest.raises(SingularMatrix, match="state 2 reaches no lower state"):
        stationary_row([[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_stationary_row_rejects_negative_off_diagonal_entries():
    with pytest.raises(ValidationError):
        stationary_row([[-1.0, 1.5, -0.5], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]])
    # roundoff below an exact zero counts as zero
    v = stationary_row([[-1.0, 1.0, -1e-20], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
    assert inf_norm(v - np.array([2.0, 2.0, 1.0]) / 5.0) < 1e-15


def test_stationary_row_of_an_unevenly_banded_kernel():
    # lower reach 2, upper reach 5: every fold stays inside that band
    rng = np.random.default_rng(11)
    n = 40
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    p = np.where((offsets <= 2) & (offsets >= -5), rng.random((n, n)), 0.0)
    p /= p.sum(axis=1, keepdims=True)
    v = stationary_row(p, continuous=False)
    assert abs(v.sum() - 1.0) < 1e-14
    assert inf_norm(v @ p - v) < 1e-15


def test_stationary_row_of_a_chain_that_climbs_past_the_float_range():
    # birth rate 4, death rate 1 on 600 states: v_k is 4^k up to scale
    n = 600
    q = np.diag(np.full(n - 1, 4.0), 1) + np.diag(np.ones(n - 1), -1)
    q -= np.diag(q.sum(axis=1))
    v = stationary_row(q)
    assert abs(v[-1] - 0.75) < 1e-15
    assert abs(v[-2] / v[-1] - 0.25) < 1e-15


def test_as_matrix_rejects_ragged_and_non_finite_input():
    with pytest.raises(ValidationError):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(ValidationError):
        as_matrix([[np.inf, 1.0], [0.0, 1.0]])


def test_inf_norm_on_vectors_and_matrices():
    assert inf_norm([1.0, -4.0, 2.0]) == 4.0
    assert inf_norm([[1.0, -2.0], [0.5, 0.5]]) == 3.0


def test_only_matkernel_uses_numpy_linalg():
    package = Path(__file__).resolve().parents[1] / "src" / "mctails"
    users = sorted(p.name for p in package.glob("*.py")
                   if "linalg" in p.read_text() and p.name != "matkernel.py")
    assert users == []
