"""Dense kernel checks: guarded solves and stationary rows."""

from pathlib import Path

import numpy as np
import pytest

from mctails.errors import SingularMatrix, ValidationError
from mctails.matkernel import (
    Band,
    as_matrix,
    inf_norm,
    inverse,
    solve_linear,
    solve_sweep,
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


@pytest.mark.parametrize("a,message", [
    ([[1.0, 2.0], [2.0, 4.0]], r"^2 x 2 system: "),
    ([[1.0, 1.0], [1.0, 1.0 + 1e-15]],
     r"^2 x 2 system: reciprocal condition number \d\.\d{3}e-\d\d below 1\.0e-14$"),
], ids=["exact", "to-working-precision"])
def test_single_system_guard_names_its_reason(a, message):
    with pytest.raises(SingularMatrix, match=message):
        solve_linear(a, [1.0, 1.0])
    with pytest.raises(SingularMatrix, match=message):
        inverse(a)


def test_single_system_guard_refuses_a_non_finite_solution():
    with pytest.raises(SingularMatrix, match=r"^1 x 1 system: non-finite solution$"):
        solve_linear([[0.5]], [1.7e308])
    # a subnormal pivot: the inverse overflows while the norm of A stays 1
    with pytest.raises(SingularMatrix, match=r"^2 x 2 system: non-finite solution$"):
        inverse([[1e-310, 0.0], [0.0, 1.0]])
    # a subnormal 1-norm: 1 / ||A||_1 overflows too, and only the guard speaks
    with pytest.raises(SingularMatrix, match=r"^1 x 1 system: non-finite solution$"):
        solve_linear([[1e-310]], [1.0])


# the systems test_singular_system_is_rejected refuses one at a time
SINGULAR = ([[1.0, 2.0], [2.0, 4.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-15]])
WELL_POSED = [[2.0, 1.0], [1.0, 3.0]]


def _sweep(stack):
    """A sweep whose systems do not depend on each other: stack[i] X = e."""
    return solve_sweep(lambda i, x, inv: np.array(stack[i]), np.ones((len(stack), 2, 1)),
                       lambda i: f"system {i}")


@pytest.mark.parametrize("singular", SINGULAR, ids=["exact", "to-working-precision"])
def test_sweep_guard_refuses_the_singular_systems(singular):
    """The guard runs once after the sweep and names the first system it
    refuses, however the systems after it fare."""
    with pytest.raises(SingularMatrix, match="^system 1: 2 x 2 system: "):
        _sweep([WELL_POSED, singular, WELL_POSED])
    with pytest.raises(SingularMatrix, match="^system 1: "):
        _sweep([WELL_POSED, singular] + list(SINGULAR))


def test_sweep_refusal_names_the_first_system_it_marks():
    refuse = ("inverse refused", lambda inverses: np.array([False, True, True]))
    with pytest.raises(SingularMatrix, match="^system 1: inverse refused$"):
        solve_sweep(lambda i, x, inv: np.array(WELL_POSED), np.ones((3, 2, 1)),
                    lambda i: f"system {i}", refuse)


def test_sweep_solves_and_inverts_each_system():
    x, inverses = _sweep([WELL_POSED] * 3)
    assert x.shape == (3, 2, 1) and inverses.shape == (3, 2, 2)
    for got, inv in zip(x, inverses):
        assert inf_norm(np.array(WELL_POSED) @ got[:, 0] - 1.0) < 1e-15
        assert inf_norm(np.array(WELL_POSED) @ inv - np.eye(2)) < 1e-15


def test_sweep_passes_each_system_the_one_before():
    """A_i = A_{i-1}^-1 + I, built from the inverse the sweep passed on."""
    seen = []

    def coefficient(i, x, inv):
        seen.append(inv)
        return np.eye(2) * 2.0 if inv is None else inv + np.eye(2)

    _, inverses = solve_sweep(coefficient, np.empty((3, 2, 0)), str)
    assert seen[0] is None
    for i in (1, 2):
        assert inf_norm(inverses[i] @ (inverses[i - 1] + np.eye(2)) - np.eye(2)) < 1e-15


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


def test_stationary_row_refuses_a_row_that_misses_balance():
    """The second row sums to -2, so no row balances it: the GTH row
    (1/2, 1/2) leaves a residual of 1."""
    with pytest.raises(SingularMatrix,
                       match=r"^stationary solve left balance residual 1\.000e\+00$"):
        stationary_row([[-1.0, 1.0], [1.0, -3.0]])


def test_stationary_row_gives_transient_low_states_no_mass():
    # state 0 leaves for state 1, which never returns: the row is unique
    assert np.array_equal(stationary_row([[-1.0, 1.0], [0.0, 0.0]]), [0.0, 1.0])
    # state 1 falls into the absorbing state 0: nonzero below the diagonal only
    assert np.array_equal(stationary_row([[0.0, 0.0], [1.0, -1.0]]), [1.0, 0.0])
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


def test_stationary_row_of_a_single_state():
    # the full band of a 1 x 1 matrix has both reaches cut to 0
    assert np.array_equal(stationary_row([[0.0]]), [1.0])
    assert np.array_equal(stationary_row([[1.0]], continuous=False), [1.0])


def test_square_input_and_its_band_give_the_same_bits():
    # a 6-state generator with lower reach 1 and upper reach 2
    rng = np.random.default_rng(5)
    offsets = np.subtract.outer(np.arange(6), np.arange(6))
    inside = (offsets <= 1) & (offsets >= -2)
    q = np.where(inside, rng.random((6, 6)), 0.0)
    q -= np.diag(q.sum(axis=1))
    band = Band.zeros(6, 1, 2)
    band.view()[inside] = q[inside]
    assert np.array_equal(stationary_row(q), stationary_row(band))


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
