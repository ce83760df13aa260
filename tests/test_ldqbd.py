"""Level-dependent QBD: rate sequences, product form, forward factorization."""

import numpy as np
import pytest

from mctails import ldqbd, solve_tails
from mctails.errors import Unstable, ValidationError
from mctails.ldqbd import (
    LdQbdModel,
    lu_measures,
    solve_rate_sequence,
    stationary_product,
    tails_lu_ld,
)
from mctails.matkernel import inf_norm
from mctails.oracle import truncate_and_solve
from mctails.qbd import QbdModel

MM1 = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])

# Two-phase chain whose arrivals slow down and services speed up over the
# first four levels, constant afterwards.
_SWITCH = np.array([[0.0, 0.4], [0.5, 0.0]])


def _ramp_up(k):
    return np.array([[0.6, 0.1], [0.2, 0.3]]) / (1.0 + 0.5 * min(k, 4))


def _ramp_down(k):
    return np.array([[1.5, 0.0], [0.3, 1.2]]) * (1.0 + 0.25 * min(k, 4))


def _ramp_diag(k):
    down = _ramp_down(k) if k >= 1 else np.zeros((2, 2))
    total = _ramp_up(k).sum(axis=1) + down.sum(axis=1) + _SWITCH.sum(axis=1)
    return _SWITCH - np.diag(total)


RAMP2 = LdQbdModel.from_rule(_ramp_up, _ramp_diag, _ramp_down, 12)


def test_embedded_level_independent_chain_matches_flat_solver():
    ld = LdQbdModel.from_qbd(MM1, 40)
    flat = solve_tails(MM1, 12, method="mg")
    prod = solve_tails(ld, 12, method="product")
    gap = max(inf_norm(flat.level(k) - prod.level(k)) for k in range(1, 13))
    assert gap < 1e-9
    assert inf_norm(flat.x0 - prod.x0) < 1e-10


def test_rate_sequence_collapses_to_the_flat_rate_matrix():
    ld = LdQbdModel.from_qbd(MM1, 30)
    rates = solve_rate_sequence(ld)
    assert rates.backward_sweeps == 1
    assert max(rates.residuals) < 1e-12
    for r in rates.matrices:
        assert abs(float(r[0, 0]) - 0.5) < 1e-9


def test_forward_elimination_follows_the_scalar_recursion():
    """On the embedded M/M/1 the window pivots and down factors obey
    psi_k = -3 + 2/(-psi_{k-1}) from psi_0 = -3, with down factors
    1/(-psi_k) climbing monotonically toward 1/2."""
    ld = LdQbdModel.from_qbd(MM1, 20)
    meas = lu_measures(ld, 12)
    psi = -3.0
    downs = []
    for k in range(1, 12):
        downs.append(1.0 / -psi)
        psi = -3.0 + 2.0 / -psi
    got = [float(g[0, 0]) for g in meas.down_blocks]
    assert np.allclose(got, downs, atol=1e-12)
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got[-1] < 0.5
    assert abs(float(meas.psis[11][0, 0]) - psi) < 1e-12


def test_product_and_factored_routes_agree_on_a_ramp_chain():
    prod = solve_tails(RAMP2, 8, method="product")
    lu = solve_tails(RAMP2, 8, method="lu")
    gap = max(inf_norm(prod.level(k) - lu.level(k)) for k in range(1, 9))
    assert gap < 1e-9


def test_ramp_chain_matches_dense_truncation():
    series = solve_tails(RAMP2, 15, method="product")
    reference = truncate_and_solve(RAMP2, 200)
    gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 16))
    assert gap < 1e-8
    assert inf_norm(series.x0 - reference.x0) < 1e-8


def test_level_one_tail_complements_the_boundary_mass():
    series = solve_tails(RAMP2, 5, method="product")
    assert abs(float(series.level(1).sum()) + float(series.x0.sum()) - 1.0) < 1e-10


def test_factored_route_solves_through_the_factors_once(count_calls):
    """One pass through the window factors gives the stationary rows; the
    tails are their suffix sums, and the report carries the window width and
    the edge row the cut leaves out."""
    rates = solve_rate_sequence(RAMP2)
    prod = stationary_product(RAMP2, rates, 6)
    calls = count_calls(ldqbd, "_apply_inverse")
    series = tails_lu_ld(RAMP2, prod.x0, 6)
    assert calls == [1]
    assert series.truncation_report["terms"] == 26
    assert 0.0 < series.truncation_report["edge_row_norm"] < 1e-20
    gap = max(inf_norm(prod.level(k) - series.level(k)) for k in range(1, 7))
    assert gap < 1e-15


def test_chain_unstable_beyond_the_horizon_is_refused():
    ld = LdQbdModel.from_rule(
        lambda k: np.array([[2.0]]),
        lambda k: np.array([[-3.0]]) if k else np.array([[-2.0]]),
        lambda k: np.array([[1.0]]),
        3,
    )
    rates = solve_rate_sequence(ld)
    with pytest.raises(Unstable):
        stationary_product(ld, rates, 5)


def test_blocks_clamp_past_the_horizon():
    assert np.array_equal(RAMP2.block_at("A0", 100), RAMP2.block_at("A0", 12))
    assert np.array_equal(RAMP2.block_at("A2", 100), RAMP2.block_at("A2", 12))
    with pytest.raises(ValidationError):
        RAMP2.block_at("A2", 0)
    with pytest.raises(ValidationError):
        RAMP2.block_at("A9", 1)


def test_model_validation_rejects_mismatched_tables():
    with pytest.raises(ValidationError):
        LdQbdModel((np.array([[1.0]]),), (np.array([[-1.0]]),), ())
    with pytest.raises(ValidationError):
        LdQbdModel.from_qbd(MM1, 1)


def test_row_sum_violations_are_rejected():
    with pytest.raises(ValidationError):
        LdQbdModel(
            (np.array([[1.0]]), np.array([[1.0]])),
            (np.array([[-1.0]]), np.array([[-4.0]])),
            (np.array([[2.0]]),),
        )
