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
from mctails.models import RetrialParams, mnmn1_chain, retrial_chain
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
    rs = rates.matrices
    for l in range(len(rs) - 2):
        residual = (ld.block_at("A0", l) + rs[l] @ ld.block_at("A1", l + 1)
                    + rs[l] @ rs[l + 1] @ ld.block_at("A2", l + 2))
        assert inf_norm(residual) < 1e-12
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
    """One pass through the factors of a window of max(horizon, levels)
    levels gives the stationary rows; the frozen levels past it are added in
    closed form, and the report carries the window width."""
    rates = solve_rate_sequence(RAMP2)
    prod = stationary_product(RAMP2, rates, 6)
    calls = count_calls(ldqbd, "_apply_inverse")
    series = tails_lu_ld(RAMP2, rates, 6)
    assert calls == [1]
    assert series.truncation_report["terms"] == RAMP2.horizon
    assert tails_lu_ld(RAMP2, rates, 20).truncation_report["terms"] == 20
    assert inf_norm(prod.x0 - series.x0) < 1e-15
    gap = max(inf_norm(prod.level(k) - series.level(k)) for k in range(1, 7))
    assert gap < 1e-15


def test_lu_route_solves_the_rate_sequence_once(count_calls):
    """The factored route finds its own boundary row from the rate sequence
    and does not run the product route."""
    rates = count_calls(ldqbd, "solve_rate_sequence")
    products = count_calls(ldqbd, "stationary_product")
    solve_tails(RAMP2, 20, method="lu")
    assert rates == [1]
    assert products == []


def _max_rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


@pytest.mark.parametrize("route", ["product", "lu"])
def test_routes_close_a_birth_death_chain_at_its_horizon(route):
    """Arrivals 2, 1.5, 0.5 and services 1, 2, 3, the last rates repeating:
    t_1 = 2, t_2 = 1.5 and t_k = 0.25 (1/6)^(k-3) from k = 3, so
    pi_k = sum_{j>=k} t_j / 4.8.  Every level down to 200 (pi_200 ~ 1e-154)
    keeps its relative accuracy."""
    series = solve_tails(mnmn1_chain([2.0, 1.5, 0.5], [1.0, 2.0, 3.0]), 200, method=route)
    want = [3.8, 1.8] + [0.25 * 1.2 / 6.0 ** (k - 3) for k in range(3, 201)]
    assert _max_rel(series.x0, [1.0 / 4.8]) < 1e-12
    assert _max_rel([float(p[0]) for p in series.pis], [w / 4.8 for w in want]) < 1e-12


def test_routes_agree_on_the_retrial_chain_to_its_horizon():
    """Orbit size as level, phases (busy, idle), horizon 200: the two routes
    agree at every level, and every level row is positive and balances the
    idle state, mu x_busy,k = (lam + min(k, h) theta) x_idle,k."""
    lam, mu, theta, h = 1.0, 2.0, 1.0, 200
    chain = retrial_chain(RetrialParams(lam, mu, theta), h)
    prod = solve_tails(chain, 201, method="product")
    lu = solve_tails(chain, 201, method="lu")
    for k in range(1, 201):
        assert _max_rel(lu.level(k), prod.level(k)) < 1e-12
    for series in (prod, lu):
        rows = [series.x0] + [series.level(k) - series.level(k + 1) for k in range(1, 201)]
        for k, (busy, idle) in enumerate(rows):
            assert busy > 0 and idle > 0
            assert abs(mu * busy - (lam + min(k, h) * theta) * idle) < 1e-12 * mu * busy


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
