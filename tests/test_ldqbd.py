"""Level-dependent QBD: the product route's fold from the horizon down, the
lu route's fold from state 0 up."""

import functools
import json
import pathlib
import re
import warnings

import numpy as np
import pytest

from mctails import cross_check, ldqbd, matkernel, registry, solve_tails
from mctails.errors import SingularMatrix, Unstable, ValidationError
from mctails.ldqbd import (
    LdQbdModel,
    horizon_rate,
    stationary_product,
    tails_lu_ld,
)
from mctails.matkernel import inf_norm
from mctails.models import RetrialParams, mnmn1_chain, retrial_chain, retrial_tails
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


def _tabulate(up, diag, down, horizon):
    """The chain whose blocks at levels 0..horizon are the rules' values."""
    levels = range(horizon + 1)
    return LdQbdModel([up(k) for k in levels], [diag(k) for k in levels],
                      [down(k) for k in levels[1:]])


RAMP2 = _tabulate(_ramp_up, _ramp_diag, _ramp_down, 12)


def _embedded_mm1(horizon):
    """MM1 tabulated level by level up to `horizon`, its blocks repeated."""
    blocks = (functools.partial(MM1.block_at, kind) for kind in ("A0", "A1", "A2"))
    return _tabulate(*blocks, horizon)


def test_embedded_level_independent_chain_matches_flat_solver():
    ld = _embedded_mm1(40)
    flat = solve_tails(MM1, 12, method="mg")
    prod = solve_tails(ld, 12, method="product")
    gap = max(inf_norm(flat.level(k) - prod.level(k)) for k in range(1, 13))
    assert gap < 1e-9
    assert inf_norm(flat.x0 - prod.x0) < 1e-10


def test_product_rows_of_the_embedded_mm1_fall_by_half_per_level():
    """On M/M/1 (arrivals 1, services 2) tabulated to horizon 30, every
    rate R_l is 1/2, so the product route's level rows x_{l+1} = x_l R_l
    fall by 0.5 a level, in the window of levels 0..30 and past it."""
    series = solve_tails(_embedded_mm1(30), 40, method="product")
    pis = np.asarray(series.pis)[:, 0]
    rows = np.concatenate((series.x0, pis[:-1] - pis[1:]))
    assert _max_rel(rows[1:] / rows[:-1], [0.5] * 39) < 1e-13


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


def test_lu_route_folds_a_window_of_max_horizon_and_levels(count_calls):
    """One fold of the censored window of levels 0..max(horizon, levels)
    gives the stationary rows; the frozen levels past it are added in
    closed form, and the report carries the window width."""
    r_h = horizon_rate(RAMP2)
    prod = stationary_product(RAMP2, r_h, 6)
    folds = count_calls(ldqbd, "stationary_row")
    series = tails_lu_ld(RAMP2, r_h, 6)
    assert folds == [1]
    assert series.truncation_report["terms"] == RAMP2.horizon
    assert tails_lu_ld(RAMP2, r_h, 20).truncation_report["terms"] == 20
    assert inf_norm(prod.x0 - series.x0) < 1e-15
    gap = max(inf_norm(prod.level(k) - series.level(k)) for k in range(1, 7))
    assert gap < 1e-15


def test_lu_route_runs_no_rate_sweep(count_calls):
    """The lu route reads R_h alone: it does not run the product route."""
    stage = count_calls(ldqbd, "horizon_rate")
    calls = count_calls(ldqbd, "stationary_product")
    solve_tails(RAMP2, 20, method="lu")
    assert stage == [1]
    assert calls == []


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
    ld = _tabulate(
        lambda k: np.array([[2.0]]),
        lambda k: np.array([[-3.0]]) if k else np.array([[-2.0]]),
        lambda k: np.array([[1.0]]),
        3,
    )
    with pytest.raises(Unstable):
        horizon_rate(ld)


def test_blocks_clamp_past_the_horizon():
    assert np.array_equal(RAMP2.block_at("A0", 100), RAMP2.block_at("A0", 12))
    assert np.array_equal(RAMP2.block_at("A2", 100), RAMP2.block_at("A2", 12))
    with pytest.raises(ValidationError):
        RAMP2.block_at("A2", 0)
    with pytest.raises(ValidationError):
        RAMP2.block_at("A9", 1)


@pytest.mark.parametrize("horizon", [1, 2, 12])
def test_a_stacked_table_reads_as_a_table_given_block_by_block(horizon):
    """The ramp chain given one (J+1, m, m) array per table and given a
    tuple of blocks per table read the same blocks, one at a time and
    stacked, at levels 1..horizon + 5, clamped past the horizon."""
    levels = range(horizon + 1)
    tables = ([_ramp_up(k) for k in levels], [_ramp_diag(k) for k in levels],
              [_ramp_down(k) for k in levels[1:]])
    top = horizon + 5
    for chain in (LdQbdModel(*map(np.array, tables)), LdQbdModel(*map(tuple, tables))):
        assert chain.horizon == horizon
        for kind, table, base in zip(("A0", "A1", "A2"), tables, (0, 0, 1)):
            want = [table[min(k, horizon) - base] for k in range(1, top + 1)]
            assert all(np.array_equal(chain.block_at(kind, k), want[k - 1])
                       for k in range(1, top + 1))
            first = base + 1
            assert np.array_equal(chain.blocks_at(kind, first, top), want[first - 1:])


def test_model_validation_rejects_mismatched_tables():
    with pytest.raises(ValidationError):
        LdQbdModel((np.array([[1.0]]),), (np.array([[-1.0]]),), ())


_ONE = np.array([[1.0]])


@pytest.mark.parametrize("tables,message", [
    (((_ONE,), (-_ONE,), ()), "need blocks for level 0 and at least one level above"),
    (((_ONE,) * 3, (-_ONE,) * 2, (_ONE,)), "A0 and A1 must list the same levels 0..J"),
    (((_ONE,) * 2, (-_ONE,) * 2, ()), "A2 lists levels 1..J, one entry fewer than A1"),
    (((np.ones((2, 1)), _ONE), (-np.eye(2), -2.0 * _ONE), (np.full((1, 2), 0.5),)),
     "a distinct boundary width needs at least two levels above it"),
], ids=["one-level", "up-length", "down-length", "boundary-width"])
def test_table_lengths_are_checked_before_the_blocks(tables, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        LdQbdModel(*tables)


def test_row_sum_violations_are_rejected():
    with pytest.raises(ValidationError):
        LdQbdModel(
            (np.array([[1.0]]), np.array([[1.0]])),
            (np.array([[-1.0]]), np.array([[-4.0]])),
            (np.array([[2.0]]),),
        )


def _retrial_with(*edits):
    """The retrial chain (lam 1, mu 2, theta 1) with 200 levels, with each
    edit (table, index, block) putting block at that index of up, diag or
    down (down[k] is A2(k+1)), or (table, index, entry, value) changing one
    entry."""
    chain = retrial_chain(RetrialParams(1.0, 2.0, 1.0), 200)
    tables = {name: [np.array(chain.block_at(kind, k)) for k in range(first, 201)]
              for name, kind, first in (("up", "A0", 0), ("diag", "A1", 0), ("down", "A2", 1))}
    for table, index, *change in edits:
        if len(change) == 1:
            tables[table][index] = change[0]
        else:
            tables[table][index][change[0]] = change[1]
    return LdQbdModel(tuple(tables["up"]), tuple(tables["diag"]), tuple(tables["down"]))


@pytest.mark.parametrize("edit,message", [
    (("up", 150, [[1.0, 0.0], [0.0]]), "A0(150): not a rectangular numeric matrix ("),
    (("diag", 150, [1.0, 2.0]), "A1(150): expected a nonempty 2-d matrix, got shape (2,)"),
    (("down", 149, (0, 0), np.inf), "A2(150): contains non-finite entries"),
    (("diag", 150, np.zeros((3, 3))), "A1(150): expected shape (2, 2)"),
    (("diag", 150, (0, 0), 1.0), "A1(150): positive diagonal entry"),
    (("diag", 150, (1, 0), -1.0), "A1(150): negative off-diagonal entry"),
    (("up", 150, (0, 0), -1.0), "A0(150): negative entry in an off-diagonal block"),
    (("down", 149, (1, 0), -150.0), "A2(150): negative entry in an off-diagonal block"),
    (("diag", 150, (0, 0), -3.0 - 2.0 ** -20), "level-150 row: row sums deviate by 9.537e-07"),
], ids=["ragged", "flat", "non-finite", "shape", "diagonal", "off-diagonal", "up", "down",
        "row-sum"])
def test_validation_names_the_offending_level(edit, message):
    """The blocks are checked as stacks; a failing check names the level."""
    with pytest.raises(ValidationError) as caught:
        _retrial_with(edit)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("edits,message", [
    ((("diag", 170, (0, 0), 1.0), ("diag", 150, (1, 0), -1.0)), "A1(150): negative off-diagonal"),
    ((("diag", 150, (0, 0), 1.0), ("diag", 120, np.zeros((3, 3)))), "A1(120): expected shape"),
    ((("diag", 170, (0, 0), 1.0), ("up", 150, (0, 0), -1.0)), "A1(170): positive diagonal"),
    ((("up", 170, (0, 0), np.nan), ("diag", 150, [1.0])), "A0(170): contains non-finite"),
    ((("down", 169, (1, 0), -170.0), ("diag", 160, (0, 0), -4.0)), "A2(170): negative entry"),
], ids=["lower-level", "shape-first", "tables-in-order", "coercion-first", "signs-first"])
def test_validation_keeps_its_order(edits, message):
    """With two offenders the message is the one the level-by-level checks
    met first: every table is coerced before any is checked, A1 before A0
    before A2, lower levels first, shape before sign, row sums last."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        _retrial_with(*edits)


def _stiff_chain(level: int, horizon: int = 12) -> LdQbdModel:
    """Two phases with dyadic rates, so rows sum to zero exactly.  Level
    `level` switches phase at rate c = 2^-950 and leaves up or down at
    c 2^-50, so a GTH fold that reaches it divides by an outflow near
    2^-1000.  Arrivals at the level below and services at the level above
    run at 2^40, so the rates the fold carries on from there overflow,
    folded from either end."""
    c, eps, fast = 2.0 ** -950, 2.0 ** -50, 2.0 ** 40
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])

    def up(k):
        return np.eye(2) * (c * eps if k == level else fast if k == level - 1 else 0.5)

    def down(k):
        return np.eye(2) * (c * eps if k == level else fast if k == level + 1 else 1.0)

    def diag(k):
        switch = swap * (c if k == level else 0.25)
        out = up(k).sum(axis=1) + (down(k).sum(axis=1) if k else 0.0) + switch.sum(axis=1)
        return switch - np.diag(out)

    return _tabulate(up, diag, down, horizon)


@pytest.mark.parametrize("fold", [
    lambda chain: truncate_and_solve(chain, 30),
    lambda chain: solve_tails(chain, 12, method="lu"),
    lambda chain: solve_tails(chain, 12, method="product"),
], ids=["oracle", "lu", "product"])
def test_a_fold_that_overflows_raises_singular_matrix(fold, each_gth_loop):
    """The stiff level's outflow is near 2^-1000, so folding it divides by
    almost nothing; the fold runs on into overflow, yet only SingularMatrix
    speaks, and no RuntimeWarning escapes, on either GTH loop."""
    for _ in each_gth_loop():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix, match="^stationary solve: the fold overflowed$"):
                fold(_stiff_chain(6))


def test_lu_route_makes_a_fixed_number_of_solves_at_any_depth(count_calls):
    """The route folds its window once (matkernel.stationary_row, no
    LAPACK call) and makes one guarded solve (solve_xa goes through
    solve_linear), the closed remainder, at 20 levels and at 200 alike."""
    r_h = horizon_rate(RAMP2)
    counts = []
    for levels in (20, 200):
        solves = count_calls(matkernel, "solve_linear")
        folds = count_calls(ldqbd, "stationary_row")
        series = tails_lu_ld(RAMP2, r_h, levels)
        counts.append((len(solves), len(folds)))
    assert series.truncation_report["terms"] == 200
    assert counts == [(1, 1), (1, 1)]


RETRIAL_CASES = json.loads((pathlib.Path(__file__).parent / "data" / "retrial_tails.json")
                           .read_text())["cases"]
RETRIAL_3_4_HALF = next(case for case in RETRIAL_CASES
                        if (case["lam"], case["mu"], case["theta"]) == (3.0, 4.0, 0.5))


@pytest.mark.parametrize("route", ["product", "lu"])
def test_routes_keep_the_retrial_digits_to_level_100(route):
    """Retrial chain (lam 3, mu 4, theta 0.5) with horizon 400 against its
    tails summed in 50-digit arithmetic: levels 0..100 within 2e-14
    relative.  Both routes fold by GTH and stay within 1.2e-15 here;
    products with explicit inverses reach 2.2e-14."""
    chain = retrial_chain(RetrialParams(3.0, 4.0, 0.5), 400)
    series = solve_tails(chain, 100, method=route)
    got = np.array([series.x0 + series.pis[0], *series.pis])
    assert _max_rel(got, RETRIAL_3_4_HALF["tails"]) < 2e-14


def _retrial_id(route: str, case) -> str:
    """The case's rates, led by the route's name for product: the lu cases
    keep the ids they were pinned under first."""
    rates = f"{case['lam']}-{case['mu']}-{case['theta']}"
    return rates if route == "lu" else f"{route}-{rates}"


@pytest.mark.parametrize("route,case", [
    pytest.param(route, case, id=_retrial_id(route, case))
    for route in ("lu", "product") for case in RETRIAL_CASES])
def test_lu_keeps_every_retrial_literal_to_level_100(route, case):
    """Both LDQBD routes on the retrial chain with the closed form's
    horizon h, slow retrials (0.9, 1, 0.1) and (1, 2, 0.001) included:
    levels 0..100 within 1e-14 relative of the tails summed in 50-digit
    arithmetic, with max(h, 100) levels worked out."""
    params = RetrialParams(case["lam"], case["mu"], case["theta"])
    h = retrial_tails(params, 100).truncation_report["terms"]
    series = solve_tails(retrial_chain(params, h), 100, method=route)
    got = np.array([series.x0 + series.pis[0], *series.pis])
    assert _max_rel(got, case["tails"]) < 1e-14
    assert series.truncation_report["terms"] == max(h, 100)


def test_product_solves_the_slow_retrial_at_horizon_200():
    """Retrial (0.9, 1, 0.1) at horizon 200, whose rate sweep by LAPACK
    solves left a balance residual of 5.4e-7: the fold from the horizon
    down is within 1e-13 relative of the oracle at levels 1..50, the
    oracle deep enough (1,000 levels) that its truncation does not show."""
    chain = retrial_chain(RetrialParams(0.9, 1.0, 0.1), 200)
    series = solve_tails(chain, 50, method="product")
    reference = truncate_and_solve(chain, 1000)
    assert _max_rel(series.rows(1, 50), reference.rows(1, 50)) < 1e-13
    assert _max_rel(series.x0, reference.x0) < 1e-13


def test_row_sums_are_checked_relative_to_the_rates():
    """A row whose rates reach 16383.2 sums to zero only within its own
    rounding, 1.8e-12 here: the check scales its tolerance by the row's
    diagonal entry, and both routes agree with the oracle on the chain."""
    up = [[0.9, 0.0], [0.0, 0.0]]
    chain = LdQbdModel((up, up),
                       ([[-1.9, 1.0], [0.9, -0.9]], [[-1.9, 1.0], [0.9, -(0.9 + 16383.2)]]),
                       ([[0.0, 0.0], [16383.2, 0.0]],))
    assert abs(chain.block_at("A1", 1).sum(axis=1) + chain.block_at("A2", 1).sum(axis=1)
               + chain.block_at("A0", 1).sum(axis=1)).max() > 1e-12
    assert cross_check(registry.Model("ldqbd", chain), 5).passed
    with pytest.raises(ValidationError, match="^level-1 row: row sums deviate by 1.000e-06$"):
        LdQbdModel((up, up),
                   ([[-1.9, 1.0], [0.9, -0.9]], [[-1.9, 1.0], [0.9, -(0.9 + 16383.2 + 1e-6)]]),
                   ([[0.0, 0.0], [16383.2, 0.0]],))
