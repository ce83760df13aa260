"""Level-independent QBD solvers against hand values and the truncation reference."""

import inspect
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mctails import matkernel, qbd, solve_tails
from mctails.cli import load_model_file
from mctails.errors import NoConvergence, Reducible, SingularMatrix, Unstable, ValidationError
from mctails.ldqbd import LdQbdModel
from mctails.matkernel import inf_norm, inverse, stationary_row
from mctails.oracle import truncate_and_solve
from mctails.qbd import (
    BoundarySolution,
    QbdModel,
    boundary_solve,
    geometric_mass,
    solve_G,
    solve_R,
    tails_lu,
    tails_matrix_geometric,
    tails_ul,
)

FILES = Path(__file__).resolve().parents[1] / "modelfiles"

# M/M/1 with arrival rate 1 and service rate 2, written as 1x1 blocks.  Its
# stationary law is x_k = 0.5^(k+1), so R = 0.5 and the tails are 0.5^k.
MM1 = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])

# Two-phase chain: phase-dependent arrivals (1 and 0.5), common service 2,
# phase switching at 0.3 / 0.4.
TWOPHASE = QbdModel(
    [[-1.3, 0.3], [0.4, -0.9]],
    [[1.0, 0.0], [0.0, 0.5]],
    [[2.0, 0.0], [0.0, 2.0]],
    [[1.0, 0.0], [0.0, 0.5]],
    [[-3.3, 0.3], [0.4, -2.9]],
    [[2.0, 0.0], [0.0, 2.0]],
)

# Two-phase chain at load 0.7: arrivals 1 and 0.3 by phase, whose time shares
# are 4/7 and 3/7, and service 1.  Its tails decay by about 0.75 a level.
LOAD07 = QbdModel(
    [[-1.3, 0.3], [0.4, -0.7]],
    [[1.0, 0.0], [0.0, 0.3]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 0.3]],
    [[-2.3, 0.3], [0.4, -1.7]],
    [[1.0, 0.0], [0.0, 1.0]],
)

# Two M/M/1 queues, arrivals 1 and 0.5, service 2, that swap phase only when
# empty: A = A0 + A1 + A2 = 0 has two closed classes, and R is diagonal.
SWAP_WHEN_EMPTY = QbdModel(
    np.array([[-0.1, 0.1], [0.1, -0.1]]) - np.diag([1.0, 0.5]),
    np.diag([1.0, 0.5]),
    2.0 * np.eye(2),
    np.diag([1.0, 0.5]),
    -np.diag([1.0, 0.5]) - 2.0 * np.eye(2),
    2.0 * np.eye(2),
)


def test_mm1_rate_matrix_is_one_half():
    r = solve_R(MM1.a0, MM1.a1, MM1.a2).matrix
    assert abs(float(r[0, 0]) - 0.5) < 1e-10


def test_mm1_boundary_pair():
    r = solve_R(MM1.a0, MM1.a1, MM1.a2).matrix
    boundary = boundary_solve(MM1, r)
    assert abs(float(boundary.x0[0]) - 0.5) < 1e-10
    assert abs(float(boundary.x1[0]) - 0.25) < 1e-10


def test_mm1_censored_boundary_block_is_minus_one():
    r = solve_R(MM1.a0, MM1.a1, MM1.a2).matrix
    phi0 = (MM1.a0 + MM1.a1) + r @ MM1.a2
    assert abs(float(phi0[0, 0]) + 1.0) < 1e-10


@pytest.mark.parametrize("rho,x0_tol,pi_tol", [(0.999, 1e-9, 1e-10),
                                               (0.9999, 1e-7, 1e-9)])
def test_mm1_heavy_traffic_tails_are_geometric(rho, x0_tol, pi_tol):
    """Near saturation the mg and ul routes still give x0 = 1 - rho and
    pi_k = rho^k, from an R found in few reduction steps."""
    model = QbdModel([[-rho]], [[rho]], [[1.0]], [[rho]], [[-rho - 1.0]], [[1.0]])
    assert solve_R(model.a0, model.a1, model.a2).iterations < 40
    for method in ("mg", "ul"):
        series = solve_tails(model, 50, method=method)
        assert abs(float(series.x0[0]) - (1.0 - rho)) < x0_tol * (1.0 - rho)
        for k in range(1, 51):
            assert abs(float(series.level(k)[0]) - rho ** k) < pi_tol * rho ** k


def modulated_mm1(rho, phases):
    """M/M/1 with arrival rate rho and service rate 1 whose phase runs by the
    generator `phases` independently of the level; its stationary law is
    x_k = (1 - rho) rho^k p, p stationary for `phases`."""
    eye = np.eye(len(phases))
    return QbdModel(phases - rho * eye, rho * eye, eye, rho * eye,
                    phases - (rho + 1.0) * eye, eye)


def four_phase_generator():
    rates = np.random.default_rng(1).uniform(0.2, 1.0, size=(4, 4))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


PHASES = pytest.mark.parametrize("phases", [np.zeros((1, 1)), four_phase_generator()],
                                 ids=["mm1", "four-phase"])


@pytest.mark.parametrize("rho", [0.5, 0.9, 0.99, 0.999, 0.9999])
@PHASES
def test_shifted_reduction_takes_few_steps_at_any_load(rho, phases):
    """G's eigenvalue 1 is shifted to 0, so the step count does not grow
    with 1/(1-rho)."""
    model = modulated_mm1(rho, phases)
    solved = solve_G(model.a0, model.a1, model.a2)
    assert solved.iterations <= 6
    assert inf_norm(solved.matrix.sum(axis=1) - 1.0) < 1e-14


@pytest.mark.parametrize("method", ["mg", "ul", "lu"])
@PHASES
def test_routes_meet_the_exact_law_at_rho_0_9999(method, phases):
    """x0 and every pi_k within 1e-10 relative of (1 - rho) p and rho^k p."""
    rho = 0.9999
    law = np.ones(1) if len(phases) == 1 else stationary_row(phases)
    series = solve_tails(modulated_mm1(rho, phases), 50, method=method)
    assert np.max(np.abs(series.x0 / ((1.0 - rho) * law) - 1.0)) < 1e-10
    for k in range(1, 51):
        assert np.max(np.abs(series.level(k) / (rho ** k * law) - 1.0)) < 1e-10


def test_shift_leaves_a_transient_chain_alone():
    """At load 2 the minimal G is 0.5, not the stochastic solution 1."""
    solved = solve_G([[2.0]], [[-3.0]], [[1.0]])
    assert abs(float(solved.matrix[0, 0]) - 0.5) < 1e-12


def test_shift_test_raises_nothing_without_a_unique_phase_row(monkeypatch):
    """A = A0 + A1 + A2 = 0 of SWAP_WHEN_EMPTY has two closed classes, so
    solve_G runs the plain reduction to G = I, the same bits as unwatched,
    and no public kernel function raises on the way."""
    model = SWAP_WHEN_EMPTY
    want = solve_G(model.a0, model.a1, model.a2).matrix
    raised = []

    def watched(name, fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception:
                raised.append(name)
                raise
        return call

    for name, fn in vars(matkernel).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == matkernel.__name__ and name[0] != "_":
            for module in (matkernel, qbd):
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, watched(name, fn))
    got = solve_G(model.a0, model.a1, model.a2).matrix
    assert raised == []
    assert got.tobytes() == want.tobytes()
    assert inf_norm(got - np.eye(2)) < 1e-12


def test_solve_r_residual_is_reported_small():
    """The shifted reduction leaves M/M/1 nothing to reduce: G = 1 after one
    step."""
    result = solve_R(MM1.a0, MM1.a1, MM1.a2)
    assert result.residual < 1e-11
    assert result.iterations == 1
    g = solve_G(MM1.a0, MM1.a1, MM1.a2).matrix
    assert inf_norm(g.sum(axis=1) - 1.0) <= 1e-15


def test_rate_matrix_is_zero_without_upward_flow():
    model = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[0.0]], [[-2.0]], [[2.0]])
    r = solve_R(model.a0, model.a1, model.a2).matrix
    assert inf_norm(r) == 0.0
    boundary = boundary_solve(model, r)
    assert abs(float(boundary.x0[0]) - 2.0 / 3.0) < 1e-12
    assert abs(float(boundary.x1[0]) - 1.0 / 3.0) < 1e-12


def test_boundary_without_entry_to_level_one_is_reducible():
    model = QbdModel([[0.0]], [[0.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])
    r = solve_R(model.a0, model.a1, model.a2).matrix
    with pytest.raises(Reducible):
        boundary_solve(model, r)


def test_unstable_chain_is_refused():
    # arrival 2, service 1: load 2
    model = QbdModel([[-2.0]], [[2.0]], [[1.0]], [[2.0]], [[-3.0]], [[1.0]])
    r = solve_R(model.a0, model.a1, model.a2).matrix
    with pytest.raises(Unstable):
        boundary_solve(model, r)


@pytest.mark.parametrize("r", [
    solve_R([[2.0]], [[-3.0]], [[1.0]]).matrix,  # load 2: R = 1, I - R singular
    [[0.5, 0.2], [0.0, 1.1]],  # the class of the second phase has sp 1.1
    [[1.0 - 1e-10]],
], ids=["mm1-load-2", "reducible", "within-margin"])
def test_geometric_mass_refuses_a_divergent_series(r):
    with pytest.raises(Unstable):
        geometric_mass(r)


def test_geometric_mass_accepts_a_convergent_series():
    assert geometric_mass([[1.0 - 1e-8]])[0] == pytest.approx(1e8, rel=1e-7)
    model = SWAP_WHEN_EMPTY
    r = solve_R(model.a0, model.a1, model.a2).matrix
    assert np.allclose(geometric_mass(r), [2.0, 4.0 / 3.0], rtol=1e-14, atol=0.0)


def test_boundary_pair_of_a_modulated_queue_in_heavy_traffic():
    """M/M/1 at rho = 0.995 whose 4 phases switch independently of the
    level has the product form x0 = (1-rho) p and x1 = (1-rho) rho p, with p
    stationary for the phase generator; the boundary pair meets it entrywise
    to 5e-14 relative."""
    t = np.array([
        [0.0, 0.43879291473129867, 0.8513805924754243, 0.27353275370807756],
        [0.6800804207725233, 0.0, 0.3503208586932828, 0.24411730186645456],
        [0.4199754943248305, 0.7259464119004742, 0.0, 0.3200498106442689],
        [0.5461046326438297, 0.7354378388596163, 0.5382277386161023, 0.0],
    ])
    np.fill_diagonal(t, -t.sum(axis=1))
    rho, eye = 0.995, np.eye(4)
    model = QbdModel(t - rho * eye, rho * eye, eye, rho * eye, t - (rho + 1.0) * eye, eye)
    system = t.T.copy()
    system[-1] = 1.0
    p = np.linalg.solve(system, np.eye(4)[-1])
    boundary = boundary_solve(model, solve_R(model.a0, model.a1, model.a2).matrix)
    assert np.max(np.abs(boundary.x0 / ((1.0 - rho) * p) - 1.0)) < 5e-14
    assert np.max(np.abs(boundary.x1 / ((1.0 - rho) * rho * p) - 1.0)) < 5e-14


def test_rate_matrix_survives_newton_polish():
    """Repairable-server blocks: one kron-linearized Newton step must leave
    the fixed point in place, or the iteration stopped short of the root."""
    lam, mu, alpha, beta = 0.25, 1.0, 0.5, 1.0
    c = lam * np.eye(2)
    a = np.array([[-(lam + mu + alpha), alpha], [beta, -(lam + beta)]])
    b = np.array([[mu, 0.0], [0.0, 0.0]])
    result = solve_R(c, a, b)
    assert result.residual < 1e-10
    r = result.matrix
    eye = np.eye(2)
    step = None
    for _ in range(3):
        resid = c + r @ a + r @ r @ b
        jac = np.kron(a.T, eye) + np.kron((r @ b).T, eye) + np.kron(b.T, r)
        step = np.linalg.solve(jac, -resid.reshape(-1, order="F"))
        r = r + step.reshape(2, 2, order="F")
    assert inf_norm(c + r @ a + r @ r @ b) < 1e-13
    assert float(np.abs(step).max()) < 1e-10


def test_rate_matrix_agrees_with_passage_identity():
    """solve_R goes through G, R = A0 (-(A1 + A0 G))^-1; at these light loads
    the plain linear iteration R <- (A0 + R^2 A2)(-A1)^-1 from zero converges
    and must land on the same matrix."""
    for model in (MM1, TWOPHASE):
        r = solve_R(model.a0, model.a1, model.a2).matrix
        neg_a1_inv = inverse(-model.a1)
        r_linear = np.zeros_like(model.a0)
        for _ in range(2000):
            r_linear = (model.a0 + r_linear @ r_linear @ model.a2) @ neg_a1_inv
        assert inf_norm(r - r_linear) < 1e-12


def test_passage_matrix_is_stochastic_when_stable():
    for model in (MM1, TWOPHASE):
        g = solve_G(model.a0, model.a1, model.a2).matrix
        assert inf_norm(g.sum(axis=1) - 1.0) < 1e-14


def test_passage_matrix_without_upward_flow_is_one_jump():
    """With A0 = 0 the first passage down is a single exit, so G is exactly
    (-A1)^-1 A2."""
    a1 = np.array([[-3.0, 1.0], [0.5, -2.0]])
    a2 = np.array([[2.0, 0.0], [0.5, 1.0]])
    g = solve_G(np.zeros((2, 2)), a1, a2).matrix
    assert inf_norm(g - inverse(-a1) @ a2) < 1e-12


def test_rate_matrix_radius_is_below_one():
    for model in (MM1, TWOPHASE):
        r = solve_R(model.a0, model.a1, model.a2).matrix
        assert max(abs(np.linalg.eigvals(r))) < 1.0


def test_three_routes_agree_with_each_other():
    for model in (MM1, TWOPHASE):
        series = {m: solve_tails(model, 15, method=m) for m in ("mg", "ul", "lu")}
        for name in ("ul", "lu"):
            gap = max(
                inf_norm(series["mg"].level(k) - series[name].level(k))
                for k in range(1, 16)
            )
            assert gap < 1e-8, f"{name} route drifted by {gap}"


def test_tails_agree_with_dense_truncation():
    for model in (MM1, TWOPHASE):
        series = solve_tails(model, 20, method="mg")
        reference = truncate_and_solve(model, 400)
        gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 21))
        assert gap < 1e-8
        assert inf_norm(series.x0 - reference.x0) < 1e-8


def test_boundary_solve_takes_a_rate_matrix_with_roundoff_below_zero():
    """Two M/M/1 queues that swap only when empty have a diagonal R; a
    -3.9e-22 where it is exactly zero is roundoff, and the boundary pair does
    not move."""
    model = SWAP_WHEN_EMPTY
    r = solve_R(model.a0, model.a1, model.a2).matrix
    assert r[0, 1] == 0.0
    noisy = r.copy()
    noisy[0, 1] = -3.9e-22
    exact, got = boundary_solve(model, r), boundary_solve(model, noisy)
    assert inf_norm(got.x0 - exact.x0) < 1e-15
    assert inf_norm(got.x1 - exact.x1) < 1e-15


@pytest.mark.parametrize("rate,refused", [(1e6, False), (1.0, True)],
                         ids=["rates-1e6", "unit-rates"])
def test_boundary_row_sums_are_gated_relative_to_the_rates(rate, refused):
    """A censored boundary chain whose row misses zero by 1e-4 passes at
    rates near 1e6, where that is rounding of the rates, and is refused at
    unit rates."""
    chain = np.array([[-rate, rate + 1e-4], [rate, -rate]])
    if refused:
        with pytest.raises(SingularMatrix, match="^censored boundary chain rows sum to 0"):
            qbd._boundary_row(chain)
    else:
        x0 = qbd._boundary_row(chain)
        assert np.allclose(x0, [0.5, 0.5], rtol=1e-9, atol=0.0)


def test_tail_levels_decrease_and_balance_total_mass():
    series = solve_tails(TWOPHASE, 30, method="mg")
    for k in range(1, 30):
        assert np.all(series.level(k) - series.level(k + 1) > -1e-12)
    assert abs(float(series.level(1).sum()) - (1.0 - float(series.x0.sum()))) < 1e-9


def test_ul_and_geometric_heads_agree():
    """x0 B0 (-Phi0)^{-1} = x1 (I-R)^{-1}: the UL head reaches the
    matrix-geometric one by a different solve."""
    r = solve_R(TWOPHASE.a0, TWOPHASE.a1, TWOPHASE.a2).matrix
    boundary = boundary_solve(TWOPHASE, r)
    ul = tails_ul(boundary, 10)
    mg = tails_matrix_geometric(boundary, 10)
    assert inf_norm(ul.level(1) - mg.level(1)) < 1e-8
    assert ul.truncation_report == {}


def test_lu_route_matches_geometric_tail_shape():
    r = solve_R(MM1.a0, MM1.a1, MM1.a2).matrix
    boundary = boundary_solve(MM1, r)
    series = tails_lu(MM1, boundary.x0, 12)
    for k in range(1, 13):
        assert abs(float(series.level(k)[0]) - 0.5 ** k) < 1e-9


def test_geometric_route_accepts_explicit_head():
    """The boundary solution of MM1 written out: both routes that read it
    give the tails 0.5^k."""
    boundary = BoundarySolution(np.array([0.5]), np.array([0.25]), np.array([[0.5]]),
                                np.array([[-1.0]]), np.array([0.5]))
    for series in (tails_matrix_geometric(boundary, 5), tails_ul(boundary, 5)):
        assert abs(float(series.level(1)[0]) - 0.5) < 1e-12
        assert abs(float(series.level(5)[0]) - 0.03125) < 1e-12


def test_model_validation_rejects_bad_sign_patterns():
    with pytest.raises(ValidationError):
        QbdModel([[-1.0]], [[-1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])
    with pytest.raises(ValidationError):
        QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-4.0]], [[2.0]])


@pytest.mark.parametrize("block,edit,message", [
    ("b1", ((0, 0), 0.5), "B1: positive diagonal entry"),
    ("b1", ((0, 1), -0.3), "B1: negative off-diagonal entry"),
    ("b0", ((0, 0), -1.0), "B0: negative entry in an off-diagonal block"),
    ("b2", ((1, 1), -2.0), "B2: negative entry in an off-diagonal block"),
    ("a0", ((1, 1), -0.5), "A0: negative entry in an off-diagonal block"),
    ("a1", ((1, 0), -0.4), "A1: negative off-diagonal entry"),
    ("a1", ((1, 1), 1.0), "A1: positive diagonal entry"),
    ("a2", ((0, 0), -2.0), "A2: negative entry in an off-diagonal block"),
    ("b1", np.ones((2, 3)), "B1: expected shape (2, 2)"),
    ("b0", np.ones((2, 3)), "B0: expected shape (2, 2)"),
    ("b2", np.ones((3, 2)), "B2: expected shape (2, 2)"),
    ("a1", np.ones((2, 3)), "A1: expected shape (2, 2)"),
    ("a2", np.ones((3, 3)), "A2: expected shape (2, 2)"),
    ("b1", ((0, 0), -1.8), "level-0 row: row sums deviate by 5.000e-01"),
    ("b2", ((0, 0), 2.5), "level-1 row: row sums deviate by 5.000e-01"),
    ("a2", ((0, 0), 2.5), "level-2 row: row sums deviate by 5.000e-01"),
], ids=["B1-diagonal", "B1-off-diagonal", "B0", "B2", "A0", "A1-off-diagonal", "A1-diagonal",
        "A2", "B1-shape", "B0-shape", "B2-shape", "A1-shape", "A2-shape", "level-0-row",
        "level-1-row", "level-2-row"])
def test_validation_names_the_block_or_the_level_row(block, edit, message):
    """A sign or shape defect names its block; a row-sum defect names the
    level of the row, 0, 1 or 2, as the chain is checked as its first three
    levels."""
    blocks = {name: np.array(getattr(TWOPHASE, name))
              for name in ("b1", "b0", "b2", "a0", "a1", "a2")}
    if isinstance(edit, tuple):
        blocks[block][edit[0]] = edit[1]
    else:
        blocks[block] = edit
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        QbdModel(**blocks)


def test_a_qbd_is_the_level_dependent_chain_of_its_first_three_levels():
    blocks = {name: getattr(TWOPHASE, name) for name in ("b1", "b0", "b2", "a0", "a1", "a2")}
    for model in (QbdModel(**blocks), QbdModel(*blocks.values())):
        assert isinstance(model, LdQbdModel) and model.horizon == 2
        assert (model.m0, model.m) == (TWOPHASE.m0, TWOPHASE.m)
        for kind in ("A0", "A1", "A2"):
            assert np.array_equal(model.block_at(kind, 2), getattr(model, kind.lower()))
        for name, block in blocks.items():
            assert np.array_equal(getattr(model, name), block)
            with pytest.raises(AttributeError):
                setattr(model, name, block)


def test_unknown_method_is_rejected():
    with pytest.raises(ValidationError):
        solve_tails(MM1, 5, method="qr")


def test_lu_route_keeps_its_digits_deep_in_the_tail():
    """The lu series stops relative to the deepest head, so at level 400,
    where the tails are near 1e-50, it still matches the mg route."""
    mg = solve_tails(LOAD07, 400, method="mg")
    lu = solve_tails(LOAD07, 400, method="lu")
    for k in range(1, 401):
        assert np.max(np.abs(lu.level(k) - mg.level(k)) / mg.level(k)) < 1e-9


def test_lu_depth_follows_the_decay_rate():
    """The M/M/1 up-blocks settle at once, so the forward pass stops at the
    deepest requested level and the closed-form deep sum adds the rest,
    however slowly the tails decay."""
    for rho, tol in ((0.99, 1e-10), (0.999, 1e-9)):
        model = QbdModel([[-rho]], [[rho]], [[1.0]], [[rho]], [[-rho - 1.0]], [[1.0]])
        series = solve_tails(model, 50, method="lu")
        assert series.truncation_report["terms"] == 50
        for k in range(1, 51):
            assert abs(float(series.level(k)[0]) / rho ** k - 1.0) < tol


SLOW_PHASES = np.array([[-1e-3, 1e-3], [2e-3, -2e-3]])


@pytest.mark.parametrize("arrivals,services", [
    ([0.9, 0.3], [1.0, 1.0]),
    # overloaded in its first phase: the change of U_k grows for six levels
    # before it falls, which must not end the pass
    ([1.2, 0.2], [0.6, 1.8]),
])
def test_lu_route_settles_past_the_requested_levels(arrivals, services):
    """Phase changes near 1e-3 keep the up-blocks moving for dozens of
    levels, so the pass runs to where they settle, past the few levels asked
    for, and its tails still match the matrix-geometric route."""
    lam, mu = np.diag(arrivals), np.diag(services)
    model = QbdModel(SLOW_PHASES - lam, lam, mu, lam, SLOW_PHASES - lam - mu, mu)
    for levels in (1, 2, 3):
        lu = solve_tails(model, levels, method="lu")
        mg = solve_tails(model, levels, method="mg")
        assert lu.truncation_report["terms"] > levels
        for k in range(1, levels + 1):
            assert np.max(np.abs(lu.level(k) - mg.level(k)) / mg.level(k)) < 1e-10


def test_lu_route_refuses_a_series_that_does_not_shrink():
    """On a null-recurrent M/M/1 the deep terms N^j U^j do not shrink, so the
    doubling of their sum does not converge."""
    null = QbdModel([[-1.0]], [[1.0]], [[1.0]], [[1.0]], [[-2.0]], [[1.0]])
    with pytest.raises(Unstable, match=r"^lu deep terms N\^j U\^j did not shrink in 64 doublings: "
                                       "their ratio is not below 1$"):
        tails_lu(null, [0.5], 5)


# Draws 15 and 51 of seed 2012 in the random section of
# .github/compare_outputs.sh: three phases switching at about 1e-6 of their
# rates.  In draw 15 phase 2 arrives at 0.87 against a service of 0.33; in
# draw 51 phase 1 arrives at 0.048 and is never served.
SLOW_SWITCHING_DRAWS = {
    15: QbdModel(
        b1=[[-1.8350118725909557, 0.5467724647784045, 0.20855963423395313],
            [0.42752958930650686, -0.6863815563560302, 0.2588519670495233],
            [0.4091638469598915, 0.99017326865695, -2.268381562272805]],
        b0=[[1.0796797735785981, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.8690444466559636]],
        b2=[[1.597885242557077, 0.0, 0.0], [0.0, 0.31511651991055434, 0.0],
            [0.0, 0.0, 0.33435620547855294]],
        a0=[[1.0796797735785981, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.8690444466559636]],
        a1=[[-2.6775659457205254, 9.295848498516134e-07, 0.0],
            [4.1111945045429686e-07, -0.31511739025279173, 4.592227869497389e-07],
            [4.0160753181417675e-07, 6.041270771132596e-07, -1.2034016578691253]],
        a2=[[1.597885242557077, 0.0, 0.0], [0.0, 0.31511651991055434, 0.0],
            [0.0, 0.0, 0.33435620547855294]]),
    51: QbdModel(
        b1=[[-0.813799189650037, 0.6357093477505286, 0.17808984189950838],
            [0.7060721646491073, -1.463234500153786, 0.709625388730261],
            [0.7237204419934677, 0.27852047495690024, -2.2537566213479536]],
        b0=[[0.0, 0.0, 0.0], [0.0, 0.04753694677441783, 0.0], [0.0, 0.0, 1.2515157043975853]],
        b2=[[1.1805469173736454, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5766415554041082]],
        a0=[[0.0, 0.0, 0.0], [0.0, 0.04753694677441783, 0.0], [0.0, 0.0, 1.2515157043975853]],
        a1=[[-1.1805469999952451, 8.262159971662707e-08, 0.0],
            [3.951419382324259e-07, -0.04753768150677584, 3.395904197784131e-07],
            [6.565671321869956e-07, 0.0, -2.8281579163688257]],
        a2=[[1.1805469173736454, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5766415554041082]]),
}


@pytest.mark.parametrize("draw", sorted(SLOW_SWITCHING_DRAWS))
def test_lu_route_refuses_up_blocks_that_do_not_settle(draw):
    """On these slowly switching chains the change of the lu up-blocks keeps
    shrinking, so they never settle; the pass stops at MAX_LU_STEPS and
    raises NoConvergence naming the count, within 1 s, where it once ran
    on without end."""
    model = SLOW_SWITCHING_DRAWS[draw]
    x0 = solve_tails(model, 1, method="mg").x0
    start = time.perf_counter()
    message = f"^lu up-blocks did not settle in {qbd.MAX_LU_STEPS} steps$"
    with pytest.raises(NoConvergence, match=message):
        tails_lu(model, x0, 40)
    assert time.perf_counter() - start < 1.0


def _lu_by_full_sweep(model, x0, levels):
    """The lu tails by the backward sweep over every level to
    top = max(levels, s), the heads past s extended one product at a time."""
    heads, ups, up, step = qbd._lu_steps(model, x0)
    top = max(levels, len(heads) - 1)
    while len(heads) <= top:
        heads.append(heads[-1] @ step)
        ups.append(up)
    tail = heads[top] @ qbd._deep_sum(step, up)
    pis = [None] * levels
    for j in range(top, 0, -1):
        tail = (heads[j] + tail) @ ups[j]
        if j <= levels:
            pis[j - 1] = heads[j - 1] + tail
    return np.array(pis)


@pytest.mark.parametrize("levels", [20, 150])
@pytest.mark.parametrize("name", ["qbd22", "modulated"])
def test_lu_closed_form_matches_the_full_backward_sweep(name, levels):
    """Past the settle step the lu tails are e_{j-1} (I + Y); they match the
    sweep over every level.  qbd22's up-blocks settle at level 32, so at 20
    levels the sweep gives every tail."""
    if name == "qbd22":
        model = load_model_file(str(FILES / "qbd22.json")).payload
    else:
        model = modulated_mm1(0.9, four_phase_generator())
    x0 = solve_tails(model, 1, method="mg").x0
    got = tails_lu(model, x0, levels)
    want = _lu_by_full_sweep(model, x0, levels)
    assert np.max(np.abs(got.rows(1, levels) - want) / want) < 1e-14


@pytest.mark.parametrize("levels", [5, 100])
def test_lu_route_holds_its_up_blocks_and_a_few_more(levels):
    """The lu pass keeps its s up-blocks for the backward sweep; besides
    them it peaks at eight m x m blocks on a 32-phase chain (s = 11 here),
    since the deep sum works in five scratch blocks and the settled rows
    are built after the sweep has let the up-blocks go.  Holding the
    up-blocks through the settled rows peaked at s + 12.8 blocks."""
    rng = np.random.default_rng(3)
    rates = rng.uniform(0.2, 1.0, size=(32, 32))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    model = modulated_mm1(0.9, rates)
    x0 = solve_tails(model, 1, method="mg").x0
    settle = len(qbd._lu_steps(model, x0)[0]) - 1
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tails_lu(model, x0, levels)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < (settle + 9) * rates.nbytes
