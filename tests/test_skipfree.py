"""Skip-free chains: series solvers, stationary laws, both tail routes."""

from pathlib import Path

import numpy as np
import pytest

from mctails import matkernel, qbd, registry, skipfree, solve_tails
from mctails.cli import load_model_file
from mctails.errors import NearCritical, Reducible, SingularMatrix, Unstable, ValidationError
from mctails.matkernel import inf_norm, solve_xa, stationary_row
from mctails.oracle import truncate_and_solve
from mctails.qbd import tails_matrix_geometric, tails_ul
from mctails.series import _powers, _suffix_sums
from mctails.skipfree import (
    SkipFreeModel,
    gim1_stationary,
    mg1_drift,
    mg1_stationary,
    mg1_tails,
    mg1_ul_tails,
    solve_G_series,
    solve_R_series,
)

FILES = Path(__file__).resolve().parents[1] / "modelfiles"

# Scalar upward-skip-free walk: up 0.3, hold 0.3, down 0.4.  The geometric
# rate is 0.3/0.4 and the boundary carries mass 0.25.
GIM1_SCALAR = SkipFreeModel(
    "GIM1",
    [[[0.3]], [[0.3]], [[0.4]]],
    [[[0.3]], [[0.7]], [[0.4]]],
)

# Two-phase variant with the natural boundary (B0 = A0, B2 = A2).
_A0 = [[0.2, 0.1], [0.05, 0.25]]
_A2 = [[0.3, 0.2], [0.25, 0.25]]
GIM1_PHASED = SkipFreeModel(
    "GIM1",
    [_A0, [[0.1, 0.1], [0.1, 0.1]], _A2],
    [_A0, [[0.4, 0.3], [0.35, 0.35]], _A2],
)

# Uniformized M/M/1 at one third load: drop 2/3, jump 1/3; x_k = 0.5^(k+1).
_T = 1.0 / 3.0
MG1_SCALAR = SkipFreeModel(
    "MG1",
    [[[2.0 * _T]], [[0.0]], [[_T]]],
    [[[2.0 * _T]], [[2.0 * _T]], [[_T]]],
)

# Scalar chain with jumps of size up to two and drift 0.8.
MG1_BATCH = SkipFreeModel(
    "MG1",
    [[[0.6]], [[0.1]], [[0.2]], [[0.1]]],
    [[[0.6]], [[0.3]], [[0.3]], [[0.2]], [[0.2]]],
)


def _mg1_walk(rho, p=((1.0,),)):
    """Walk that falls by one with probability 1/2 and rises by one or two
    with rho/4 and rho/8, so its load is rho and x0 sums to 1 - rho; the
    phase moves by the stochastic matrix p at every step."""
    p = np.array(p)
    up1, up2 = rho / 4.0, rho / 8.0
    return SkipFreeModel(
        "MG1",
        [0.5 * p, (0.5 - up1 - up2) * p, up1 * p, up2 * p],
        [0.5 * p, (1.0 - up1 - up2) * p, up1 * p, up2 * p],
    )


def test_scalar_rate_series_solution():
    result = solve_R_series([np.array(a) for a in ([[0.3]], [[0.3]], [[0.4]])])
    assert abs(float(result.matrix[0, 0]) - 0.75) < 1e-10
    assert result.residual < 1e-11


def test_rate_series_satisfies_its_equation_in_phases():
    r = solve_R_series([np.asarray(a, dtype=float) for a in GIM1_PHASED.a_blocks]).matrix
    a = GIM1_PHASED.a_blocks
    residual = r - (a[0] + r @ a[1] + r @ r @ a[2])
    assert inf_norm(residual) < 1e-11
    assert max(abs(np.linalg.eigvals(r))) < 1.0


def test_series_solvers_group_two_levels_for_jumps_of_two():
    """Four blocks put jumps of two levels in the chain, so the solvers group
    levels in pairs; R and G must still solve their series equations and
    match the plain linear iterations from zero."""
    a = [np.array(blk) for blk in ([[0.2, 0.1], [0.1, 0.15]],
                                   [[0.2, 0.1], [0.15, 0.2]],
                                   [[0.15, 0.05], [0.1, 0.1]],
                                   [[0.1, 0.1], [0.1, 0.1]])]
    r = solve_R_series(a).matrix
    g = solve_G_series(a).matrix
    r_linear = np.zeros((2, 2))
    g_linear = np.zeros((2, 2))
    for _ in range(2000):
        r_linear = a[0] + r_linear @ (a[1] + r_linear @ (a[2] + r_linear @ a[3]))
        g_linear = a[0] + (a[1] + (a[2] + a[3] @ g_linear) @ g_linear) @ g_linear
    assert inf_norm(r - (a[0] + r @ a[1] + r @ r @ a[2] + r @ r @ r @ a[3])) < 1e-12
    assert inf_norm(g - (a[0] + a[1] @ g + a[2] @ g @ g + a[3] @ g @ g @ g)) < 1e-12
    assert inf_norm(r - r_linear) < 1e-12
    assert inf_norm(g - g_linear) < 1e-12


def test_rate_series_closed_forms_at_the_edges():
    zero_up = solve_R_series([np.zeros((2, 2)),
                              np.array([[0.3, 0.2], [0.1, 0.4]]),
                              np.array([[0.3, 0.2], [0.2, 0.3]])])
    assert inf_norm(zero_up.matrix) == 0.0
    # no jumps below the hold block collapse the equation to R = A0 + R A1
    a0 = np.array([[0.2, 0.1], [0.05, 0.15]])
    a1 = np.array([[0.3, 0.2], [0.25, 0.35]])
    depth_one = solve_R_series([a0, a1])
    expected = a0 @ np.linalg.inv(np.eye(2) - a1)
    assert inf_norm(depth_one.matrix - expected) < 1e-10


def _gim1_balance_residual(model, boundary):
    """The balance residual of the rows x0, x1, x1 R, ... of a GI/M/1 stage."""
    window = skipfree._balance_window(model)
    return skipfree._balance_residual(model, boundary.x0,
                                      _powers(boundary.x1, boundary.r, window - 1))


def _mg1_balance_residual(model, measures):
    """The balance residual of the normalized visit rows of an M/G/1 stage."""
    head, *rows = measures.visit_rows
    return skipfree._balance_residual(model, measures.tau * head, measures.tau * np.array(rows))


def test_scalar_boundary_mass_is_one_quarter():
    boundary = gim1_stationary(GIM1_SCALAR)
    assert abs(float(boundary.x0.sum()) - 0.25) < 1e-9
    assert abs(float(boundary.x0[0]) - 0.25) < 1e-9
    assert _gim1_balance_residual(GIM1_SCALAR, boundary) < 1e-9


def test_scalar_tails_are_pure_powers():
    series = tails_matrix_geometric(gim1_stationary(GIM1_SCALAR), 10)
    for k in range(1, 11):
        assert abs(float(series.level(k)[0]) - 0.75 ** k) < 1e-9


def test_gim1_uniformized_birth_death_is_geometric():
    """M/M/1 at half load pushed through uniformization keeps its law:
    the boundary holds half the mass and the tails are powers of one half."""
    model = SkipFreeModel(
        "GIM1",
        [[[0.25]], [[0.25]], [[0.5]]],
        [[[0.25]], [[0.75]], [[0.5]]],
    )
    boundary = gim1_stationary(model)
    assert abs(float(boundary.x0.sum()) - 0.5) < 1e-9
    series = tails_matrix_geometric(boundary, 8)
    for k in range(1, 9):
        assert abs(float(series.level(k)[0]) - 0.5 ** k) < 1e-9


def test_gim1_boundary_without_entry_is_reducible():
    """B0 = 0 is refused by the boundary that a QBD's solve shares."""
    model = SkipFreeModel(
        "GIM1",
        [[[0.3]], [[0.3]], [[0.4]]],
        [[[0.0]], [[1.0]], [[0.4]]],
    )
    with pytest.raises(Reducible, match="^B0 = 0: no upward flow out of the boundary level$"):
        gim1_stationary(model)


def _uniformized(chain):
    """The QBD `chain` as the GI/M/1-type kernel of its uniformization at
    c = 1.05 times its largest |diagonal| entry."""
    c = 1.05 * max(np.abs(np.diagonal(blk)).max() for blk in (chain.a1, chain.b1))
    return SkipFreeModel("GIM1",
                         [chain.a0 / c, np.eye(chain.m) + chain.a1 / c, chain.a2 / c],
                         [chain.b0 / c, np.eye(chain.m0) + chain.b1 / c, chain.b2 / c])


@pytest.mark.parametrize("name", ["mm1.json", "qbd22.json", "vacation.json", "repairable.json"])
def test_a_qbd_is_its_uniformized_gim1_chain(name):
    """Uniformized, a QBD is a chain of GI/M/1 type with the same law, and
    both run through the one censored boundary: the mg and ul x0 and tails
    agree within 1e-13 relative at levels 1..60."""
    model = load_model_file(FILES / name)
    chain = registry.REGISTRY[model.kind].chain(model.payload, 60)
    for method in ("mg", "ul"):
        want = solve_tails(chain, 60, method=method)
        got = solve_tails(_uniformized(chain), 60, method=method)
        assert np.all(np.abs(got.x0 - want.x0) <= 1e-13 * np.abs(want.x0)), (method, got.x0)
        a, b = got.rows(1, 60), want.rows(1, 60)
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (method, np.max(np.abs(a - b) / b))


def test_gim1_routes_agree():
    for model in (GIM1_SCALAR, GIM1_PHASED):
        boundary = gim1_stationary(model)
        mg = tails_matrix_geometric(boundary, 12)
        ul = tails_ul(boundary, 12)
        gap = max(inf_norm(mg.level(k) - ul.level(k)) for k in range(1, 13))
        assert gap < 1e-9


def test_shifted_kernel_factors_through_the_rate_matrix():
    """Level 1 censored on itself has the kernel phi0 + I, and I minus it
    factors through I - R."""
    boundary = gim1_stationary(GIM1_PHASED)
    eye = np.eye(2)
    shifted_kernel = boundary.phi0 + eye
    visit_kernel = shifted_kernel - GIM1_PHASED.a_blocks[0]
    right = (eye - boundary.r) @ (eye - visit_kernel)
    assert inf_norm(-boundary.phi0 - right) < 1e-12


def test_gim1_matches_dense_truncation():
    for model in (GIM1_SCALAR, GIM1_PHASED):
        series = solve_tails(model, 20)
        reference = truncate_and_solve(model, 400)
        gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 21))
        assert gap < 1e-8
        assert inf_norm(series.x0 - reference.x0) < 1e-8


def test_scalar_passage_series_solution():
    result = solve_G_series([np.array(a) for a in ([[0.25]], [[0.0]], [[0.75]])])
    assert abs(float(result.matrix[0, 0]) - 1.0 / 3.0) < 1e-10


def test_downward_drift_classification():
    assert abs(mg1_drift(MG1_SCALAR) + _T) < 1e-12
    assert abs(mg1_drift(MG1_BATCH) + 0.2) < 1e-12
    upward = SkipFreeModel(
        "MG1",
        [[[0.25]], [[0.0]], [[0.75]]],
        [[[0.25]], [[0.25]], [[0.75]]],
    )
    with pytest.raises(Unstable):
        mg1_stationary(upward)
    balanced = SkipFreeModel(
        "MG1",
        [[[0.5]], [[0.0]], [[0.5]]],
        [[[0.5]], [[0.5]], [[0.5]]],
    )
    with pytest.raises(NearCritical):
        mg1_stationary(balanced)


def test_mg1_scalar_law_is_geometric_one_half():
    measures = mg1_stationary(MG1_SCALAR)
    assert abs(float(measures.passage[0, 0]) - 1.0) < 1e-9
    assert abs(float(measures.x0[0]) - 0.5) < 1e-9
    for route in (mg1_tails, mg1_ul_tails):
        series = route(MG1_SCALAR, measures, 8)
        for k in range(1, 9):
            assert abs(float(series.level(k)[0]) - 0.5 ** k) < 1e-9


def test_mg1_routes_agree_on_batch_jumps():
    measures = mg1_stationary(MG1_BATCH)
    it = mg1_tails(MG1_BATCH, measures, 12)
    ul = mg1_ul_tails(MG1_BATCH, measures, 12)
    gap = max(inf_norm(it.level(k) - ul.level(k)) for k in range(1, 13))
    assert gap < 1e-9


def test_mg1_matches_dense_truncation():
    for model in (MG1_SCALAR, MG1_BATCH):
        series = solve_tails(model, 20)
        reference = truncate_and_solve(model, 400)
        gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 21))
        assert gap < 1e-8
        assert inf_norm(series.x0 - reference.x0) < 1e-8


def test_mg1_stationary_rows_balance():
    measures = mg1_stationary(MG1_BATCH)
    assert _mg1_balance_residual(MG1_BATCH, measures) < 1e-9
    assert mg1_drift(MG1_BATCH) < 0


@pytest.mark.parametrize("stationary,model", [
    (gim1_stationary, GIM1_PHASED),
    (mg1_stationary, MG1_BATCH),
], ids=["gim1", "mg1"])
def test_balance_miss_raises(monkeypatch, stationary, model):
    monkeypatch.setattr(skipfree, "_balance_residual", lambda *args: 1e-6)
    with pytest.raises(SingularMatrix, match="miss balance by 1.000e-06"):
        stationary(model)


@pytest.mark.parametrize("model", [GIM1_PHASED, MG1_BATCH], ids=["gim1", "mg1"])
def test_balance_residual_sees_a_moved_row(model):
    """Rows of the stationary vector of a deep truncation balance on the
    window to roundoff; adding 1e-6 to one row of the window shows."""
    x = stationary_row(skipfree.truncated_kernel(model, 200), continuous=False)
    m0, m = model.m0, model.m
    x0, rows = x[:m0], x[m0:m0 + (skipfree._balance_window(model) - 1) * m].reshape(-1, m)
    assert skipfree._balance_residual(model, x0, rows) < 1e-14
    rows[1] += 1e-6  # level 2
    assert skipfree._balance_residual(model, x0, rows) > 5e-7


def _many_blocks(kind, count=40, m=32):
    """A chain of `count` A blocks of m phases, each A_d a share 1/count of
    one random phase kernel; the GI/M/1 B_k take what the shallower A_d
    leave of each row, the M/G/1 B_k share level 0's row alike."""
    phases = np.random.default_rng(5).random((m, m))
    phases /= phases.sum(axis=1, keepdims=True)
    a_blocks = [phases / count] * count
    if kind == "MG1":
        return a_blocks, [phases / count] + [phases / (count - 1)] * (count - 1)
    return a_blocks, [phases / count, phases * (count - 1) / count] + [
        phases * (count - 1 - level) / count for level in range(1, count - 1)]


def test_many_blocks_of_many_phases_build_in_little_memory(traced_memory):
    """Chains of 40 blocks of 32 phases: validation adds block row sums
    level by level, whatever the block count, so the peak is the copied
    blocks (0.66 MB) and little more; a band as deep as the GI/M/1 rows
    differ peaked at 14.5 MB."""
    for kind in ("GIM1", "MG1"):
        a_blocks, b_blocks = _many_blocks(kind)
        traced_memory(lambda: SkipFreeModel(kind, a_blocks, b_blocks), 1, 1e6, "MB", f"{kind}: ")


@pytest.mark.parametrize("kind", ["GIM1", "MG1"])
def test_many_blocks_of_many_phases_check_balance_in_little_memory(traced_memory, kind):
    """The balance re-check of the same chains, 85 levels of rows, forms
    x K from the blocks: a band of its window peaked at 29 MB."""
    model = SkipFreeModel(kind, *_many_blocks(kind))
    rng = np.random.default_rng(6)
    x0, rows = rng.random(model.m0), rng.random((skipfree._balance_window(model) - 1, model.m))
    traced_memory(lambda: skipfree._balance_residual(model, x0, rows), 1, 1e6, "MB")


def _stochastic(rng, rows, cols):
    p = rng.random((rows, cols))
    return p / p.sum(axis=1, keepdims=True)


def _random_chain(rng, kind, m, m0, a_count, b_count):
    """A random chain of the given widths and block counts whose rows sum to
    one.  A GI/M/1 row past the B blocks has no deeper jump, so there the A
    blocks past len(B) are zero."""
    shares = rng.random((a_count, m))
    if kind == "GIM1":
        shares[b_count:] = 0.0
    shares /= shares.sum(axis=0)
    a = [share[:, None] * _stochastic(rng, m, m) for share in shares]
    if kind == "GIM1":
        split = rng.random(m0)[:, None]
        b = [split * _stochastic(rng, m0, m), (1.0 - split) * _stochastic(rng, m0, m0)]
        b += [sum((blk.sum(axis=1) for blk in a[k:]), np.zeros(m))[:, None]
              * _stochastic(rng, m, m0) for k in range(2, b_count)]
    else:
        split = rng.random((b_count - 1, m0))
        split /= split.sum(axis=0)
        b = [a[0].sum(axis=1)[:, None] * _stochastic(rng, m, m0),
             split[0][:, None] * _stochastic(rng, m0, m0)]
        b += [share[:, None] * _stochastic(rng, m0, m) for share in split[1:]]
    return SkipFreeModel(kind, a, b)


def _band_residual(model, x0, rows):
    """The balance residual as the band product gives it, the reference for
    the block products of skipfree._balance_residual: x times the kernel
    truncated at the last row's level, read over the window's columns."""
    x = np.concatenate((x0, rows.ravel()))
    width = model.m0 + (len(rows) + 1 - len(model.a_blocks)) * model.m
    return inf_norm((skipfree.truncated_kernel(model, len(rows)).product(x) - x)[:width])


@pytest.mark.parametrize("kind", ["GIM1", "MG1"])
@pytest.mark.parametrize("m,m0,a_count,b_count", [
    (2, 3, 3, 3), (3, 1, 3, 6), (2, 3, 6, 3), (3, 2, 2, 4), (1, 1, 2, 2),
], ids=["wide-boundary", "more-B", "more-A", "two-A", "scalar"])
def test_block_balance_residual_is_the_band_products(kind, m, m0, a_count, b_count):
    rng = np.random.default_rng(m + 10 * m0 + 100 * a_count + 1000 * b_count)
    model = _random_chain(rng, kind, m, m0, a_count, b_count)
    assert (model.m0, len(model.a_blocks), len(model.b_blocks)) == (m0, a_count, b_count)
    n = skipfree._balance_window(model) - 1
    for _ in range(5):
        x0, rows = rng.random(m0), rng.random((n, m))
        want = _band_residual(model, x0, rows)
        got = skipfree._balance_residual(model, x0, rows)
        assert abs(got - want) <= 1e-15 * max(want, 1.0)


def _place_a_fancy(grid, a, first, mg1):
    """The A-block rule as one fancy-indexed += per block, the reference
    for skipfree._place_a: row r is level first + r, A_d moves it by 1 - d
    (GI/M/1) or d - 1 (M/G/1), a move past the last level stays on it and
    one below level 0 is dropped; the blocks go in from the last."""
    rows, last = np.arange(grid.shape[0]), grid.shape[2] - 1
    for d in range(len(a) - 1, -1, -1):
        step = first + (d - 1 if mg1 else 1 - d)
        kept = rows[max(0, -step):]
        grid[kept, :, np.minimum(kept + step, last), :] += a[d]


@pytest.mark.parametrize("mg1", [False, True], ids=["gim1", "mg1"])
def test_place_a_is_the_fancy_indexed_rule_bit_for_bit(mg1):
    """On truncated grids, shallower than the longest jump too, and on the
    grouped grid, inside a wider buffer so that the grid's rows are not
    contiguous, and onto cells that already hold values."""
    rng = np.random.default_rng(12 + mg1)
    for count in range(2, 7):
        for m in (1, 3):
            a = list(rng.random((count, m, m)))
            n = max(1, count - 2)
            for rows, levels, first in [(1, 1, 0), (2, 2, 0), (count + 2, count + 2, 0),
                                        (n, 3 * n, n)]:
                base = rng.random((rows * m, levels * m + 3))
                want = base.copy()
                _place_a_fancy(want[:, 2:2 + levels * m].reshape(rows, m, levels, m), a, first, mg1)
                grid = base[:, 2:2 + levels * m].reshape(rows, m, levels, m)
                moves = skipfree._moves(a, (), mg1)
                skipfree._place_a(base.reshape(-1)[2:], grid.shape, grid.strides, moves, first)
                assert np.array_equal(base, want), (count, m, rows, levels, first)


_P = np.array([[0.6, 0.4], [0.3, 0.7]])
_Q = np.array([[0.5, 0.5]])


def _bad_row_blocks(kind):
    """Valid blocks of two phases and a one-state boundary, four of each
    list but three GI/M/1 B blocks."""
    if kind == "GIM1":
        return ([0.1 * _P, 0.4 * _P, 0.3 * _P, 0.2 * _P],
                [0.3 * _Q, np.array([[0.7]]), np.full((2, 1), 0.5), np.full((2, 1), 0.2)])
    return ([0.5 * _P, 0.2 * _P, 0.2 * _P, 0.1 * _P],
            [np.full((2, 1), 0.5), np.array([[0.4]]), 0.3 * _Q, 0.3 * _Q])


@pytest.mark.parametrize("kind,scaled,message", [
    ("GIM1", "A0", "level-1 row must sum to one, off by 2.500e-02"),
    ("GIM1", "A2", "level-2 row must sum to one, off by 7.500e-02"),
    ("GIM1", "A3", "level-3 row must sum to one, off by 5.000e-02"),
    ("GIM1", "B1", "level-0 row must sum to one, off by 1.750e-01"),
    ("GIM1", "B3", "level-2 row must sum to one, off by 5.000e-02"),
    ("MG1", "A0", "level-2 row must sum to one, off by 1.250e-01"),
    ("MG1", "A3", "level-1 row must sum to one, off by 2.500e-02"),
    ("MG1", "B0", "level-1 row must sum to one, off by 1.250e-01"),
    ("MG1", "B3", "level-0 row must sum to one, off by 7.500e-02"),
])
def test_validation_names_the_first_level_with_a_bad_row(kind, scaled, message):
    """One block scaled by 1.25 spoils the rows of every level it moves out
    of; the message names the shallowest of them."""
    a, b = _bad_row_blocks(kind)
    SkipFreeModel(kind, a, b)
    blocks = a if scaled[0] == "A" else b
    blocks[int(scaled[1])] = 1.25 * blocks[int(scaled[1])]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        SkipFreeModel(kind, a, b)


def test_model_validation_catches_mistakes():
    with pytest.raises(ValidationError):
        SkipFreeModel("QBD", [[[0.5]], [[0.5]]], [[[0.5]], [[0.5]]])
    with pytest.raises(ValidationError):
        SkipFreeModel("GIM1", [[[0.6]], [[0.6]]], [[[0.6]], [[0.4]]])
    with pytest.raises(ValidationError):
        SkipFreeModel("GIM1", [[[0.5]], [[-0.5]]], [[[0.5]], [[0.5]]])


@pytest.mark.parametrize("kind,a_blocks,b_blocks,message", [
    ("GIM1", [[[1.0]]], [[[0.5]], [[0.5]]], "need at least blocks A0 and A1"),
    ("MG1", [[[0.5]], [[0.5]]], [[[1.0]]], "need at least blocks B0 and B1"),
    ("GIM1", [[[0.5]], [[0.25, 0.25]]], [[[0.5]], [[0.5]]],
     r"A1: expected shape \(1, 1\), got \(1, 2\)"),
    ("GIM1", [[[0.5]], [[0.5]]], [[[0.5], [0.5]], [[0.5]]],
     r"B0: expected shape \(1, 1\), got \(2, 1\)"),
    ("MG1", [[[0.5]], [[0.5]]], [[[1.0]], [[-0.5]], [[1.5]]], "B1: negative entry"),
], ids=["one-A", "one-B", "A-shape", "B-shape", "negative-B"])
def test_model_validation_names_the_block(kind, a_blocks, b_blocks, message):
    with pytest.raises(ValidationError, match=f"^{message}"):
        SkipFreeModel(kind, a_blocks, b_blocks)


def test_mg1_routes_agree_deep_in_the_tail():
    """The iterative route materializes its rows to the requested depth, so
    at 400 levels it still matches the factorization route."""
    model = _mg1_walk(0.7, [[0.6, 0.4], [0.3, 0.7]])
    measures = mg1_stationary(model)
    it = mg1_tails(model, measures, 400)
    ul = mg1_ul_tails(model, measures, 400)
    for k in range(1, 401):
        assert np.max(np.abs(it.level(k) - ul.level(k)) / ul.level(k)) < 1e-9


def test_mg1_walk_with_a_transient_phase_matches_its_swapped_twin():
    """Phase 0 leaks into the absorbing phase 1, so the boundary chain has a
    transient low state; the twin lists the phases the other way round."""
    p = np.array([[0.5, 0.5], [0.0, 1.0]])
    walk, twin = _mg1_walk(0.5, p), _mg1_walk(0.5, p[::-1, ::-1])
    pairs = [(solve_tails(walk, 20, method), solve_tails(twin, 20, method))
             for method in ("iterative", "ul")]
    pairs.append((truncate_and_solve(walk, 200), truncate_and_solve(twin, 200)))
    for got, want in pairs:
        assert inf_norm(want.x0 - np.array([0.5, 0.0])) < 1e-12
        assert inf_norm(got.x0 - want.x0[::-1]) < 1e-15
        for k in range(1, 21):
            assert inf_norm(got.level(k) - want.level(k)[::-1]) < 1e-15


def test_mg1_normalizer_is_closed_form_near_saturation():
    """At rho = 0.995 the mass sits thousands of levels deep, yet the
    measures hold only the balance window, and the iterative route extends
    it to the requested levels alone."""
    rho = 0.995
    model = _mg1_walk(rho)
    measures = mg1_stationary(model)
    window = max(len(model.a_blocks), len(model.b_blocks)) + 5 + len(model.a_blocks)
    assert len(measures.visit_rows) == window
    series = mg1_tails(model, measures, 50)
    assert series.truncation_report["levels_materialized"] == 50
    assert abs(float(measures.x0[0]) / (1.0 - rho) - 1.0) < 1e-10
    assert _mg1_balance_residual(model, measures) < 1e-9


@pytest.mark.parametrize("name", ["mm1", "qbd22", "vacation", "repairable"])
def test_uniformized_qbd_is_a_gim1_chain(name):
    """A QBD uniformized at c, A = (A0/c, I + A1/c, A2/c) and likewise B, is
    a GI/M/1 chain with three A blocks and the same stationary law; its mg
    and ul routes match the QBD's to roundoff at every level."""
    model = load_model_file(FILES / f"{name}.json")
    chain = registry.REGISTRY[model.kind].chain(model.payload, 0)
    c = 1.05 * max(np.abs(np.diag(chain.b1)).max(), np.abs(np.diag(chain.a1)).max())
    gim1 = SkipFreeModel(
        "GIM1",
        [chain.a0 / c, np.eye(chain.m) + chain.a1 / c, chain.a2 / c],
        [chain.b0 / c, np.eye(chain.m0) + chain.b1 / c, chain.b2 / c],
    )
    for method in ("mg", "ul"):
        want = solve_tails(chain, 50, method)
        got = solve_tails(gim1, 50, method)
        for a, b in [(got.x0, want.x0)] + [(got.level(k), want.level(k)) for k in range(1, 51)]:
            assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b)), (method, a, b)


@pytest.mark.parametrize("left", [False, True], ids=["right", "left"])
@pytest.mark.parametrize("rows", [False, True], ids=["matrices", "vectors"])
def test_horner_gives_every_suffix_power_sum(left, rows):
    """H_i = sum_{j>=i} X_j P^{j-i} (P^{j-i} X_j when left), against the
    explicit power sums on random nonnegative blocks."""
    rng = np.random.default_rng(25)
    for count in range(1, 7):
        m = int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(m), size=m) * rng.uniform(0.1, 1.0)
        blocks = list(rng.uniform(0.0, 1.0, size=(count, m) if rows else (count, m, m)))
        got = qbd._horner(blocks, p, left=left)
        assert len(got) == count
        for i in range(count):
            want = sum(
                np.linalg.matrix_power(p, j - i) @ blocks[j] if left
                else blocks[j] @ np.linalg.matrix_power(p, j - i)
                for j in range(i, count)
            )
            assert np.all(np.abs(got[i] - want) <= 1e-14 * np.abs(want)), (i, got[i], want)
    assert qbd._horner([], np.eye(2)) == []


def _visit_blocks_one_by_one(shifted, g, kernel):
    """The visit blocks with one solve per block: the reference for the one
    stacked solve of skipfree._visit_blocks."""
    eye = np.eye(kernel.shape[0])
    out = [None] * len(shifted)
    acc = None
    for d in range(len(shifted), 0, -1):
        acc = shifted[d - 1] if acc is None else shifted[d - 1] + acc @ g
        out[d - 1] = solve_xa(eye - kernel, acc)
    return out


MG1_FILE = load_model_file(FILES / "mg1.json").payload
MG1_EIGHT_PHASES = _mg1_walk(0.7, np.random.default_rng(8).dirichlet(np.ones(8), size=8))


def test_mg1_ul_route_keeps_one_phase_row_a_level(traced_memory):
    """Past the visit blocks the M/G/1 rows come out of the companion
    matrix's power series, of which only the last m columns are levels, so
    the 8-phase ul route to 400 levels, stage included, peaks at about
    118.5 KB, 121.4 while the stage's visit rows were held beside the
    route: the levels x D m rows of the whole series took it to 145 KB.
    The bound leaves room for a numpy with more temporaries."""
    traced_memory(lambda: solve_tails(MG1_EIGHT_PHASES, 400, method="ul"), 136, 1024, "KB")


@pytest.mark.parametrize("model", [MG1_FILE, MG1_EIGHT_PHASES], ids=["mg1.json", "8-phase"])
def test_stacked_visit_blocks_are_the_block_by_block_ones_bit_for_bit(model):
    """Each list alone and the boundary and level lists stacked together, as
    the stage solves them; a row times a block gives the same bits too, so
    the blocks keep the orientation of a solve by solve_xa."""
    measures = mg1_stationary(model)
    g, kernel = measures.passage, measures.local_kernel
    a, b = model.a_blocks, model.b_blocks
    row = np.random.default_rng(3).random(model.m)
    for lists in ([b[2:]], [a[2:]], [_suffix_sums(a)[2:]], [b[2:], a[2:]]):
        got = skipfree._visit_blocks([s for shifted in lists for s in qbd._horner(shifted, g)],
                                     kernel)
        want = [y for shifted in lists for y in _visit_blocks_one_by_one(shifted, g, kernel)]
        assert len(got) == len(want) == sum(map(len, lists))
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
        assert all(np.array_equal(row[:len(x)] @ x, row[:len(y)] @ y) for x, y in zip(got, want))


def test_mg1_stage_and_ul_route_solve_each_coefficient_matrix_once(count_calls):
    """On mg1.json the stage makes one direct solve, the normalizer's, and
    one solve_xa for the boundary and the level visit blocks together, whose
    first boundary block also censors the boundary chain; the ul route makes
    one for its level-1 head and one for its shifted visit blocks and the
    sources of its levels 2..len(B) - 1 together."""
    kernel_calls, skipfree_calls = (count_calls(module, "solve_linear")
                                    for module in (matkernel, skipfree))
    mg1_ul_tails(MG1_FILE, mg1_stationary(MG1_FILE), 20)
    assert (len(kernel_calls), len(skipfree_calls)) == (3, 1)


def _rows_one_at_a_time(head, first, blocks, count, sources=()):
    """r_k = s_k + head F_k + sum_{0<i<k} r_i V_{k-i} for k = 1..count, one
    row and one block at a time, F_k = first[k-1], V_d = blocks[d-1] and
    s_k = sources[k-1] zero past their lists."""
    rows = [head]
    for k in range(1, count + 1):
        row = np.zeros(np.shape(first[0])[1])
        if k <= len(sources):
            row = row + sources[k - 1]
        if k <= len(first):
            row = row + head @ first[k - 1]
        for i in range(max(1, k - len(blocks)), k):
            row = row + rows[i] @ blocks[k - i - 1]
        rows.append(row)
    return np.array(rows[1:])


@pytest.mark.parametrize("sources", [0, 3], ids=["visit-rows", "with-sources"])
@pytest.mark.parametrize("name", ["mg1.json", "8-phase walk"])
def test_companion_rows_match_the_direct_recursion(name, sources):
    """Past the rows the boundary and the sources touch, the forward rows
    are powers of the companion matrix of the visit blocks; to 400 levels
    they match the recursion run row by row."""
    rng = np.random.default_rng(8)
    if name == "mg1.json":
        model = load_model_file(str(FILES / "mg1.json")).payload
    else:
        p = rng.random((8, 8))
        model = _mg1_walk(0.7, p / p.sum(axis=1, keepdims=True))
    measures = mg1_stationary(model)
    head, first, blocks = measures.visit_rows[0], measures.boundary_visits, measures.visits
    extra = list(rng.random((sources, model.m)))
    want = _rows_one_at_a_time(head, first, blocks, 400, extra)
    got = np.zeros((400, model.m))
    skipfree._forward_rows(head, first, blocks, got, extra)
    assert np.max(np.abs(got - want) / want) < 2e-14


def test_mg1_chain_without_visit_blocks_pins_its_tails():
    """With only A0 and A1 no visit block links two repeating levels, so
    past the boundary's reach every level is empty."""
    model = SkipFreeModel("MG1", [[[0.6]], [[0.4]]],
                          [[[0.6]], [[0.1]], [[0.3]], [[0.2]], [[0.4]]])
    measures = mg1_stationary(model)
    for route in (mg1_tails, mg1_ul_tails):
        got = route(model, measures, 6).rows(1, 6)[:, 0]
        assert np.max(np.abs(got[:3] - [0.76, 0.4, 0.16]) / [0.76, 0.4, 0.16]) < 1e-15
        assert np.array_equal(got[3:], np.zeros(3))


def _qbd_stage(model):
    return qbd.boundary_solve(model, qbd.solve_R(model.a0, model.a1, model.a2).matrix)


@pytest.mark.parametrize("name,stage", [
    ("qbd22", _qbd_stage),
    ("gim1", skipfree.gim1_stationary),
    ("mg1", skipfree.mg1_stationary),
], ids=["qbd", "gim1", "mg1"])
def test_each_stage_takes_one_stationary_row(count_calls, name, stage):
    """The boundary chain's row is the one GTH fold a stage takes: the
    reduction's shift and the M/G/1 drift read the mean drift off one
    bordered solve (matkernel.mean_drift), whose error bound holds here, so
    it does not fall back on the fold either."""
    folds = count_calls(matkernel, "_gth_row")
    stage(load_model_file(FILES / f"{name}.json").payload)
    assert len(folds) == 1


def _slow_switching_walk(switching, drift, m=4):
    """An m-phase M/G/1 walk down 1, stay or up 1, its phase switching at
    rates scaled by `switching` at each step, the up shares shifted so that
    the drift by the GTH row is `drift`."""
    rng = np.random.default_rng(9)
    t = switching * rng.uniform(0.2, 1.0, (m, m))
    np.fill_diagonal(t, 0.0)
    step = np.eye(m) + t - np.diag(t.sum(axis=1))
    down = rng.uniform(0.2, 0.4, m)
    up = rng.uniform(0.2, 0.4, m)
    up += drift - stationary_row(step, continuous=False) @ (up - down)
    a = [np.diag(share) @ step for share in (down, 1.0 - down - up, up)]
    return SkipFreeModel("MG1", a, [a[0], a[0] + a[1], a[2]])


@pytest.mark.parametrize("switching", [1e-6, 1e-10, 1e-15])
@pytest.mark.parametrize("drift", [1e-9, -1e-9, 1e-11, -1e-11])
def test_mg1_drift_of_slow_switching_kernels(switching, drift):
    """Near zero drift on slowly switching phases, where sum_k A_k - I
    carries roundoff on its diagonal far above the switching rates,
    mg1_drift is the GTH row's p v, and mg1_stationary calls the chain
    unstable or near-critical by it."""
    model = _slow_switching_walk(switching, drift)
    a = model.a_blocks
    p = stationary_row(sum(a[1:], a[0]), continuous=False)
    want = p @ (sum(k * blk.sum(axis=1) for k, blk in enumerate(a)) - 1.0)
    got = mg1_drift(model)
    assert abs(got - want) <= 1e-8 * abs(want) + 1e-15
    if abs(drift) < 1e-10:
        with pytest.raises(NearCritical):
            mg1_stationary(model)
    elif drift > 0:
        with pytest.raises(Unstable):
            mg1_stationary(model)
    else:
        assert got < -1e-10


def test_mg1_near_zero_drift_refuses_the_normalizer_as_near_critical():
    """At drift -1e-9 and switching 1e-10, I - W is singular to working
    precision (its mass grows like 1/|drift|): the normalizer solve raises
    NearCritical naming the drift, chained to the refused solve."""
    with pytest.raises(NearCritical, match=r"^mean drift -1\.000e-09") as caught:
        mg1_stationary(_slow_switching_walk(1e-10, -1e-9))
    assert isinstance(caught.value.__cause__, SingularMatrix)


@pytest.mark.parametrize("chain", [
    np.array([[1.0 + 1e-10, -1e-10], [0.5, 0.5]]) - np.eye(2),
    np.array([[-2.0, 2.0 + 1e-10, -1e-10], [1.0, -3.0, 2.0], [0.5, 0.5, -1.0]]),
], ids=["kernel-minus-identity", "generator"])
def test_a_computed_boundary_chain_with_a_negative_entry_is_singular(chain):
    """The censored boundary chain comes out of solves, so an entry below
    zero beyond stationary_row's roundoff allowance is their rounding: it
    raises SingularMatrix naming the chain, not ValidationError.  The chain
    is a generator, a skip-free kernel minus I or a QBD's rates."""
    with pytest.raises(SingularMatrix, match="^censored boundary chain: stationary_row: "
                                             "negative off-diagonal entry -1.000e-10$") as caught:
        qbd._boundary_row(chain)
    assert isinstance(caught.value.__cause__, ValidationError)


# draw 46 of the random section of .github/compare_outputs.sh (seed 2012): a
# GI/M/1 walk whose phases switch at about 1e-7 of its level moves
_DRAW_46 = [
    [[0.40892353193365094, 0.0, 2.4137485278179867e-07],
     [2.0262327843301047e-07, 0.2213755920765823, 5.9141357007133187e-08],
     [4.180166898604037e-08, 0.0, 0.24849919238596496]],
    [[0.06821011136798431, 0.0, 4.026230897455095e-08],
     [3.3706267083406834e-07, 0.3682570378875565, 9.838131089249932e-08],
     [1.4170035430752202e-10, 0.0, 0.0008423688446024361]],
    [[0.52286576642979, 0.0, 3.086314128214815e-07],
     [3.7560483298030416e-07, 0.410366187591476, 1.0963093526411836e-07],
     [1.2627312083393268e-07, 0.0, 0.7506582705529425]],
]


def test_slow_switching_gim1_draw_solves_or_raises_a_solver_error():
    """Its censored boundary chain carries rounding on the scale of its
    diagonal, -1.5e-18 in one off-diagonal entry with OpenBLAS on x86-64:
    the boundary solve either solves or raises SingularMatrix naming the
    chain, never ValidationError, which is for bad input."""
    a = [np.array(block) for block in _DRAW_46]
    model = SkipFreeModel("GIM1", a, [a[0], a[1] + a[2], a[2]])
    try:
        gim1_stationary(model)
    except SingularMatrix as exc:
        assert str(exc).startswith("censored boundary chain: ")
