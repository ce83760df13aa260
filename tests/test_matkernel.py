"""Dense kernel checks: guarded solves and stationary rows."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mctails import ldqbd, matkernel, models, qbd, registry, skipfree
from mctails.cli import load_model_file, run
from mctails.errors import SingularMatrix, Unstable, ValidationError
from mctails.matkernel import (
    Band,
    as_matrix,
    inf_norm,
    inverse,
    mean_drift,
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


def test_nonsquare_matrix_is_rejected():
    with pytest.raises(ValidationError):
        solve_linear([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 1.0])


@pytest.mark.parametrize("call,caller", [
    (lambda a: solve_linear(a, np.ones(0)), "solve_linear"),
    (lambda a: solve_xa(a, np.ones(0)), "solve_linear"),
    (inverse, "inverse"),
    (lambda a: mean_drift(a, np.ones(0)), "mean_drift"),
    (stationary_row, "stationary_row"),
], ids=["solve_linear", "solve_xa", "inverse", "mean_drift", "stationary_row"])
def test_an_empty_matrix_is_refused_by_name(call, caller):
    with pytest.raises(ValidationError, match=rf"^{caller}: matrix must be nonempty, got shape \(0, 0\)$"):
        call(np.zeros((0, 0)))


def _as_given(form, values):
    """values, a float64 array, in one of the forms a caller may pass."""
    if form == "list":
        return values.tolist()
    if form == "fortran":
        return np.asfortranarray(values)
    if form == "strided":
        wide = np.zeros((values.shape[0], 2 * values.shape[1]) if values.ndim == 2 else 2 * len(values))
        view = wide[:, ::2] if values.ndim == 2 else wide[::2]
        view[...] = values
        return view
    return values.astype(int) if form == "int" else values.copy()


@pytest.mark.parametrize("form", ["float64", "list", "int", "fortran", "strided"])
def test_every_input_form_gives_the_bits_of_a_float64_array(form):
    """A float64 array is read as it is and any other input coerced as
    np.asarray(x, dtype=float) does: the same bytes in every form, and the
    same refusals of a matrix that is not square or not finite."""
    a = np.array([[4.0, 1.0, 2.0], [1.0, 5.0, 3.0], [2.0, 1.0, 6.0]])
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    for call, args in ((solve_linear, (a, b)), (solve_linear, (a, b[:, 0])),
                       (solve_xa, (a, b.T.copy())), (inverse, (a,)),
                       (inf_norm, (a,)), (inf_norm, (b[:, 1].copy(),))):
        want = np.asarray(call(*args)).tobytes()
        assert np.asarray(call(*(_as_given(form, x) for x in args))).tobytes() == want
    wide = _as_given(form, np.ones((2, 3)))
    for call, message in ((lambda: solve_linear(wide, np.ones(2)), "solve_linear: matrix must be square, got shape (2, 3)"),
                          (lambda: solve_xa(wide, np.ones(3)), "solve_linear: matrix must be square, got shape (3, 2)"),
                          (lambda: inverse(wide), "inverse: matrix must be square, got shape (2, 3)")):
        with pytest.raises(ValidationError) as refused:
            call()
        assert str(refused.value) == message
    if form != "int":
        nan = _as_given(form, np.array([[1.0, np.nan], [0.0, 1.0]]))
        for call in (lambda: solve_linear(nan, np.ones(2)), lambda: solve_xa(nan, np.ones(2)),
                     lambda: inverse(nan)):
            with pytest.raises(SingularMatrix, match=r"^2 x 2 system: non-finite solution$"):
                call()
        assert np.isnan(inf_norm(nan))


def test_stationary_row_of_a_generator():
    v = stationary_row([[-1.0, 1.0], [2.0, -2.0]])
    assert inf_norm(v - np.array([2.0, 1.0]) / 3.0) < 1e-12


def test_stationary_row_of_a_stochastic_kernel():
    v = stationary_row([[0.6, 0.4], [0.2, 0.8]], continuous=False)
    assert inf_norm(v - np.array([1.0, 2.0]) / 3.0) < 1e-12


def test_stationary_row_rejects_rank_deficiency_beyond_one(each_gth_loop):
    for _ in each_gth_loop():
        with pytest.raises(SingularMatrix):
            stationary_row(np.zeros((3, 3)))


def test_stationary_row_rejects_two_closed_classes(each_gth_loop):
    # states {0, 1} and {2, 3} never reach each other
    q = np.array([[-1.0, 1.0, 0.0, 0.0],
                  [2.0, -2.0, 0.0, 0.0],
                  [0.0, 0.0, -3.0, 3.0],
                  [0.0, 0.0, 1.0, -1.0]])
    for _ in each_gth_loop():
        with pytest.raises(SingularMatrix):
            stationary_row(q)


def test_stationary_row_refuses_a_row_that_misses_balance():
    """The second row sums to -2, so no row balances it: the GTH row
    (1/2, 1/2) leaves a residual of 1."""
    with pytest.raises(SingularMatrix,
                       match=r"^stationary solve left balance residual 1\.000e\+00$"):
        stationary_row([[-1.0, 1.0], [1.0, -3.0]])


def test_stationary_row_gives_transient_low_states_no_mass(each_gth_loop):
    for _ in each_gth_loop():
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


def test_stationary_row_of_an_unevenly_banded_kernel(each_gth_loop):
    # lower reach 2, upper reach 5: every fold stays inside that band
    rng = np.random.default_rng(11)
    n = 40
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    p = np.where((offsets <= 2) & (offsets >= -5), rng.random((n, n)), 0.0)
    p /= p.sum(axis=1, keepdims=True)
    for _ in each_gth_loop():
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


def test_stationary_row_of_a_chain_that_climbs_past_the_float_range(each_gth_loop):
    # birth rate 4, death rate 1 on 600 states: v_k is 4^k up to scale
    n = 600
    q = np.diag(np.full(n - 1, 4.0), 1) + np.diag(np.ones(n - 1), -1)
    q -= np.diag(q.sum(axis=1))
    for _ in each_gth_loop():
        v = stationary_row(q)
        assert abs(v[-1] - 0.75) < 1e-15
        assert abs(v[-2] / v[-1] - 0.25) < 1e-15


def _random_band(reach: int, n: int) -> Band:
    """A random generator of n states whose lower and upper reach are both `reach`."""
    rng = np.random.default_rng(reach)
    band = Band.zeros(n, reach, reach)
    offsets = np.arange(n)[:, None] + np.arange(-reach, reach + 1)
    band.cells[:] = np.where((offsets >= 0) & (offsets < n), rng.random(band.cells.shape), 0.0)
    band.cells[:, reach] = 0.0
    band.cells[:, reach] = -band.cells.sum(axis=1)
    return band


@pytest.mark.parametrize("reach", range(1, 10))
def test_the_two_gth_loops_agree_on_random_bands(each_gth_loop, reach):
    """The loops fold alike, but a back-substitution step may add its terms
    in another order (a strided BLAS dot may fuse or split its sums), and
    that difference grows along the chain: 200-state bands like these part
    by up to 9 eps.  These are 20 states long."""
    band = _random_band(reach, 20)
    arrays, floats = (stationary_row(band) for _ in each_gth_loop())
    assert np.all(np.abs(floats - arrays) <= 4 * np.finfo(float).eps * arrays)


def _gth_floats_reference(a, flat, stride, lower, v, below, above):
    """matkernel._gth_floats as it was before it skipped the zero entries of
    a pivot column: every entry is divided by the outflow and updates its
    row."""
    n = len(v)
    start = 0
    for k in range(n - 1, 0, -1):
        first_row = k - above if k > above else 0
        first_col = k - below if k > below else 0
        at_k = k * stride + lower
        row = flat[at_k + first_col:at_k + k].tolist()
        out = 0.0
        for r in row:
            out += r
        if out == 0.0:
            matkernel._check_closed_state(a, k, below, above)
            start = k
            break
        shift = k - first_col
        for at in range(first_row * stride + lower + k, at_k + k, stride):
            col = flat[at] / out
            flat[at] = col
            j = at - shift
            for r in row:
                flat[j] += col * r
                j += 1
    row_v = memoryview(v)
    row_v[start] = 1.0
    for k in range(start + 1, n):
        first_row = k - above if k > above else 0
        mass = 0.0
        at = first_row * stride + lower + k
        for i in range(first_row, k):
            mass += row_v[i] * flat[at]
            at += stride
        row_v[k] = mass
        if mass > 1e250:
            v[: k + 1] /= mass


def _retrial_windows():
    """The censored window of levels 0..200 of the retrial chain (1, 2, 1),
    as stationary_product folds it and reversed, as tails_lu_ld does: in
    both, about half of each pivot column is zero."""
    chain = models.retrial_chain(models.RetrialParams(1.0, 2.0, 1.0), 200)
    band = ldqbd._censored_window(chain, ldqbd.horizon_rate(chain), 200)
    return band, Band(band.cells[::-1, ::-1], band.cells.shape[1] - 1 - band.lower)


def _zeroed_columns(reach: int, zero: float) -> Band:
    """_random_band(reach, 30) with every third column from column 1 on set
    to `zero` off the diagonal: no state enters those states, so their
    columns stay zero through the fold.  Other states step over them, as
    the reach is at least 2."""
    band = _random_band(reach, 30)
    cells = band.cells
    for j in range(1, 30, 3):
        for d in range(-reach, reach + 1):
            if d and 0 <= j - d < 30:
                cells[j - d, d + reach] = zero
    cells[:, reach] = 0.0
    cells[:, reach] = -cells.sum(axis=1)
    return band


@pytest.mark.parametrize("band", [
    *_retrial_windows(),
    *(_zeroed_columns(reach, zero) for reach in (2, 3, 5, 8) for zero in (0.0, -0.0)),
], ids=["retrial", "retrial-reversed",
        *(f"reach{reach}-{zero}" for reach in (2, 3, 5, 8) for zero in ("0", "-0"))])
def test_the_float_loop_skips_zero_column_entries_with_the_same_bits(monkeypatch, band):
    """Dividing a ±0.0 column entry and adding its ±0.0 products changes no
    value the fold reads later, so skipping them keeps every bit."""
    monkeypatch.setattr(matkernel, "FLOAT_FOLD_CELLS", sys.maxsize)
    skipped = stationary_row(band)
    monkeypatch.setattr(matkernel, "_gth_floats", _gth_floats_reference)
    assert np.array_equal(stationary_row(band), skipped)


FILES = Path(__file__).resolve().parents[1] / "modelfiles"


def _drift_cases(path):
    """(q, v) pairs from the chain of a bundled model file: (A, (A0 - A2) e)
    of a QBD, of the horizon blocks of a level-dependent QBD and of the
    grouped QBD of a skip-free chain, and (sum_k A_k - I, sum_k k A_k e - e)
    of the skip-free chain itself."""
    model = load_model_file(path)
    spec = registry.REGISTRY[model.kind]
    chain = spec.chain(model.payload, 10) if spec.chain else None
    if isinstance(chain, qbd.QbdModel):
        groups = [(chain.a0, chain.a1, chain.a2)]
    elif isinstance(chain, ldqbd.LdQbdModel):
        groups = [tuple(chain.block_at(kind, chain.horizon) for kind in ("A0", "A1", "A2"))]
    elif isinstance(chain, skipfree.SkipFreeModel):
        a = chain.a_blocks
        groups = [skipfree._grouped(a, chain.kind == "MG1")]
        yield (sum(a[1:], a[0]) - np.eye(chain.m),
               sum(k * blk.sum(axis=1) for k, blk in enumerate(a)) - 1.0)
    else:
        groups = []
    for up, local, down in groups:
        yield up + local + down, up.sum(axis=1) - down.sum(axis=1)


@pytest.mark.parametrize("path", sorted(FILES.glob("*.json")), ids=lambda path: path.stem)
def test_mean_drift_is_p_v_on_the_bundled_chains(path):
    for q, v in _drift_cases(path):
        want = stationary_row(q) @ v
        assert abs(mean_drift(q, v) - want) <= 1e-13 * abs(want)


def test_mean_drift_refuses_what_stationary_row_refuses():
    two_classes = np.array([[-1.0, 1.0, 0.0, 0.0],
                            [2.0, -2.0, 0.0, 0.0],
                            [0.0, 0.0, -3.0, 3.0],
                            [0.0, 0.0, 1.0, -1.0]])
    negative = np.array([[-1.0, 1.5, -0.5], [1.0, -2.0, 1.0], [0.5, 0.5, -1.0]])
    for q in (two_classes, negative, np.zeros((3, 3))):
        assert mean_drift(q, np.ones(len(q))) is None
    # a transient state and roundoff below an exact zero still leave one p
    assert mean_drift([[-1.0, 1.0], [0.0, 0.0]], [3.0, -2.0]) == -2.0
    q = np.array([[-1.0, 1.0, -1e-20], [1.0, -2.0, 1.0], [0.0, 2.0, -2.0]])
    assert abs(mean_drift(q, [5.0, 0.0, 0.0]) - 2.0) < 1e-15


def _gth_shift(a0, a2, phases):
    """The shift rule by the stationary row: None when there is no unique
    p, else whether p A0 e < p A2 e."""
    try:
        p = stationary_row(phases)
    except (SingularMatrix, ValidationError):
        return None
    return bool(p @ a0.sum(axis=1) < p @ a2.sum(axis=1))


def _random_phase_blocks(rng):
    """Blocks A0, A2 and the phase generator A = A0 + A1 + A2 of a random
    QBD with 1-6 phases: sparse switching, slowed by 1e-6 in a quarter of
    the draws, a phase that nothing enters in another quarter, two phase
    classes that never meet in another, and some zero arrival and service
    rates, with or without a phase change at a jump."""
    m = int(rng.integers(1, 7))
    t = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
    style = rng.integers(4)
    if style == 1:
        t *= 1e-6
    elif style == 2:
        t[:, 0] = 0.0
    elif style == 3:
        t[:m // 2, m // 2:] = t[m // 2:, :m // 2] = 0.0
    np.fill_diagonal(t, 0.0)
    a0, a2 = (np.diag(rng.uniform(0.0, 2.0, m) * (rng.random(m) < 0.8)) for _ in range(2))
    if rng.random() < 0.3:
        jump = rng.random((m, m))
        a0 = a0 @ (jump / jump.sum(axis=1, keepdims=True))
    phases = a0 + a2 + t
    return a0, a2, phases - np.diag(phases.sum(axis=1))


def slow_switching_blocks(switching, drift, split=False, seed=31, m=4):
    """The blocks A0, A1, A2 of an m-phase QBD whose phases switch at rates
    scaled by `switching` (only between two halves of the phases if
    `split`, so that A is nearly decomposable), with arrival rates shifted
    so that the drift p (A0 - A2) e by the GTH row is `drift`.
    A = A0 + A1 + A2 carries roundoff of the size of the rates on its
    diagonal."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.2, 1.0, (m, m))
    if split:
        t[:m // 2, m // 2:] *= switching
        t[m // 2:, :m // 2] *= switching
    else:
        t *= switching
    np.fill_diagonal(t, 0.0)
    t -= np.diag(t.sum(axis=1))
    down = rng.uniform(0.2, 2.0, m)
    up = rng.uniform(0.2, 1.5, m)
    up += drift - stationary_row(t) @ (up - down)
    return np.diag(up), t - np.diag(up + down), np.diag(down)


@pytest.mark.parametrize("split", [False, True], ids=["slow", "nearly-decomposable"])
@pytest.mark.parametrize("switching", [1e-6, 1e-8, 1e-10, 1e-12, 1e-15])
def test_mean_drift_of_slow_switching_is_the_gth_drift(switching, split):
    """Roundoff on the diagonal of A = A0 + A1 + A2, far above slow
    switching rates, gave the bordered drift the wrong sign when the solve
    read it (at 1e-10, -1e-9 came out +4e-8); read off the off-diagonal
    entries, as GTH reads A, it does not.  Between nearly decomposable
    classes of phases the bordered system itself is ill-conditioned, its
    error bound refuses c near zero drift, and p v comes from the GTH row.
    Either way the drift keeps the GTH drift's sign and value."""
    for drift in (1e-5, -1e-5, 1e-7, -1e-7, 1e-9, -1e-9):
        a0, a1, a2 = slow_switching_blocks(switching, drift, split)
        phases = a0 + a1 + a2
        v = a0.sum(axis=1) - a2.sum(axis=1)
        want = stationary_row(phases) @ v
        got = mean_drift(phases, v)
        assert np.sign(got) == np.sign(want)
        assert abs(got - want) <= 1e-8 * abs(want) + 1e-14


# transient chains on which the plain reduction overflows
OVERFLOWING = [(1e-12, 1e-5), (1e-12, 1e-7), (1e-10, 1e-5)]


@pytest.mark.parametrize("switching,drift", [
    (1e-10, 1e-7), (1e-10, 1e-9), (1e-10, -1e-9), (1e-10, -1e-7),
    (1e-12, 1e-9), (1e-12, -1e-9), (1e-12, -1e-7), *OVERFLOWING,
])
def test_shift_of_slow_switching_chains_follows_the_drift(switching, drift):
    """Near zero drift on slowly switching phases the shift follows the
    GTH drift, so a transient chain keeps its substochastic G and a stable
    one its stochastic G.  A bordered drift that read A's own diagonal
    shifted one of these transient chains to a stochastic G, and left three
    stable ones unshifted, where the plain reduction overflows or stops at
    a substochastic G.  On the OVERFLOWING transient chains the next solve
    refuses the overflowed step, which is raised as Unstable naming the
    drift, chained to the refusal, with no overflow warning ahead of it."""
    blocks = slow_switching_blocks(switching, drift)
    if (switching, drift) in OVERFLOWING:
        want = f"^mean drift {drift:g} > 0: the chain is transient"
        with pytest.raises(Unstable, match=want) as raised:
            qbd.solve_G(*blocks)
        assert isinstance(raised.value.__cause__, SingularMatrix)
        return
    g = qbd.solve_G(*blocks).matrix
    if drift < 0:
        assert inf_norm(g.sum(axis=1) - 1.0) < 1e-12
    else:
        assert g.sum(axis=1).min() < 1.0 - 1e-4


def test_check_of_a_transient_slow_switching_qbd_exits_three(tmp_path, capsys):
    """The first OVERFLOWING chain as a QBD with B1 = A1 + A2, from a model file."""
    a0, a1, a2 = slow_switching_blocks(1e-12, 1e-5)
    blocks = {"B1": a1 + a2, "B0": a0, "B2": a2, "A0": a0, "A1": a1, "A2": a2}
    path = tmp_path / "transient.json"
    path.write_text(json.dumps({"kind": "qbd",
                                "blocks": {key: block.tolist() for key, block in blocks.items()}}))
    assert run(["check", str(path)]) == 3
    assert capsys.readouterr().err.startswith("solver error: mean drift 1e-05 > 0")


def test_mean_drift_gives_the_shift_of_the_stationary_row():
    """solve_G shifts when mean_drift(A, (A0 - A2) e) < 0: on random phase
    blocks that is the rule of the GTH row, draw by draw."""
    rng = np.random.default_rng(30)
    decisions = {True: 0, False: 0, None: 0}
    for _ in range(2000):
        a0, a2, phases = _random_phase_blocks(rng)
        drift = mean_drift(phases, a0.sum(axis=1) - a2.sum(axis=1))
        shift = None if drift is None else bool(drift < 0.0)
        assert shift == _gth_shift(a0, a2, phases)
        decisions[shift] += 1
    assert min(decisions.values()) >= 200, decisions


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
