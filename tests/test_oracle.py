"""Banded truncation reference: conservation, error estimates, size guard,
entrywise accuracy deep in the tail, and the same answer as a dense
solve."""

from pathlib import Path

import numpy as np
import pytest

from mctails import oracle, registry, solve_tails
from mctails.cli import load_model_file
from mctails.errors import SizeLimit, ValidationError
from mctails.ldqbd import LdQbdModel, truncated_generator
from mctails.matkernel import inf_norm, stationary_row
from mctails.models import RetrialParams, retrial_chain, retrial_tails
from mctails.oracle import MAX_CELLS, _truncation, truncate_and_solve
from mctails.qbd import QbdModel
from mctails.registry import REGISTRY, cross_check
from mctails.skipfree import SkipFreeModel, truncated_kernel

FILES = Path(__file__).resolve().parents[1] / "modelfiles"
MM1 = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])
GIM1 = SkipFreeModel("GIM1", [[[0.3]], [[0.3]], [[0.4]]],
                     [[[0.3]], [[0.7]], [[0.4]]])
MG1 = SkipFreeModel("MG1", [[[0.6]], [[0.1]], [[0.2]], [[0.1]]],
                    [[[0.6]], [[0.3]], [[0.3]], [[0.2]], [[0.2]]])


def test_truncated_generator_rows_sum_to_zero():
    q = truncated_generator(MM1, 30)
    assert inf_norm(q.cells.sum(axis=1)) < 1e-12
    # a 3-state boundary under 2-phase levels, with blocks varying to level 3
    rng = np.random.default_rng(3)
    up = [rng.random((3, 2))] + [rng.random((2, 2)) for _ in range(3)]
    down = [rng.random((2, 3))] + [rng.random((2, 2)) for _ in range(2)]
    out = [u.sum(axis=1) + (d.sum(axis=1) if k else 0.0)
           for k, (u, d) in enumerate(zip(up, [None] + down))]
    diag = [-np.diag(o) for o in out]
    chain = LdQbdModel(tuple(up), tuple(diag), tuple(down))
    for levels in (1, 2, 3, 9):
        assert inf_norm(truncated_generator(chain, levels).cells.sum(axis=1)) < 1e-12


def _uneven(kind, m0=3, m=2, count=5):
    """A skip-free chain with m0 != m and `count` blocks of each list, built
    so that every row sums to one."""
    rng = np.random.default_rng(7)
    a = [rng.random((m, m)) for _ in range(count)]
    total = sum(a).sum(axis=1, keepdims=True)
    a = [blk / total for blk in a]
    spread = np.full((1, m0), 1.0 / m0)
    if kind == "GIM1":
        # level i >= 1 keeps A_0..A_i and sends the rest of its row to level 0
        rest = [1.0 - sum(a[:i + 1]).sum(axis=1, keepdims=True) for i in range(1, count)]
        b = [np.full((m0, m), 0.5 / m), np.full((m0, m0), 0.5 / m0)]
        b += [r * spread for r in rest]
    else:
        b = [a[0].sum(axis=1, keepdims=True) * spread]
        b += [np.full((m0, m0 if k == 1 else m), 1.0 / (m0 + (count - 2) * m))
              for k in range(1, count)]
    return SkipFreeModel(kind, a, b)


def test_truncated_kernels_stay_stochastic():
    """Every row keeps its sum at any depth; a block written outside the
    band would move mass between rows."""
    for model in (GIM1, MG1, _uneven("GIM1"), _uneven("MG1")):
        for levels in (1, 2, 3, 25):
            p = truncated_kernel(model, levels).cells
            assert np.all(p >= -1e-15)
            assert inf_norm(p.sum(axis=1) - 1.0) < 1e-12


def test_total_mass_is_one():
    series = truncate_and_solve(MM1, 100)
    total = float(series.x0.sum()) + float(series.level(1).sum())
    assert abs(total - 1.0) < 1e-12


def test_doubling_the_depth_moves_less_than_the_estimate():
    """The parked last-row mass bounds the truncation error: refining from
    L to 2L must move the early tails by at most a small multiple of it."""
    for model in (MM1, GIM1, MG1):
        coarse = truncate_and_solve(model, 30)
        fine = truncate_and_solve(model, 60)
        moved = max(inf_norm(coarse.level(k) - fine.level(k)) for k in range(1, 11))
        assert moved <= 10.0 * coarse.truncation_report["error_estimate"] + 1e-15


def test_deep_tails_match_the_truncated_closed_form():
    """Truncated at L levels, M/M/1 has pi_k = (rho^k - rho^(L+1)) /
    (1 - rho^(L+1)); the oracle must hold every level to 1e-13 relative,
    down to pi_200 near 1e-60."""
    rho, levels = 0.5, 200
    series = truncate_and_solve(MM1, levels)
    for k in range(1, levels + 1):
        exact = (rho**k - rho ** (levels + 1)) / (1.0 - rho ** (levels + 1))
        assert abs(float(series.level(k)[0]) - exact) <= 1e-13 * exact


def test_heavy_load_tails_match_the_truncated_closed_form_30000_levels_deep():
    """At rho = 0.999 the truncated law holds pi_1..pi_50 to 1e-13 relative
    with 30,000 levels, which a dense solve could not hold in memory."""
    rho, levels = 0.999, 30000
    model = QbdModel([[-rho]], [[rho]], [[1.0]], [[rho]], [[-1.0 - rho]], [[1.0]])
    series = truncate_and_solve(model, levels)
    for k in range(1, 51):
        exact = (rho**k - rho ** (levels + 1)) / (1.0 - rho ** (levels + 1))
        assert abs(float(series.level(k)[0]) - exact) <= 1e-13 * exact


def test_deep_oracle_matches_the_matrix_geometric_route():
    model = load_model_file(str(FILES / "qbd22.json")).payload
    oracle = truncate_and_solve(model, 1000)
    mg = solve_tails(model, 60, method="mg")
    for k in (20, 40, 60):
        gap = inf_norm(oracle.level(k) - mg.level(k))
        assert gap <= 1e-12 * inf_norm(mg.level(k))


def test_error_estimate_shrinks_with_depth():
    small = truncate_and_solve(MM1, 30).truncation_report["error_estimate"]
    large = truncate_and_solve(MM1, 60).truncation_report["error_estimate"]
    assert large < small


def test_state_count_guard(monkeypatch):
    """M/M/1 truncates to a band 3 wide, so MAX_CELLS levels are over the
    cap; it raises before the band is assembled."""
    monkeypatch.setattr(oracle, "truncated_generator", None)
    with pytest.raises(SizeLimit, match=f"band 3 wide exceed the limit of {MAX_CELLS} cells"):
        truncate_and_solve(MM1, MAX_CELLS)


@pytest.mark.parametrize("levels", [0, -1, 2.5])
def test_levels_must_be_a_positive_integer(levels):
    with pytest.raises(ValidationError, match="levels"):
        truncate_and_solve(MM1, levels)


def test_oracle_never_places_blocks_itself():
    """Which block a move takes is decided by each model's own module; the
    oracle only solves the truncated matrix it is given."""
    source = (Path(__file__).resolve().parents[1] / "src" / "mctails" / "oracle.py").read_text()
    assert [name for name in ("a_blocks", "b_blocks", "block_at") if name in source] == []


def test_unsupported_model_type_is_rejected():
    with pytest.raises(TypeError):
        truncate_and_solve(object(), 10)


def _dense(band):
    """The n x n matrix a Band stores."""
    n, width = band.cells.shape
    rows, cols = np.indices((n, width))
    cols = cols + rows - band.lower
    inside = (cols >= 0) & (cols < n)
    out = np.zeros((n, n))
    out[rows[inside], cols[inside]] = band.cells[inside]
    return out


REFERENCED = [load_model_file(str(path)) for path in sorted(FILES.glob("*.json"))]
REFERENCED = [model for model in REFERENCED if REGISTRY[model.kind].chain]


@pytest.mark.parametrize("model", REFERENCED, ids=lambda model: model.kind)
def test_band_solve_is_bit_identical_to_the_dense_solve(model):
    """Each kind's chain, truncated at the depth check picks, solves to
    the same bits from its band as from the dense matrix."""
    depth = cross_check(model, 20).oracle_levels
    chain = REGISTRY[model.kind].chain(model.payload, depth)
    truncate, continuous, width = _truncation(chain)
    band = truncate(chain, depth)
    assert band.cells.shape == (chain.m0 + depth * chain.m, width)
    x = stationary_row(band, continuous)
    assert (x == stationary_row(_dense(band), continuous)).all()


@pytest.mark.parametrize("model", REFERENCED, ids=lambda model: model.kind)
def test_the_two_gth_loops_agree_on_each_oracle_truncation(model, each_gth_loop):
    """Each kind's chain, truncated at the depth check picks, folds to rows
    within 4 eps of each other, entrywise and relative, on numpy slices and
    on Python floats."""
    depth = cross_check(model, 20).oracle_levels
    chain = REGISTRY[model.kind].chain(model.payload, depth)
    truncate, continuous, _ = _truncation(chain)
    band = truncate(chain, depth)
    arrays, floats = (stationary_row(band, continuous) for _ in each_gth_loop())
    assert np.all(np.abs(floats - arrays) <= 4 * np.finfo(float).eps * arrays)


@pytest.mark.parametrize("model", REFERENCED, ids=lambda model: model.kind)
def test_cross_check_solves_its_oracle_once(model, count_calls):
    """At 20 levels the depth the routes' decay predicts passes the oracle's
    own mass test on every bundled model file, so no depth is solved twice."""
    calls = count_calls(oracle, "truncate_and_solve")
    assert cross_check(model, 20).passed
    assert len(calls) == 1


def _solved_depths(monkeypatch) -> list:
    """The depths oracle.truncate_and_solve is called at from now on."""
    depths = []
    original = oracle.truncate_and_solve

    def recorded(model, levels):
        depths.append(levels)
        return original(model, levels)

    monkeypatch.setattr(oracle, "truncate_and_solve", recorded)
    return depths


def test_a_decay_too_fast_still_ends_where_the_mass_test_passes(monkeypatch):
    """MM1's tails halve each level; told they fall by 1e-3 a level, the
    search starts at 27 levels and doubles until its own estimate of the
    mass past the depth is within tol of pi_20."""
    depths = _solved_depths(monkeypatch)
    series = oracle.sized_reference(MM1, 20, 1e-12, 1e-3)
    assert depths == [27, 54, 108]
    assert series.truncation_report["mass_past"] <= 1e-12 * series.level(20).sum()


@pytest.mark.parametrize("decay", [0.0, 1.0, float("nan")])
def test_a_decay_outside_the_unit_interval_starts_at_twice_the_levels(monkeypatch, decay):
    depths = _solved_depths(monkeypatch)
    oracle.sized_reference(MM1, 20, 1e-12, decay)
    assert depths == [40, 80]


def test_cross_check_builds_one_chain_for_routes_and_oracle(monkeypatch):
    """check builds a kind's chain once, at its levels, and the oracle
    truncates that same chain at every depth it tries."""
    model = load_model_file(str(FILES / "retrial.json"))
    built, handed = [], []
    spec = REGISTRY["retrial"]

    def chain(payload, levels, tails=None):
        built.append(spec.chain(payload, levels, tails))
        return built[-1]

    def sized_reference(chain, *args):
        handed.append(chain)
        return original(chain, *args)

    original = oracle.sized_reference
    monkeypatch.setitem(REGISTRY, "retrial", spec._replace(chain=chain))
    monkeypatch.setattr(oracle, "sized_reference", sized_reference)
    assert cross_check(model, 20).passed
    assert len(built) == 1
    assert handed == built


@pytest.mark.parametrize("lam,mu,theta", [(1.0, 2.0, 1.0), (0.9, 1.0, 0.1),
                                          (1.0, 2.0, 0.001), (3.0, 4.0, 0.5)])
def test_retrial_chain_frozen_where_the_rows_stop_gives_the_oracle_tails(lam, mu, theta):
    """Past the level N where models.retrial_tails stops, every row weighs
    less than machine epsilon of the tails, so the retrial chain frozen at
    N gives the oracle tails of the chain exact to the oracle's depth."""
    params = RetrialParams(lam, mu, theta)
    frozen = REGISTRY["retrial"].chain(params, 20)
    decay = registry._decay([retrial_tails(params, 20)], 20)
    sized = oracle.sized_reference(frozen, 20, registry.DEFAULT_TOL, decay)
    depth = sized.truncation_report["levels"]
    assert frozen.horizon < depth
    exact = truncate_and_solve(retrial_chain(params, depth), depth)
    pairs = [(sized.x0, exact.x0), *((sized.level(k), exact.level(k)) for k in range(1, 21))]
    for got, want in pairs:
        assert np.max(np.abs(got - want) / want) <= 1e-15
