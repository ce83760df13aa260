"""Queueing models: frozen hand values, balance identities, truncation references."""

import copy
import json
import math
import pathlib
import pickle
import time
import tracemalloc

import numpy as np
import pytest

from mctails import models, registry, solve_tails
from mctails.errors import SizeLimit, Unstable, ValidationError
from mctails.ldqbd import LdQbdModel
from mctails.matkernel import inf_norm
from mctails.models import (
    RepairableParams,
    RetrialParams,
    VacationParams,
    meanfield_ode,
    mnmn1_chain,
    mn_mn_1_tails,
    repairable_qbd,
    repairable_tails,
    retrial_chain,
    retrial_tails,
    supermarket_balance_residual,
    supermarket_tail,
    supermarket_tails,
    vacation_qbd,
    vacation_tails,
)
from mctails.oracle import truncate_and_solve

RETRIAL = RetrialParams(1.0, 2.0, 1.0)
VACATION = VacationParams(0.5, 1.0)
REPAIRABLE = RepairableParams(1.0, 4.0, 2.0, 4.0)
# pi_0..pi_100 of four retrial queues, summed in 50-digit decimal arithmetic
RETRIAL_DIGITS = json.loads((pathlib.Path(__file__).parent / "data" / "retrial_tails.json")
                            .read_text())["cases"]


def _repairable_mg(params, levels):
    return registry.solve(registry.Model("repairable", params), levels, "mg")


def test_retrial_boundary_row_is_exact():
    series = retrial_tails(RETRIAL, 6)
    assert inf_norm(series.level(0) - np.array([0.5, 0.5])) < 1e-12


def test_retrial_per_level_rows_obey_single_state_balance():
    """The idle state at orbit size k is entered only from the busy state of
    the same level, so mu x_busy,k = (lam + k theta) x_idle,k exactly."""
    series = retrial_tails(RETRIAL, 12)
    for k in range(0, 11):
        x = series.level(k) - series.level(k + 1)
        assert abs(2.0 * x[0] - (1.0 + k) * x[1]) < 1e-10


def test_retrial_matches_dense_truncation():
    series = retrial_tails(RETRIAL, 10)
    reference = truncate_and_solve(retrial_chain(RETRIAL, 300), 300)
    gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 11))
    assert gap < 1e-7


def test_retrial_reports_the_rows_it_summed():
    """The rows stop where the rest, bounded by x_N q_N/(1 - q_N), is below
    machine epsilon of the deepest requested tail: 59 rows at half load,
    about 4,000 at load 0.99, where q_N falls toward 0.99."""
    assert retrial_tails(RETRIAL, 4).truncation_report == {"terms": 59}
    assert retrial_tails(RETRIAL, 200).truncation_report == {"terms": 252}
    busy = retrial_tails(RetrialParams(0.99, 1.0, 1.0), 100)
    assert 3_900 < busy.truncation_report["terms"] < 4_100


@pytest.mark.parametrize("case", RETRIAL_DIGITS,
                         ids=lambda c: f"lam{c['lam']}-mu{c['mu']}-theta{c['theta']}")
def test_retrial_tails_hold_their_relative_accuracy_at_depth(case):
    """Near saturation, with slow retrials and with retrials so slow that the
    rows climb past 1e250 before they fall, every tail up to level 100 is
    right to a few hundred machine epsilons relative."""
    want = np.array(case["tails"])
    series = retrial_tails(RetrialParams(case["lam"], case["mu"], case["theta"]), 100)
    got = np.array(series.pis)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / want) < 5e-14


@pytest.mark.parametrize("levels", [-3, 2.5])
def test_retrial_refuses_a_bad_level_count(levels):
    with pytest.raises(ValidationError, match="levels"):
        retrial_tails(RETRIAL, levels)


@pytest.mark.parametrize("levels", [-3, 2.5])
@pytest.mark.parametrize("closed_form", [
    lambda levels: vacation_tails(VACATION, levels),
    lambda levels: repairable_tails(REPAIRABLE, levels),
    lambda levels: supermarket_tails(0.5, 2, levels),
    lambda levels: mn_mn_1_tails(1.0, 2.0, levels),
    lambda levels: meanfield_ode(0.5, 2, levels, 10.0),
], ids=["vacation", "repairable", "supermarket", "mnmn1", "meanfield"])
def test_closed_forms_refuse_a_bad_level_count(closed_form, levels):
    with pytest.raises(ValidationError, match="levels"):
        closed_form(levels)


def test_retrial_overload_is_refused():
    with pytest.raises(Unstable):
        retrial_tails(RetrialParams(3.0, 2.0, 1.0), 4)


@pytest.mark.parametrize("theta", [1e-8, 3.4e-6], ids=["1e-8", "past-the-budget"])
def test_a_retrial_too_slow_for_any_oracle_band_is_refused_at_once(theta):
    """At half load the rows climb to level 1/theta before they fall; past
    the 285,714 levels a band of MAX_CELLS cells holds, no row is built."""
    start = time.perf_counter()
    with pytest.raises(SizeLimit, match=r"^retrial rows climb to level .* past the 285714 levels"):
        retrial_tails(RetrialParams(1.0, 2.0, theta), 20)
    assert time.perf_counter() - start < 1.0


def test_retrial_fast_retrials_recover_the_simple_queue():
    """With near-instant retrials the orbit feeds the server as fast as a
    waiting line would, so P(system size >= k) is the busy tail one level
    down and follows the plain geometric law."""
    series = retrial_tails(RetrialParams(1.0, 2.0, 1.0e6), 8)
    for k in range(1, 9):
        assert abs(float(series.level(k - 1)[0]) - 0.5 ** k) < 1e-3


def test_retrial_generator_through_the_generic_route():
    chain = retrial_chain(RETRIAL, 250)
    generic = solve_tails(chain, 10, method="product")
    reference = truncate_and_solve(chain, 300)
    assert inf_norm(generic.x0 - reference.x0) < 1e-7
    gap = max(inf_norm(generic.level(k) - reference.level(k))
              for k in range(1, 11))
    assert gap < 1e-7


def _retrial_rules(params):
    """The per-level block rules the retrial chain is laid out from."""
    lam, mu, theta = params.lam, params.mu, params.theta

    def up(k):
        return np.array([[lam, 0.0], [0.0, 0.0]])

    def diag(k):
        retry = k * theta
        return np.array([[-(lam + mu), mu], [lam, -(lam + retry)]])

    def down(k):
        return np.array([[0.0, 0.0], [k * theta, 0.0]])

    return up, diag, down


def _mnmn1_tables(arrival, service):
    """The mnmn1 chain's tables, one rate pair a level: arrivals stop after
    the first zero, and both rate lists repeat their last entry."""
    arr = [float(x) for x in np.atleast_1d(arrival)]
    srv = [float(x) for x in np.atleast_1d(service)]
    if 0.0 in arr:
        arr = arr[:arr.index(0.0) + 1]
    levels = range(max(len(arr), len(srv)) + 3)
    up = [arr[min(k, len(arr) - 1)] for k in levels]
    down = [0.0] + [srv[min(k - 1, len(srv) - 1)] for k in levels[1:]]
    return ([np.array([[x]]) for x in up],
            [np.array([[-(x + y)]]) for x, y in zip(up, down)],
            [np.array([[x]]) for x in down[1:]])


def _assert_same_blocks(chain, tables):
    """Every block of `chain` has the bytes of the one `tables` lists."""
    assert chain.horizon == len(tables[1]) - 1
    for kind, table, first in zip(("A0", "A1", "A2"), tables, (0, 0, 1)):
        for k, block in enumerate(table, first):
            assert chain.block_at(kind, k).tobytes() == block.tobytes(), (kind, k)


@pytest.mark.parametrize("rates", [(1.0, 2.0, 1.0), (0.9, 1.0, 0.1), (3.0, 4.0, 0.5)])
def test_retrial_chain_lays_out_the_blocks_of_its_level_rules(rates):
    """The retrial chain's stacks, laid out for all levels at once, hold the
    bytes of the blocks its per-level rules give."""
    params = RetrialParams(*rates)
    up, diag, down = _retrial_rules(params)
    tables = ([up(k) for k in range(301)], [diag(k) for k in range(301)],
              [down(k) for k in range(1, 301)])
    _assert_same_blocks(retrial_chain(params, 300), tables)


@pytest.mark.parametrize("arrival,service", [
    (1.0, 2.0),
    (0.5, 2.0),
    ([1.0, 1.0, 0.0], 2.0),
    ([1.0, 0.0, 1.0], 1.0),
    ([0.3, 1.7, 0.9], [1.1, 2.3, 3.1]),
    ([2.0, 1.5, 0.5], [1.0, 2.0, 3.0]),
    ([1.0, 0.5], [2.0]),
    ((1.0, 0.5), (2.0,)),
    (np.array([1.0, 0.5]), np.array([2.0])),
])
def test_mnmn1_chain_lays_out_the_blocks_of_its_rate_lists(arrival, service):
    """The mnmn1 chain's stacks, laid out from its rate lists as arrays,
    hold the bytes of the blocks one rate pair a level gives."""
    _assert_same_blocks(mnmn1_chain(arrival, service), _mnmn1_tables(arrival, service))


def test_retrial_chain_keeps_only_its_three_stacks():
    """At 20,000 levels the chain keeps its tables as three stacks of 2 x 2
    blocks, levels 1..20,000 of A0 and A1 and 2..20,000 of A2, 59,999 blocks
    of 32 bytes, and little else: 8 kB of slack covers the first block of
    each table, the model object and numpy's first-call allocations (2.7 kB
    together).  Laying the stacks out and checking them peaks at 5.6 MB,
    below 8 MB; one 2 x 2 array a level kept 10 MB and peaked at 20 MB."""
    horizon = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        chain = retrial_chain(RetrialParams(0.9, 1.0, 0.1), horizon)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stacks = (3 * horizon - 1) * 2 * 2 * 8
    assert chain.horizon == horizon
    assert stacks <= kept - before <= stacks + 8_000
    assert peak - before < 8_000_000


def test_state_dependent_queue_with_finite_room():
    """Arrivals [1, 1, 0] against service 2 stop the chain at level 2; the
    normalizing sum is 1 + 1/2 + 1/4, so the tails are 3/7 and 1/7."""
    series = mn_mn_1_tails([1.0, 1.0, 0.0], 2.0, 5)
    assert abs(float(series.level(0)[0]) - 1.0) < 1e-15
    assert abs(float(series.level(1)[0]) - 3.0 / 7.0) < 1e-12
    assert abs(float(series.level(2)[0]) - 1.0 / 7.0) < 1e-12
    assert float(series.level(3)[0]) == 0.0


@pytest.mark.parametrize("arrival,service", [
    (1.0, 2.0),
    ([1.0, 1.0, 0.0], 2.0),
    ([0.3, 1.7, 0.9], [1.1, 2.3, 3.1]),
    ([2.0, 1.5, 0.5], [1.0, 2.0, 3.0]),
])
def test_state_dependent_queue_puts_exactly_one_at_level_0(arrival, service):
    """Level 0 holds all the mass, so its tail is exactly 1 whatever the
    rounding of the normalizing sum."""
    assert mn_mn_1_tails(arrival, service, 10).level(0).tolist() == [1.0]


def test_state_dependent_queue_collapses_to_geometric():
    series = mn_mn_1_tails(1.0, 2.0, 10)
    for k in range(0, 11):
        assert abs(float(series.level(k)[0]) - 0.5 ** k) < 1e-12


def test_state_dependent_queue_matches_its_generator():
    series = mn_mn_1_tails([2.0, 1.5, 0.5], [1.0, 2.0, 3.0], 10)
    reference = truncate_and_solve(mnmn1_chain([2.0, 1.5, 0.5], [1.0, 2.0, 3.0]), 200)
    gap = max(abs(float(series.level(k)[0] - reference.level(k)[0]))
              for k in range(1, 11))
    assert gap < 1e-10


@pytest.mark.parametrize("arrival,service", [
    (0.5, 2.0),
    ([1.0, 0.5], [2.0]),
    ((1.0, 0.5), (2.0,)),
    (np.array([1.0, 0.5]), np.array([2.0])),
], ids=["scalar", "list", "tuple", "array"])
def test_state_dependent_rates_read_alike_in_series_and_chain(arrival, service):
    """Both the series and the generator take a rate as a number or as any
    sequence, the last entry repeating."""
    series = mn_mn_1_tails(arrival, service, 10)
    reference = truncate_and_solve(mnmn1_chain(arrival, service), 200)
    for k in range(1, 11):
        want = float(reference.level(k)[0])
        assert abs(float(series.level(k)[0]) - want) < 1e-12 * want


def test_state_dependent_rule_route_matches_the_series():
    """Arrival rate 1/(n+1) against unit service, solved once through the
    level-dependent product route and once by the direct series."""

    def up(k):
        return np.array([[1.0 / (k + 1.0)]])

    def diag(k):
        return np.array([[-(1.0 / (k + 1.0) + (1.0 if k >= 1 else 0.0))]])

    def down(k):
        return np.array([[1.0]])

    chain = LdQbdModel([up(k) for k in range(41)], [diag(k) for k in range(41)],
                       [down(k) for k in range(1, 41)])
    product = solve_tails(chain, 10, method="product")
    series = mn_mn_1_tails([1.0 / (n + 1.0) for n in range(60)], 1.0, 10)
    gap = max(abs(float(product.level(k)[0] - series.level(k)[0]))
              for k in range(1, 11))
    assert gap < 1e-9


def test_state_dependent_queue_keeps_its_digits_deep_in_the_tail():
    series = mn_mn_1_tails(1.0, 2.0, 100)
    for k in range(0, 101):
        assert abs(float(series.level(k)[0]) / 0.5 ** k - 1.0) < 1e-13


def test_finite_room_queue_solves_past_a_critical_last_rate():
    """No arrivals at level 1 end the chain there, so the last rate pair
    (1 up, 1 down) is never reached and the queue has a distribution."""
    series = mn_mn_1_tails([1.0, 0.0, 1.0], 1.0, 4)
    assert [float(p[0]) for p in series.pis] == [1.0, 0.5, 0.0, 0.0, 0.0]


def test_critical_state_dependent_queue_raises():
    want = "^rates freeze at load 1, not below 1; the queue is not ergodic$"
    with pytest.raises(Unstable, match=want):
        mn_mn_1_tails(1.0, 1.0, 3)


def test_negative_rates_are_rejected():
    with pytest.raises(ValidationError):
        mn_mn_1_tails([-1.0], 1.0, 3)
    with pytest.raises(ValidationError):
        mn_mn_1_tails(1.0, 0.0, 3)


def test_vacation_serving_tails_at_half_load():
    series = vacation_tails(VACATION, 3)
    assert inf_norm(series.level(0) - np.array([0.5, 0.5])) < 1e-15
    assert abs(float(series.level(2)[1]) - 1.0 / 3.0) < 1e-12
    assert abs(float(series.level(3)[1]) - 7.0 / 36.0) < 1e-12


def test_vacation_phase_is_geometric():
    series = vacation_tails(VACATION, 8)
    for k in range(9):
        assert abs(float(series.level(k)[0]) - (1.0 / 3.0) ** k * 0.5) < 1e-12


def test_vacation_third_busy_tail_is_not_a_quoted_one_shot_form():
    """A one-shot form quoted for this queue gives 17/72 as the third busy
    tail; the generator's value, 7/36, is the one returned."""
    series = vacation_tails(VACATION, 3)
    alt3 = 17.0 / 72.0
    assert abs(float(series.level(3)[1]) - alt3) > 1e-3


def test_vacation_matches_dense_truncation():
    series = vacation_tails(VACATION, 10)
    reference = truncate_and_solve(vacation_qbd(VACATION), 300)
    gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 11))
    assert gap < 1e-8


@pytest.mark.parametrize("lam, theta", [(0.5, 1.0), (0.8, 0.3), (0.3, 2.5), (0.5, 0.5)])
def test_vacation_closed_form_holds_its_relative_accuracy_at_depth(lam, theta):
    """Up to level 150 every busy and vacation tail is nonnegative and
    matches the dense chain truncated at 450 levels to 2e-15 relative, with
    the two roots of the busy tail apart and, at 0.5/0.5, coincident."""
    params = VacationParams(lam, theta)
    series = vacation_tails(params, 150)
    reference = truncate_and_solve(vacation_qbd(params), 450)
    assert min(float(np.min(series.level(k))) for k in range(151)) >= 0.0
    worst = max(float(np.max(np.abs(series.level(k) / reference.level(k) - 1.0)))
                for k in range(1, 151))
    assert worst < 2e-15, f"relative error {worst:.3e}"


def test_vacation_generator_through_the_generic_route():
    series = vacation_tails(VACATION, 10)
    generic = solve_tails(vacation_qbd(VACATION), 10, method="mg")
    gap = max(inf_norm(series.level(k) - generic.level(k))
              for k in range(1, 11))
    assert gap < 1e-8


def test_vacation_overload_is_refused():
    with pytest.raises(Unstable):
        VacationParams(1.5, 1.0)


def test_repairable_boundary_and_first_levels():
    series = repairable_tails(REPAIRABLE, 2)
    assert inf_norm(series.level(0) - np.array([0.875, 0.125])) < 1e-12
    assert inf_norm(series.level(1) - np.array([0.25, 0.125])) < 1e-12
    assert inf_norm(series.level(2) - np.array([0.09375, 0.0625])) < 1e-12


def test_repairable_routes_agree():
    scalar = repairable_tails(REPAIRABLE, 12)
    matrix = _repairable_mg(REPAIRABLE, 12)
    gap = max(inf_norm(scalar.level(k) - matrix.level(k)) for k in range(13))
    assert gap < 1e-8


def test_repairable_mg_route_solves_its_own_boundary(count_calls):
    """Levels 0 and 1 of the matrix-geometric route come from the boundary
    solve of the queue's QBD, the empty state added to the serving phase of
    pi_1, not from the iterative route it is checked against."""
    calls = count_calls(models, "repairable_tails")
    matrix = _repairable_mg(REPAIRABLE, 1)
    assert calls == []
    assert inf_norm(matrix.level(0) - np.array([0.875, 0.125])) < 1e-15
    assert inf_norm(matrix.level(1) - np.array([0.25, 0.125])) < 1e-15
    assert len(_repairable_mg(REPAIRABLE, 0).pis) == 1


def test_repairable_matches_dense_truncation():
    series = repairable_tails(REPAIRABLE, 10)
    reference = truncate_and_solve(repairable_qbd(REPAIRABLE), 300)
    gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 11))
    assert gap < 1e-8


def test_repairable_overload_is_refused():
    with pytest.raises(Unstable):
        repairable_tails(RepairableParams(4.0, 4.0, 2.0, 4.0), 3)


def test_supermarket_tail_powers():
    assert supermarket_tail(0.5, 2, 0) == 1.0
    assert abs(supermarket_tail(0.5, 2, 3) - 0.5 ** 7) < 1e-17
    for k in range(6):
        assert abs(supermarket_tail(0.3, 1, k) - 0.3 ** k) < 1e-15


def test_supermarket_deep_levels_underflow_to_zero():
    assert supermarket_tail(0.9, 2, 50) == 0.0
    assert supermarket_tail(0.5, 3, 10000) == 0.0


def test_supermarket_takes_an_integral_float_sample_size():
    """d = 2.0 passes as an integer and gives the tails of d = 2, down to
    the levels whose power d^k passes the float range."""
    want = supermarket_tails(0.5, 2, 1100).pis
    got = supermarket_tails(0.5, 2.0, 1100).pis
    assert all(np.array_equal(x, y) for x, y in zip(got, want))
    via_registry = registry.solve(registry.Model("supermarket", {"rho": 0.5, "d": 2.0}), 1100)
    assert all(np.array_equal(x, y) for x, y in zip(via_registry.pis, want))


@pytest.mark.parametrize("d", [2.5, 0.0, math.inf, math.nan, True])
def test_supermarket_refuses_a_sample_size_that_is_not_a_positive_integer(d):
    """A bool is a numbers.Integral; as a sample size it is a mistake."""
    with pytest.raises(ValidationError, match="d must be a positive integer"):
        supermarket_tail(0.5, d, 3)
    with pytest.raises(ValidationError, match="d must be a positive integer"):
        registry.solve(registry.Model("supermarket", {"rho": 0.5, "d": d}), 3)


def test_queue_parameters_must_be_finite():
    with pytest.raises(ValidationError, match="finite"):
        RetrialParams(1.0, math.inf, 1.0)
    with pytest.raises(ValidationError, match="finite"):
        VacationParams(0.5, math.inf)


def test_supermarket_balance_is_identically_zero():
    worst = max(supermarket_balance_residual(0.5, 2, k) for k in range(1, 11))
    assert worst < 1e-12


def test_supermarket_parameter_validation():
    with pytest.raises(ValidationError):
        supermarket_tail(1.0, 2, 1)
    with pytest.raises(ValidationError):
        supermarket_tail(0.5, 0, 1)


def test_meanfield_profile_settles_onto_the_fixed_point():
    result = meanfield_ode(0.5, 2, 15, 80.0)
    assert result.settled
    closed = supermarket_tails(0.5, 2, 15)
    gap = max(abs(result.values[k - 1] - float(closed.level(k)[0]))
              for k in range(1, 16))
    assert gap < 1e-6


def test_meanfield_step_budget_is_t_end_over_dt():
    # t_end / dt at the budget is run: one level settles within 40 steps
    budget = models.MEANFIELD_MAX_STEPS
    result = meanfield_ode(0.5, 2, 1, float(budget), dt=1.0)
    assert result.settled and result.steps < 40
    with pytest.raises(ValidationError, match="^dt must reach"):
        meanfield_ode(0.5, 2, 1, float(budget), dt=np.nextafter(1.0, 0.0))


def test_meanfield_respects_monotone_profile():
    result = meanfield_ode(0.7, 2, 12, 40.0)
    assert np.all(np.diff(result.values) <= 1e-12)
    assert np.all(result.values >= -1e-12)
    assert np.all(result.values <= 1.0 + 1e-12)


@pytest.mark.parametrize("lam, mu, alpha, beta", [
    (1.0, 4.0, 2.0, 4.0), (0.9, 2.0, 1.1, 1.0), (0.5, 1.0, 0.05, 0.2),
    (2.0, 5.0, 1.0, 1.5), (0.05, 1.0, 5.0, 0.5),
])
def test_repairable_closed_form_holds_its_relative_accuracy_at_depth(lam, mu, alpha, beta):
    """Up to level 150 every tail is nonnegative and matches the dense chain
    truncated at 1,000 levels to 1e-13 relative, at loads 0.375 (the bundled
    model file) to 0.945."""
    params = RepairableParams(lam, mu, alpha, beta)
    series = repairable_tails(params, 150)
    reference = truncate_and_solve(repairable_qbd(params), 1000)
    level0 = np.array([reference.x0[0], 0.0]) + reference.level(1)
    want = np.array([level0] + [reference.level(k) for k in range(1, 151)])
    got = np.array(series.pis)
    assert np.all(got >= 0)
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("params,values", [
    (RETRIAL, {"lam": 1.0, "mu": 2.0, "theta": 1.0}),
    (VACATION, {"lam": 0.5, "theta": 1.0}),
    (REPAIRABLE, {"lam": 1.0, "mu": 4.0, "alpha": 2.0, "beta": 4.0}),
], ids=["retrial", "vacation", "repairable"])
def test_queue_parameters_are_read_only_values(params, values):
    """Parameters take their fields by position or keyword, compare and hash
    by value, refuse assignment, and survive a copy and a pickle."""
    kind = type(params)
    by_keyword = kind(**values)
    assert by_keyword == params and hash(by_keyword) == hash(params)
    assert kind(*values.values()) == params
    assert copy.copy(params) == params == pickle.loads(pickle.dumps(params))
    assert repr(params) == f"{kind.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    assert params != kind(**{**values, "lam": values["lam"] / 2})
    assert params != tuple(values.values())
    for name in values:
        with pytest.raises(AttributeError):
            setattr(params, name, 0.25)
        with pytest.raises(AttributeError):
            delattr(params, name)
