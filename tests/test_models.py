"""Queueing models: frozen hand values, balance identities, dense references."""

import math

import numpy as np
import pytest

from mctails import solve_tails
from mctails.errors import Divergent, Unstable, ValidationError
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
    repairable_mg_tails,
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


def test_retrial_reports_its_horizon_self_check():
    series = retrial_tails(RETRIAL, 4)
    assert series.truncation_report["horizon"] >= 28
    assert series.truncation_report["halved_horizon_delta"] < 1e-9


def test_retrial_overload_is_refused():
    with pytest.raises(Unstable):
        retrial_tails(RetrialParams(3.0, 2.0, 1.0), 4)


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


def test_state_dependent_queue_with_finite_room():
    """Arrivals [1, 1, 0] against service 2 stop the chain at level 2; the
    normalizing sum is 1 + 1/2 + 1/4, so the tails are 3/7 and 1/7."""
    series = mn_mn_1_tails([1.0, 1.0, 0.0], 2.0, 5)
    assert abs(float(series.level(0)[0]) - 1.0) < 1e-15
    assert abs(float(series.level(1)[0]) - 3.0 / 7.0) < 1e-12
    assert abs(float(series.level(2)[0]) - 1.0 / 7.0) < 1e-12
    assert float(series.level(3)[0]) == 0.0


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


def test_state_dependent_rule_route_matches_the_series():
    """Arrival rate 1/(n+1) against unit service, solved once through the
    level-dependent product route and once by the direct series."""

    def up(k):
        return np.array([[1.0 / (k + 1.0)]])

    def diag(k):
        return np.array([[-(1.0 / (k + 1.0) + (1.0 if k >= 1 else 0.0))]])

    def down(k):
        return np.array([[1.0]])

    chain = LdQbdModel.from_rule(up, diag, down, 40)
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
    with pytest.raises(Divergent):
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


def test_vacation_alternative_form_gap_is_reported_not_returned():
    """The one-shot closed form agrees at level 2 but drifts from level 3 on;
    the drift lands in the report while the recursion's values are returned."""
    series = vacation_tails(VACATION, 3)
    assert abs(series.truncation_report["alternative_form_max_gap"] - 1.0 / 24.0) < 1e-12
    alt3 = 17.0 / 72.0
    assert abs(float(series.level(3)[1]) - alt3) > 1e-3


def test_vacation_matches_dense_truncation():
    series = vacation_tails(VACATION, 10)
    reference = truncate_and_solve(vacation_qbd(VACATION), 300)
    gap = max(inf_norm(series.level(k) - reference.level(k)) for k in range(1, 11))
    assert gap < 1e-8


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
    matrix = repairable_mg_tails(REPAIRABLE, 12)
    gap = max(inf_norm(scalar.level(k) - matrix.level(k)) for k in range(13))
    assert gap < 1e-8


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


def test_meanfield_respects_monotone_profile():
    result = meanfield_ode(0.7, 2, 12, 40.0)
    assert np.all(np.diff(result.values) <= 1e-12)
    assert np.all(result.values >= -1e-12)
    assert np.all(result.values <= 1.0 + 1e-12)
