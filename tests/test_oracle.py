"""Dense truncation reference: conservation, error estimates, size guard,
entrywise accuracy deep in the tail."""

from pathlib import Path

import numpy as np
import pytest

from mctails import solve_tails
from mctails.cli import load_model_file
from mctails.errors import SizeLimit
from mctails.ldqbd import LdQbdModel
from mctails.matkernel import inf_norm
from mctails.oracle import (
    MAX_STATES,
    _assemble_gim1,
    _assemble_ld,
    _assemble_mg1,
    truncate_and_solve,
)
from mctails.qbd import QbdModel
from mctails.skipfree import SkipFreeModel

MM1 = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])
GIM1 = SkipFreeModel("GIM1", [[[0.3]], [[0.3]], [[0.4]]],
                     [[[0.3]], [[0.7]], [[0.4]]])
MG1 = SkipFreeModel("MG1", [[[0.6]], [[0.1]], [[0.2]], [[0.1]]],
                    [[[0.6]], [[0.3]], [[0.3]], [[0.2]], [[0.2]]])


def test_truncated_generator_rows_sum_to_zero():
    q = _assemble_ld(LdQbdModel.from_qbd(MM1, 2), 30)
    assert inf_norm(q.sum(axis=1)) < 1e-12


def test_truncated_kernels_stay_stochastic():
    for model, assemble in ((GIM1, _assemble_gim1), (MG1, _assemble_mg1)):
        p = assemble(model, 25)
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


def test_deep_oracle_matches_the_matrix_geometric_route():
    path = Path(__file__).resolve().parents[1] / "modelfiles" / "qbd22.json"
    model = load_model_file(str(path)).payload
    oracle = truncate_and_solve(model, 1000)
    mg = solve_tails(model, 60, method="mg")
    for k in (20, 40, 60):
        gap = inf_norm(oracle.level(k) - mg.level(k))
        assert gap <= 1e-12 * inf_norm(mg.level(k))


def test_error_estimate_shrinks_with_depth():
    small = truncate_and_solve(MM1, 30).truncation_report["error_estimate"]
    large = truncate_and_solve(MM1, 60).truncation_report["error_estimate"]
    assert large < small


def test_state_count_guard():
    with pytest.raises(SizeLimit):
        truncate_and_solve(MM1, MAX_STATES + 1)


def test_unsupported_model_type_is_rejected():
    with pytest.raises(TypeError):
        truncate_and_solve(object(), 10)
