"""End-to-end acceptance run: ten scripted criteria, one verdict line each.

Run with -s to see the verdict lines; each criterion is a separate test so a
failure pinpoints itself.  Tolerances and time budgets are part of the
contract, not suggestions.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mctails import registry, solve_tails
from mctails.ldqbd import LdQbdModel
from mctails.matkernel import inf_norm
from mctails.models import (
    RepairableParams,
    RetrialParams,
    VacationParams,
    meanfield_ode,
    repairable_qbd,
    repairable_tails,
    retrial_chain,
    retrial_tails,
    supermarket_balance_residual,
    supermarket_tail,
    vacation_qbd,
    vacation_tails,
)
from mctails.oracle import truncate_and_solve
from mctails.qbd import QbdModel, solve_R
from mctails.skipfree import (
    SkipFreeModel,
    gim1_stationary,
    solve_G_series,
)

FILES = Path(__file__).resolve().parent.parent / "modelfiles"


@contextmanager
def criterion(num: int, label: str):
    start = time.perf_counter()
    try:
        yield start
    except Exception:
        print(f"criterion {num:02d} {label}: FAIL")
        raise
    print(f"criterion {num:02d} {label}: pass [{time.perf_counter() - start:.2f}s]")


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def test_criterion_01_mm1_geometric_tails():
    with criterion(1, "M/M/1 tails are powers of one half") as start:
        model = QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]])
        series = solve_tails(model, 50, method="mg", tol=1e-14)
        worst = max(abs(float(series.level(k)[0]) - 0.5 ** k)
                    for k in range(1, 51))
        assert worst < 1e-10, f"max deviation {worst:.3e}"
        assert _elapsed(start) < 1.0


def test_criterion_02_supermarket_closed_form_and_ode():
    with criterion(2, "supermarket closed form meets balance and the ODE") as start:
        worst = max(supermarket_balance_residual(0.5, 2, k) for k in range(1, 11))
        assert worst < 1e-12, f"balance residual {worst:.3e}"
        result = meanfield_ode(0.5, 2, 40, 200.0)
        gap = max(abs(result.values[k - 1] - supermarket_tail(0.5, 2, k))
                  for k in range(1, 41))
        assert gap < 1e-6, f"ODE-to-fixed-point gap {gap:.3e}"
        assert _elapsed(start) < 5.0


def _random_qbd(rng: np.random.Generator) -> QbdModel:
    m = int(rng.integers(1, 5))
    a0 = 0.25 * rng.uniform(0.1, 1.0, (m, m))
    a2 = rng.uniform(0.1, 1.0, (m, m))
    off = rng.uniform(0.0, 0.4, (m, m))
    np.fill_diagonal(off, 0.0)
    # keep the chains comfortably subcritical so every route's series
    # converges well inside its depth budget
    for _ in range(40):
        a1 = off - np.diag(a0.sum(axis=1) + a2.sum(axis=1) + off.sum(axis=1))
        if max(abs(np.linalg.eigvals(solve_R(a0, a1, a2).matrix))) < 0.8:
            break
        a0 = 0.5 * a0
    off_b = rng.uniform(0.0, 0.4, (m, m))
    np.fill_diagonal(off_b, 0.0)
    b0 = rng.uniform(0.1, 1.0, (m, m))
    b1 = off_b - np.diag(off_b.sum(axis=1) + b0.sum(axis=1))
    return QbdModel(b1, b0, a2, a0, a1, a2)


def test_criterion_03_random_qbd_routes_agree():
    with criterion(3, "three QBD routes agree on 25 random chains") as start:
        rng = np.random.default_rng(20240817)
        for trial in range(25):
            model = _random_qbd(rng)
            series = {name: solve_tails(model, 20, method=name)
                      for name in ("mg", "ul", "lu")}
            names = list(series)
            for i, left in enumerate(names):
                for right in names[i + 1:]:
                    gap = max(inf_norm(series[left].level(k) - series[right].level(k))
                              for k in range(1, 21))
                    assert gap < 1e-8, f"trial {trial}: {left}/{right} gap {gap:.3e}"
        assert _elapsed(start) < 30.0


def _random_ld(rng: np.random.Generator) -> LdQbdModel:
    ups = rng.uniform(0.1, 0.8, (7, 2, 2))
    downs = rng.uniform(0.5, 1.5, (7, 2, 2))
    offs = rng.uniform(0.0, 0.3, (7, 2, 2))
    for k in range(7):
        np.fill_diagonal(offs[k], 0.0)
    # keep the frozen region clearly subcritical
    while float(ups[6].sum()) >= 0.6 * float(downs[6].sum()):
        ups[6] = 0.5 * ups[6]

    def up(k):
        return ups[min(k, 6)]

    def down(k):
        return downs[min(k, 6)]

    def diag(k):
        i = min(k, 6)
        drop = downs[i] if k >= 1 else np.zeros((2, 2))
        total = ups[i].sum(axis=1) + drop.sum(axis=1) + offs[i].sum(axis=1)
        return offs[i] - np.diag(total)

    return LdQbdModel([up(k) for k in range(81)], [diag(k) for k in range(81)],
                      [down(k) for k in range(1, 81)])


def test_criterion_04_random_ld_routes_agree():
    with criterion(4, "product and factored LD routes agree on 10 chains") as start:
        rng = np.random.default_rng(20240818)
        for trial in range(10):
            model = _random_ld(rng)
            prod = solve_tails(model, 20, method="product")
            lu = solve_tails(model, 20, method="lu")
            gap = max(inf_norm(prod.level(k) - lu.level(k)) for k in range(1, 21))
            assert gap < 1e-7, f"trial {trial}: gap {gap:.3e}"
        assert _elapsed(start) < 60.0


def test_criterion_05_skip_free_measures_and_laws():
    with criterion(5, "skip-free measures hit their known values"):
        gim1 = SkipFreeModel("GIM1", [[[0.3]], [[0.3]], [[0.4]]],
                             [[[0.3]], [[0.7]], [[0.4]]])
        rate = gim1_stationary(gim1).r
        assert abs(float(rate[0, 0]) - 0.75) < 1e-10

        third = 1.0 / 3.0
        mg1 = SkipFreeModel("MG1", [[[2.0 * third]], [[0.0]], [[third]]],
                            [[[2.0 * third]], [[2.0 * third]], [[third]]])
        recurrent = solve_G_series([np.asarray(b, dtype=float)
                                    for b in mg1.a_blocks])
        assert abs(float(recurrent.matrix[0, 0]) - 1.0) < 1e-10
        transient = solve_G_series(
            [np.array([[0.25]]), np.array([[0.0]]), np.array([[0.75]])])
        assert abs(float(transient.matrix[0, 0]) - third) < 1e-10

        for model in (gim1, mg1):
            series = solve_tails(model, 20)
            reference = truncate_and_solve(model, 400)
            gap = max(inf_norm(series.level(k) - reference.level(k))
                      for k in range(1, 21))
            assert gap < 1e-8, f"{model.kind} vs reference {gap:.3e}"
            assert inf_norm(series.x0 - reference.x0) < 1e-8


def test_criterion_06_retrial_queue():
    with criterion(6, "retrial queue boundary and tails") as start:
        params = RetrialParams(0.5, 1.0, 1.0)
        series = retrial_tails(params, 10)
        assert inf_norm(series.level(0) - np.array([0.5, 0.5])) < 1e-12
        reference = truncate_and_solve(retrial_chain(params, 300), 300)
        gap = max(inf_norm(series.level(k) - reference.level(k))
                  for k in range(1, 11))
        assert gap < 1e-7, f"gap {gap:.3e}"
        assert _elapsed(start) < 10.0


def test_criterion_07_vacation_queue():
    with criterion(7, "vacation queue values against the reference"):
        params = VacationParams(0.5, 1.0)
        series = vacation_tails(params, 10)
        assert abs(float(series.level(2)[1]) - 1.0 / 3.0) < 1e-12
        assert abs(float(series.level(3)[1]) - 7.0 / 36.0) < 1e-12
        reference = truncate_and_solve(vacation_qbd(params), 300)
        gap = max(inf_norm(series.level(k) - reference.level(k))
                  for k in range(1, 11))
        assert gap < 1e-8, f"gap {gap:.3e}"


def test_criterion_08_repairable_queue():
    with criterion(8, "repairable queue recursion, matrix route, reference"):
        params = RepairableParams(0.25, 1.0, 0.5, 1.0)
        scalar = repairable_tails(params, 12)
        matrix = registry.solve(registry.Model("repairable", params), 12, "mg")
        assert inf_norm(scalar.level(0) - np.array([0.875, 0.125])) < 1e-12
        assert inf_norm(scalar.level(1) - np.array([0.25, 0.125])) < 1e-12
        route_gap = max(inf_norm(scalar.level(k) - matrix.level(k))
                        for k in range(13))
        assert route_gap < 1e-8, f"route gap {route_gap:.3e}"
        reference = truncate_and_solve(repairable_qbd(params), 300)
        gap = max(inf_norm(scalar.level(k) - reference.level(k))
                  for k in range(1, 13))
        assert gap < 1e-8, f"reference gap {gap:.3e}"


def test_criterion_09_truncation_estimate_bounds_refinement():
    with criterion(9, "doubling the truncation moves less than the estimate"):
        models = (
            QbdModel([[-1.0]], [[1.0]], [[2.0]], [[1.0]], [[-3.0]], [[2.0]]),
            SkipFreeModel("GIM1", [[[0.3]], [[0.3]], [[0.4]]],
                          [[[0.3]], [[0.7]], [[0.4]]]),
            SkipFreeModel("MG1", [[[0.6]], [[0.1]], [[0.2]], [[0.1]]],
                          [[[0.6]], [[0.3]], [[0.3]], [[0.2]], [[0.2]]]),
        )
        for model in models:
            coarse = truncate_and_solve(model, 40)
            fine = truncate_and_solve(model, 80)
            moved = max(inf_norm(coarse.level(k) - fine.level(k))
                        for k in range(1, 11))
            budget = 10.0 * coarse.truncation_report["error_estimate"]
            assert moved <= budget + 1e-15, f"moved {moved:.3e} > {budget:.3e}"


def test_criterion_10_cli_check_is_green_and_deterministic():
    # the subprocesses import mctails from this checkout, installed or not
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with criterion(10, "CLI cross-check passes twice, byte for byte"):
        for path in sorted(FILES.glob("*.json")):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "mctails.cli", "check", str(path)],
                    capture_output=True, env=env,
                )
                assert proc.returncode == 0, f"{path.name}: {proc.stderr.decode()}"
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], f"{path.name}: output drifted"
