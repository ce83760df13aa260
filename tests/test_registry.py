"""The route registry: one table of kinds, routes, defaults and references."""

import pathlib
import re

import numpy as np
import pytest

import mctails
from mctails import matkernel, qbd, registry
from mctails.cli import load_model_file
from mctails.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUNDLED = {path.name: load_model_file(str(path))
           for path in sorted((ROOT / "modelfiles").glob("*.json"))}
CHAINS = ("mm1.json", "qbd22.json", "ldqbd.json", "gim1.json", "mg1.json")
ROUTES = [(name, route) for name, model in BUNDLED.items()
          for route in registry.REGISTRY[model.kind].routes]


def test_every_kind_has_a_bundled_model_file():
    assert {model.kind for model in BUNDLED.values()} == set(registry.REGISTRY)


@pytest.mark.parametrize("name,route", ROUTES)
def test_every_route_solves_its_bundled_model_file(name, route):
    series = registry.solve(BUNDLED[name], 6, route)
    assert series.last_level == 6
    assert all(np.all(np.isfinite(row)) for row in series.pis)


@pytest.mark.parametrize("name", CHAINS)
def test_solve_tails_takes_the_default_route_of_the_table(name):
    model = BUNDLED[name]
    default = next(iter(registry.REGISTRY[model.kind].routes))
    got = mctails.solve_tails(model.payload, 6)
    want = registry.solve(model, 6, default)
    assert got.method == want.method
    assert all(np.array_equal(a, b) for a, b in zip(got.pis, want.pis))


@pytest.mark.parametrize("name,route", ROUTES)
def test_every_route_rejects_bad_levels(name, route):
    for levels in (-3, 2.5):
        with pytest.raises(ValidationError, match="levels"):
            registry.solve(BUNDLED[name], levels, route)
    assert registry.solve(BUNDLED[name], 0, route).last_level == 0


def test_wrong_method_lists_the_choices():
    with pytest.raises(ValidationError, match="choices: mg, ul"):
        mctails.solve_tails(BUNDLED["gim1.json"].payload, 5, method="lu")


def test_routes_call_the_solvers_through_their_modules(count_calls):
    """A solver replaced on its module, as the benchmark's tracer does, is the
    one a route runs."""
    calls = count_calls(qbd, "tails_lu")
    mctails.solve_tails(BUNDLED["mm1.json"].payload, 4, method="lu")
    assert calls == [1]


def test_ul_route_solves_the_boundary_once(count_calls):
    """The UL identity residual reuses the route's own boundary solution."""
    calls = count_calls(qbd, "boundary_solve")
    mctails.solve_tails(BUNDLED["qbd22.json"].payload, 6, method="ul")
    assert calls == [1]


def test_lu_route_factors_each_level_once(count_calls):
    """tails_lu inverts -Psi_k only until the up-blocks settle; deeper levels
    cost products only, so 400 levels take as many solves as 20."""
    model = BUNDLED["qbd22.json"].payload
    r = qbd.solve_R(model.a0, model.a1, model.a2).matrix
    x0 = qbd.boundary_solve(model, r).x0
    solves = []
    for levels in (20, 400):
        calls = count_calls(matkernel, "solve_linear")
        series = qbd.tails_lu(model, x0, levels)
        solves.append(len(calls))
    assert series.truncation_report["terms"] == 400
    assert solves[0] == solves[1] < 400


def test_cross_check_fails_against_a_too_shallow_reference():
    report = mctails.cross_check(BUNDLED["mm1.json"], 4, 6)
    assert not report.passed
    failed = [c for c in report.comparisons if not c.ok]
    assert failed and all("oracle" in (c.left, c.right) for c in failed)


def test_readme_route_table_matches_the_registry():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").split("## Solver routes", 1)[1]
    lines = lines.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        kind, routes = [cell.strip() for cell in line.strip("|").split("|")]
        table[kind.strip("`")] = re.findall(r"`([^`]+)`", routes)
    assert table == {kind: list(spec.routes) for kind, spec in registry.REGISTRY.items()}
