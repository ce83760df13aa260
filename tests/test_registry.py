"""The route registry: one table of kinds, routes, defaults and chains."""

import copy
import pathlib
import pickle
import re

import numpy as np
import pytest

import mctails
from mctails import ldqbd, matkernel, models, qbd, registry, skipfree
from mctails.cli import load_model_file
from mctails.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUNDLED = {path.name: load_model_file(str(path))
           for path in sorted((ROOT / "modelfiles").glob("*.json"))}
CHAINS = ("mm1.json", "qbd22.json", "ldqbd.json", "gim1.json", "mg1.json")
ROUTES = [(name, route) for name, model in BUNDLED.items()
          for route in registry.route_names(model.kind)]


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
    default = registry.route_names(model.kind)[0]
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


@pytest.mark.parametrize("flag", [True, False])
def test_a_bool_is_not_a_level_count(flag, count_calls):
    """A bool is a numbers.Integral; as a level count it is a mistake."""
    calls = count_calls(qbd, "solve_R")
    with pytest.raises(ValidationError, match="levels"):
        mctails.solve_tails(BUNDLED["mm1.json"].payload, flag)
    with pytest.raises(ValidationError, match="levels"):
        mctails.cross_check(BUNDLED["mm1.json"], flag)
    assert calls == []


def test_wrong_method_lists_the_choices():
    with pytest.raises(ValidationError, match="choices: mg, ul"):
        mctails.solve_tails(BUNDLED["gim1.json"].payload, 5, method="lu")


def test_routes_call_the_solvers_through_their_modules(count_calls):
    """A solver replaced on its module, as the benchmark's tracer does, is the
    one a route runs."""
    calls = count_calls(qbd, "tails_lu")
    mctails.solve_tails(BUNDLED["mm1.json"].payload, 4, method="lu")
    assert calls == [1]


@pytest.mark.parametrize("name,route", ROUTES)
def test_every_route_returns_nonnegative_nonincreasing_tails(name, route):
    """At 150 levels no tail entry is negative, and in no phase does a tail
    rise from one level to the next beyond a relative 1e-12."""
    pis = np.array(registry.solve(BUNDLED[name], 150, route).pis)
    assert np.all(pis >= 0)
    assert np.all(pis[1:] <= pis[:-1] * (1.0 + 1e-12))


def test_ul_route_solves_the_boundary_once(count_calls):
    """The UL route reads R and x0 from the stage's one boundary solution."""
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


@pytest.mark.parametrize("name,module,solvers", [
    ("qbd22.json", qbd, ("solve_R", "boundary_solve")),
    ("ldqbd.json", ldqbd, ("horizon_rate",)),
    ("gim1.json", skipfree, ("gim1_stationary",)),
    ("mg1.json", skipfree, ("mg1_stationary",)),
], ids=["qbd", "ldqbd", "gim1", "mg1"])
def test_cross_check_solves_the_stage_once_for_every_route(count_calls, name, module,
                                                           solvers):
    """Every route reads the stage that cross_check solves once (for an
    LDQBD, R_h, which both routes' folds read); a solve call solves it once
    more, for its one route."""
    calls = [count_calls(module, solver) for solver in solvers]
    assert mctails.cross_check(BUNDLED[name], 20).passed
    assert calls == [[1]] * len(solvers)
    registry.solve(BUNDLED[name], 6)
    assert calls == [[1, 1]] * len(solvers)


def test_cross_check_of_a_named_ldqbd_queue_solves_r_h_and_the_product_once(count_calls):
    calls = [count_calls(ldqbd, name) for name in ("horizon_rate", "stationary_product")]
    assert mctails.cross_check(BUNDLED["mnmn1.json"], 20).passed
    assert calls == [[1], [1]]


@pytest.mark.parametrize("levels", [1, 20, 150])
def test_cross_check_of_retrial_runs_its_recursion_once(monkeypatch, count_calls, levels):
    """The product route's depth N freezes the chain the oracle solves, so
    check runs models.retrial_tails once, and freezes the chain where a
    separate run of it stops."""
    calls = count_calls(models, "retrial_tails")
    built = []
    spec = registry.REGISTRY["retrial"]

    def chain(payload, at, tails=None):
        built.append(spec.chain(payload, at, tails))
        return built[-1]

    monkeypatch.setitem(registry.REGISTRY, "retrial", spec._replace(chain=chain))
    assert mctails.cross_check(BUNDLED["retrial.json"], levels).passed
    assert len(calls) == 1
    depth = models.retrial_tails(BUNDLED["retrial.json"].payload, levels)
    assert built[0].horizon == depth.truncation_report["terms"]


def test_solve_checks_its_arguments_before_the_stage(count_calls):
    calls = count_calls(qbd, "solve_R")
    for levels, method in ((-1, "mg"), (6, "product")):
        with pytest.raises(ValidationError):
            registry.solve(BUNDLED["qbd22.json"], levels, method)
    assert calls == []


def test_repairable_mg_solves_its_stage_at_the_run_tol(rate_solve_tols):
    """A named queue's QBD routes, repairable `mg` among them, solve the
    chain's stage through qbd.solve_R at the tol on the model, not a
    default."""
    for name in ("repairable.json", "vacation.json"):
        for route in ("mg", "ul", "lu"):
            registry.solve(BUNDLED[name]._replace(tol=1e-5), 5, route)
    assert rate_solve_tols == [1e-5] * 6


def test_solve_reads_its_tol_off_the_model(rate_solve_tols):
    model = BUNDLED["qbd22.json"]
    registry.solve(model._replace(tol=1e-5), 6)
    registry.solve(model, 6)
    assert rate_solve_tols == [1e-5, registry.DEFAULT_TOL]


@pytest.mark.parametrize("name", ["qbd22.json", "mm1.json", "ldqbd.json", "repairable.json",
                                  "vacation.json", "mnmn1.json"])
def test_cross_check_checks_stability_once(count_calls, name):
    """The stability check of the stage, a chain's or a named queue's chain
    family's, is the only one: no route runs geometric_mass again."""
    calls = [count_calls(module, "geometric_mass") for module in (qbd, ldqbd)]
    assert mctails.cross_check(BUNDLED[name], 20).passed
    assert sum(map(len, calls)) == 1


def test_cross_check_solves_the_ldqbd_level_0_row_once(count_calls):
    """Each LDQBD route gets its level-0 row out of one fold of its
    window, product's from the horizon down and lu's from state 0 up, and
    check runs each route once."""
    folds = count_calls(ldqbd, "stationary_row")
    assert mctails.cross_check(BUNDLED["ldqbd.json"], 20).passed
    assert len(folds) == 2


def test_cross_check_stacks_each_series_once(count_calls):
    """vacation's four routes and the oracle make 10 pairs, which slice one
    stack per series."""
    stacks = count_calls(mctails.TailSeries, "rows")
    report = mctails.cross_check(BUNDLED["vacation.json"], 20)
    assert len(report.comparisons) == 10
    assert len(stacks) == 5


@pytest.mark.parametrize("name", ["mm1.json", "qbd22.json", "vacation.json", "repairable.json"])
def test_ldqbd_routes_solve_a_qbd_as_it_is(name):
    """A QbdModel is the LdQbdModel of its first three levels, so both
    LDQBD routes take it as it is and agree with its mg route."""
    model = BUNDLED[name]
    chain = registry.REGISTRY[model.kind].chain(model.payload, 50)
    mg = registry.solve(registry.Model("qbd", chain), 50, "mg")
    for route in ("product", "lu"):
        series = registry.solve(registry.Model("ldqbd", chain), 50, route)
        for k in range(1, 51):
            assert np.max(np.abs(series.level(k) - mg.level(k)) / mg.level(k)) < 1e-14


def test_kind_of_refuses_an_object_that_is_not_a_chain():
    with pytest.raises(ValidationError, match="^no tail solver for dict$"):
        registry.kind_of({"A1": [[-1.0]]})


@pytest.mark.parametrize("name", ["repairable.json", "vacation.json", "mnmn1.json"])
def test_a_closed_form_route_solves_no_chain_stage(count_calls, name):
    """A named queue's own route builds no chain stage: only its chain
    family's routes solve R or run the product route."""
    calls = [count_calls(qbd, "solve_R"), count_calls(ldqbd, "horizon_rate"),
             count_calls(ldqbd, "stationary_product")]
    registry.solve(BUNDLED[name], 20)
    assert calls == [[], [], []]


@pytest.mark.parametrize("kind,payload", [
    ("vacation", models.VacationParams(0.5, 1.0)),
    ("vacation", models.VacationParams(0.9, 0.1)),
    ("vacation", models.VacationParams(0.95, 0.5)),
    ("repairable", BUNDLED["repairable.json"].payload),
    ("repairable", models.RepairableParams(0.5, 1.0, 0.1, 0.5)),
    ("mnmn1", BUNDLED["mnmn1.json"].payload),
    ("mnmn1", {"arrival": [2.0, 1.5, 0.5], "service": [1.0, 2.0, 3.0]}),
    ("mnmn1", {"arrival": 0.9, "service": 1.0}),
], ids=["vacation-0.5-1", "vacation-0.9-0.1", "vacation-0.95-0.5", "repairable-bundled",
        "repairable-0.5-1-0.1-0.5", "mnmn1-bundled", "mnmn1-three-rates", "mnmn1-0.9-1"])
def test_every_family_route_matches_the_closed_form(kind, payload):
    """Every route of a named queue's chain family, mapped to the queue's
    level 0, matches its closed form within 1e-12 relative at levels
    0..150, level 0 included; a tail the closed form puts at zero is zero.
    At vacation (0.9, 0.1) the closed form's two roots coincide."""
    model = registry.Model(kind, payload)
    closed = registry.solve(model, 150)
    want = np.array(closed.pis)
    for route in registry.REGISTRY[registry.REGISTRY[kind].family].routes:
        series = registry.solve(model, 150, route)
        assert (series.first_level, series.last_level, series.x0) == (0, 150, None)
        assert np.all(np.abs(np.array(series.pis) - want) <= 1e-12 * want), route


def test_mnmn1_levels_past_the_first_zero_arrival_rate_are_never_reached():
    """Arrival rates (1, 0, 5) leave level 2 and above empty: the chain
    stops arriving at level 1, so the frozen load of 5 makes no route
    unstable, and every route gives the closed form's tails."""
    model = registry.Model("mnmn1", {"arrival": [1.0, 0.0, 5.0], "service": 1.0})
    assert mctails.cross_check(model, 20).passed
    want = np.array(registry.solve(model, 20).pis)
    assert want[2:].max() == 0.0
    for route in registry.route_names("mnmn1"):
        got = np.array(registry.solve(model, 20, route).pis)
        assert np.all(np.abs(got - want) <= 1e-15 * want), route


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tol_is_refused_before_the_stage(count_calls, tol):
    calls = count_calls(qbd, "solve_R")
    model = BUNDLED["mm1.json"]
    with pytest.raises(ValidationError, match="tol"):
        mctails.solve_tails(model.payload, 5, tol=tol)
    with pytest.raises(ValidationError, match="tol"):
        mctails.cross_check(model._replace(tol=tol), 5)
    assert calls == []


def test_cross_check_refuses_bad_level_counts(count_calls):
    calls = count_calls(qbd, "solve_R")
    with pytest.raises(ValidationError, match="levels"):
        mctails.cross_check(BUNDLED["mm1.json"], 2.5)
    assert calls == []


@pytest.mark.parametrize("name,depth", [
    ("mm1.json", 73), ("gim1.json", 147), ("mnmn1.json", 40), ("supermarket.json", None)])
def test_cross_check_sizes_its_oracle(name, depth):
    """The oracle starts where the routes' slowest tail decay at `levels`
    puts the truncated mass below eps of pi_levels (mm1 decays by 1/2 a
    level, gim1 by 3/4), or at twice the compared levels when that decay is
    unknown: the mnmn1 tails underflow to zero by level 20."""
    report = mctails.cross_check(BUNDLED[name], 20)
    assert report.passed
    assert report.oracle_levels == depth


@pytest.mark.parametrize("name", CHAINS)
def test_chain_models_compare_and_hash_by_identity(name):
    """Two chains read from one file are two models: equality is identity,
    and each one hashes, so a model can key a dict."""
    first, second = (load_model_file(str(ROOT / "modelfiles" / name)).payload
                     for _ in range(2))
    assert first == first and first != second
    assert {first: "first", second: "second"}[second] == "second"


def _arrays(value):
    """Every array in a value or a nest of tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", CHAINS)
def test_a_copied_chain_is_another_model_with_the_same_read_only_blocks(name):
    """A copy, a deep copy or an unpickled chain is a model of its own, by
    identity, that solves to the same series and refuses assignment as the
    original does; every block array it holds, in the block tuples of a
    skip-free chain and the (first block, stack) tables of a QBD too, is
    read-only, though a deep copy and an unpickled array are fresh ones."""
    chain = BUNDLED[name].payload
    field = "a_blocks" if isinstance(chain, skipfree.SkipFreeModel) else "up"
    slots = [slot for cls in type(chain).__mro__ for slot in getattr(cls, "__slots__", ())]
    for twin in (copy.copy(chain), copy.deepcopy(chain), pickle.loads(pickle.dumps(chain))):
        assert twin != chain and type(twin) is type(chain)
        assert mctails.solve_tails(twin, 20) == mctails.solve_tails(chain, 20)
        with pytest.raises(AttributeError):
            setattr(twin, field, getattr(chain, field))
        arrays = [array for slot in slots for array in _arrays(getattr(twin, slot))]
        assert len(arrays) >= 4
        assert not any(array.flags.writeable for array in arrays)


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
    assert table == {kind: registry.route_names(kind) for kind in registry.REGISTRY}


def test_readme_python_blocks_run(monkeypatch):
    """The README's Python examples run in order, sharing one namespace, from
    the repository root as a reader would run them."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) >= 4
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].passed


def test_every_read_field_is_a_field_of_its_kinds_stage():
    """Each kind lists, for routes of its own, fields of the stage it
    solves; a route that read a field not listed would receive None for it."""
    for model in BUNDLED.values():
        kind = registry.REGISTRY[model.kind]
        if kind.reads:
            stage = kind.stage(registry._with_tol(model))
            assert set(kind.reads) <= set(kind.routes), model.kind
            for fields in kind.reads.values():
                assert set(fields) <= set(stage._fields), model.kind
