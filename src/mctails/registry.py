"""The model kinds in one table: how each is read, solved and checked.

For every kind the table gives the model-file section that describes it and
the builder that turns that section into a model, the stage that solves
and checks, once, what every route of the kind reads, its tail routes (the
first is the default), and the builder of the chain that the banded
truncation oracle solves as its reference, or None when the kind has no
finite-state counterpart.  ``mctails.solve_tails``, the command line and
``cross_check`` all read it.  The solver tolerance rides on the ``Model``:
``solve`` and ``cross_check`` turn a ``tol`` of None into DEFAULT_TOL,
check any other value, and the stages read it from there.  The stage and
route functions call the solvers through their modules
(``qbd.tails_lu``), so a function replaced on its module, by a tracer or a
test, is the one that runs.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import ldqbd, models, oracle, qbd, skipfree
from .errors import ValidationError
from .series import TailSeries, _check_levels

DEFAULT_TOL = 1e-12
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Kind:
    """One row of the table.

    ``section`` is the model-file key holding the model and ``fields`` maps
    each key of that section to how its value is read: ``matrix``,
    ``matrices``, ``number``, ``integer`` or ``rate`` (a number or a list of
    numbers).  ``build`` is the constructor that takes those values in
    order, or None when the values themselves are the model.  ``stage`` is
    the function (model) that solves what every route of the kind reads at
    the model's tol, such as the boundary solution of a QBD, which carries
    its checked R; the routes trust it and check nothing again.  Kinds whose
    routes share nothing, the closed forms and the repairable queue, have
    no stage.  ``routes`` maps each route name to its function
    (model, stage, levels), the default first; ``reference`` is the function
    (model, depth) that builds the oracle's chain, or None.
    """

    section: str
    fields: dict
    build: Callable | None
    stage: Callable
    routes: dict
    reference: Callable | None


@dataclass(frozen=True)
class Model:
    """A model of a known kind: a chain, or a queue's parameters, with the
    solver tolerance ``tol``; None takes DEFAULT_TOL."""

    kind: str
    payload: object
    tol: float | None = None


# --- stages (model) and the routes (model, stage, levels) that read them

def _no_stage(model):
    return None


def _solve_qbd(chain, tol):
    r = qbd.solve_R(chain.a0, chain.a1, chain.a2, tol=tol).matrix
    return qbd.boundary_solve(chain, r)


def _qbd_stage(model):
    return _solve_qbd(model.payload, model.tol)


def _ldqbd_stage(model):
    return ldqbd.solve_rate_sequence(model.payload, tol=model.tol)


def _gim1_stage(model):
    return skipfree.gim1_stationary(model.payload, tol=model.tol)


def _mg1_stage(model):
    return skipfree.mg1_stationary(model.payload, tol=model.tol)


def _qbd_mg(model, stage, levels):
    return qbd.tails_matrix_geometric(stage, levels)


def _qbd_ul(model, stage, levels):
    return qbd.tails_ul(model.payload.b0, stage, levels)


def _qbd_lu(model, stage, levels):
    return qbd.tails_lu(model.payload, stage.x0, levels)


def _ldqbd_product(model, stage, levels):
    return ldqbd.stationary_product(model.payload, stage, levels)


def _ldqbd_lu(model, stage, levels):
    return ldqbd.tails_lu_ld(model.payload, stage, levels)


def _gim1_ul(model, stage, levels):
    return qbd.tails_ul(model.payload.b_blocks[0], stage, levels)


def _mg1_iterative(model, stage, levels):
    return skipfree.mg1_tails(model.payload, stage, levels)


def _mg1_ul(model, stage, levels):
    return skipfree.mg1_ul_tails(model.payload, stage, levels)


def _retrial_product(model, stage, levels):
    return models.retrial_tails(model.payload, levels)


def _mnmn1_closed(model, stage, levels):
    return models.mn_mn_1_tails(model.payload["arrival"], model.payload["service"], levels)


def _vacation_closed(model, stage, levels):
    return models.vacation_tails(model.payload, levels)


def _repairable_iterative(model, stage, levels):
    return models.repairable_tails(model.payload, levels)


def _repairable_mg(model, stage, levels):
    boundary = _solve_qbd(models.repairable_qbd(model.payload), model.tol)
    return models.repairable_mg_tails(boundary, levels)


def _supermarket_closed(model, stage, levels):
    return models.supermarket_tails(model.payload["rho"], model.payload["d"], levels)


# --- reference chains: (model, depth) to a chain for the oracle ----------

def _chain(model, depth):
    return model.payload


def _retrial_chain(model, depth):
    return models.retrial_chain(model.payload, depth + 2)


def _mnmn1_chain(model, depth):
    return models.mnmn1_chain(model.payload["arrival"], model.payload["service"])


def _vacation_chain(model, depth):
    return models.vacation_qbd(model.payload)


def _repairable_chain(model, depth):
    return models.repairable_qbd(model.payload)


_SKIP_FREE = {"A": "matrices", "B": "matrices"}

REGISTRY = {
    "qbd": Kind("blocks", dict.fromkeys(("B1", "B0", "B2", "A0", "A1", "A2"), "matrix"),
                qbd.QbdModel, _qbd_stage,
                {"mg": _qbd_mg, "ul": _qbd_ul, "lu": _qbd_lu}, _chain),
    "ldqbd": Kind("blocks", dict.fromkeys(("A0", "A1", "A2"), "matrices"),
                  ldqbd.LdQbdModel, _ldqbd_stage,
                  {"product": _ldqbd_product, "lu": _ldqbd_lu}, _chain),
    "gim1": Kind("blocks", _SKIP_FREE, partial(skipfree.SkipFreeModel, "GIM1"),
                 _gim1_stage, {"mg": _qbd_mg, "ul": _gim1_ul}, _chain),
    "mg1": Kind("blocks", _SKIP_FREE, partial(skipfree.SkipFreeModel, "MG1"),
                _mg1_stage, {"iterative": _mg1_iterative, "ul": _mg1_ul}, _chain),
    "retrial": Kind("params", dict.fromkeys(("lam", "mu", "theta"), "number"),
                    models.RetrialParams, _no_stage,
                    {"product": _retrial_product}, _retrial_chain),
    "mnmn1": Kind("params", dict.fromkeys(("arrival", "service"), "rate"),
                  None, _no_stage, {"closed": _mnmn1_closed}, _mnmn1_chain),
    "vacation": Kind("params", dict.fromkeys(("lam", "theta"), "number"),
                     models.VacationParams, _no_stage,
                     {"closed": _vacation_closed}, _vacation_chain),
    "repairable": Kind("params", dict.fromkeys(("lam", "mu", "alpha", "beta"), "number"),
                       models.RepairableParams, _no_stage,
                       {"iterative": _repairable_iterative, "mg": _repairable_mg},
                       _repairable_chain),
    "supermarket": Kind("params", {"rho": "number", "d": "integer"},
                        None, _no_stage, {"closed": _supermarket_closed}, None),
}


# --- entry points ---------------------------------------------------------

def kind_of(chain) -> str:
    """The kind of a chain model: qbd, ldqbd, gim1 or mg1."""
    if isinstance(chain, qbd.QbdModel):
        return "qbd"
    if isinstance(chain, ldqbd.LdQbdModel):
        return "ldqbd"
    if isinstance(chain, skipfree.SkipFreeModel):
        return chain.kind.lower()
    raise ValidationError(f"no tail solver for {type(chain).__name__}")


def build(kind: str, values: dict):
    """The model of `kind` made from the values of its model-file section,
    given in the table's field order."""
    builder = REGISTRY[kind].build
    return values if builder is None else builder(*values.values())


def _with_tol(model: Model) -> Model:
    """`model` with its tol resolved: None becomes DEFAULT_TOL, and any other
    value must be a positive finite number."""
    tol = model.tol
    if tol is None:
        return replace(model, tol=DEFAULT_TOL)
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be a positive finite number, got {tol!r}")
    return model


def solve(model: Model, levels: int, method: str | None = None) -> TailSeries:
    """Tails of `model` at levels 1..`levels` by the named route of its kind,
    at ``model.tol``; None takes the kind's default route.  The arguments
    are checked before the kind's stage is solved."""
    _check_levels(levels, 0)
    model = _with_tol(model)
    kind = REGISTRY[model.kind]
    name = next(iter(kind.routes)) if method is None else method
    if name not in kind.routes:
        raise ValidationError(
            f"method {name!r} not available for kind {model.kind!r} "
            f"(choices: {', '.join(kind.routes)})"
        )
    return kind.routes[name](model, kind.stage(model), levels)


@dataclass(frozen=True)
class Comparison:
    """Largest inf-norm gap between two tail series over the levels both
    cover, and whether it is within the check tolerance."""

    left: str
    right: str
    first: int
    last: int
    gap: float
    ok: bool


@dataclass(frozen=True)
class CheckReport:
    """What ``cross_check`` found: the comparisons, the oracle's depth and its mass past it."""

    kind: str
    tolerance: float
    comparisons: tuple
    oracle_levels: int | None = None
    oracle_mass: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)


def _rows(series: TailSeries, lo: int, hi: int) -> np.ndarray:
    """The tail vectors of levels lo..hi of `series`, stacked."""
    return np.asarray(series.pis[lo - series.first_level:hi - series.first_level + 1])


def _compare(left: str, right: str, a: TailSeries, b: TailSeries) -> Comparison:
    lo = max(a.first_level, b.first_level)
    hi = min(a.last_level, b.last_level)
    gap = float(np.abs(_rows(a, lo, hi) - _rows(b, lo, hi)).max())
    return Comparison(left, right, lo, hi, gap, gap < CHECK_TOL)


def _decay(series, levels: int) -> float:
    """The slowest tail decay pi_levels e / pi_{levels-1} e among `series`:
    NaN below two levels, or when a tail before it has no mass."""
    if levels < 2:
        return math.nan
    ratios = []
    for tails in series:
        last, before = float(tails.level(levels).sum()), float(tails.level(levels - 1).sum())
        ratios.append(last / before if before > 0 else math.nan)
    return float(np.max(ratios))


def cross_check(model: Model, levels: int) -> CheckReport:
    """Solve `model` by every route of its kind and, where the kind has a
    reference chain, by the banded oracle; then compare every pair over
    levels up to `levels`.

    The kind's stage is solved once, at ``model.tol`` resolved as ``solve``
    does, and every route reads it; the oracle picks its own depth
    (``oracle.sized_reference``), starting its search where the slowest
    route's tail decay at `levels` predicts.  The supermarket model has no
    finite chain, so its closed form is checked against its balance
    equations instead.  A gap below CHECK_TOL passes.
    """
    kind = REGISTRY[model.kind]
    _check_levels(levels, 1)
    model = _with_tol(model)
    if model.kind == "supermarket":
        rho, d = model.payload["rho"], model.payload["d"]
        gap = max(models.supermarket_balance_residual(rho, d, k)
                  for k in range(1, levels + 1))
        comparisons = [Comparison("closed form", "balance equations", 1, levels,
                                  gap, gap < CHECK_TOL)]
        return CheckReport(model.kind, CHECK_TOL, tuple(comparisons))
    stage = kind.stage(model)
    series = {name: route(model, stage, levels) for name, route in kind.routes.items()}
    series["oracle"] = oracle.sized_reference(partial(kind.reference, model), levels,
                                              model.tol, _decay(series.values(), levels))
    names = list(series)
    comparisons = [_compare(left, right, series[left], series[right])
                   for i, left in enumerate(names) for right in names[i + 1:]]
    sized = series["oracle"].truncation_report
    return CheckReport(model.kind, CHECK_TOL, tuple(comparisons),
                       sized["levels"], sized["mass_past"])
