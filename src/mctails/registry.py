"""The model kinds in one table: how each is read, solved and checked.

For every kind the table gives the model-file section that describes it and
the builder that turns that section into a model, the stage that solves
and checks, once, what every route of the kind reads, its tail routes, the
builder of its chain, which the banded truncation oracle solves as its
reference, or None when the kind has no finite-state counterpart, the
family of a named queue's chain, whose routes solve the queue too
(``route_names``), and the stage fields each route reads.  A route
receives the stage with only those fields, the rest None, and the stage
itself is let go before any route runs, so a QBD's ``lu`` pass, which
reads x0 alone, runs with R and Phi0 freed.  ``mctails.solve_tails``, the
command line and ``cross_check`` all read the table.  The solver
tolerance rides on the ``Model``: ``solve`` and ``cross_check`` turn a
``tol`` of None into DEFAULT_TOL, check any other value, and the stages
read it from there.  The stage and route functions call the solvers
through their modules (``qbd.tails_lu``), so a function replaced on its
module, by a tracer or a test, is the one that runs.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np

from . import ldqbd, models, oracle, qbd, skipfree
from .errors import ValidationError
from .series import TailSeries, _check_levels

DEFAULT_TOL = 1e-12
CHECK_TOL = 1e-6


class Kind(NamedTuple):
    """One row of the table.

    ``section`` is the model-file key holding the model and ``fields`` maps
    each key of that section to how its value is read: ``matrix``,
    ``matrices``, ``number``, ``integer`` or ``rate`` (a number or a list of
    numbers).  ``build`` is the constructor that takes those values in
    order, or None when the values themselves are the model.  ``stage`` is
    the function (model) that solves what every route of the kind reads at
    the model's tol, such as the boundary solution of a QBD, which carries
    its checked R; the routes trust it and check nothing again (None for
    the closed forms).  ``routes`` maps each route name to its function
    (model, stage, levels), the default first; ``chain`` is the function
    (payload, levels, tails=None) that builds the chain, exact to rounding
    at levels 0..levels, given the kind's own route tails there when
    ``cross_check`` has solved them, or None; ``family``, qbd or ldqbd, is its kind when its
    routes solve the model too, which takes the whole chain at any depth.
    ``reads`` maps a route name to the names of the stage fields the route
    reads, which are all the stage it receives holds (see _read); a route
    it does not name, or every route when it is None, receives the whole
    stage, such as an LDQBD's R_h.
    """

    section: str
    fields: dict
    build: Callable | None
    stage: Callable | None
    routes: dict
    chain: Callable | None
    family: str | None = None
    reads: dict | None = None


class Model(NamedTuple):
    """A model of a known kind: a chain, or a queue's parameters, with the
    solver tolerance ``tol``; None takes DEFAULT_TOL."""

    kind: str
    payload: object
    tol: float | None = None


# --- stages (model) and the routes (model, stage, levels) that read them

def _qbd_stage(model):
    chain = model.payload
    r = qbd.solve_R(chain.a0, chain.a1, chain.a2, tol=model.tol).matrix
    return qbd.boundary_solve(chain, r)


def _ldqbd_stage(model):
    return ldqbd.horizon_rate(model.payload, tol=model.tol)


def _gim1_stage(model):
    return skipfree.gim1_stationary(model.payload, tol=model.tol)


def _mg1_stage(model):
    return skipfree.mg1_stationary(model.payload, tol=model.tol)


def _qbd_mg(model, stage, levels):
    return qbd.tails_matrix_geometric(stage, levels)


def _qbd_ul(model, stage, levels):
    return qbd.tails_ul(stage, levels)


def _qbd_lu(model, stage, levels):
    return qbd.tails_lu(model.payload, stage.x0, levels)


def _ldqbd_product(model, stage, levels):
    return ldqbd.stationary_product(model.payload, stage, levels)


def _ldqbd_lu(model, stage, levels):
    return ldqbd.tails_lu_ld(model.payload, stage, levels)


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


def _supermarket_closed(model, stage, levels):
    return models.supermarket_tails(model.payload["rho"], model.payload["d"], levels)


def _read(stage, reads):
    """The stage as a route that reads the fields `reads` receives it: those
    fields and None for every other one, or the whole stage where reads is
    None.  The fields go to _make as a list: a tuple built from a generator
    is shrunk to its length, and every call would leave one more shrunk
    tuple in the interpreter's free list, which tracemalloc counts."""
    if reads is None:
        return stage
    return stage._make([field if name in reads else None
                        for name, field in zip(stage._fields, stage)])


# --- chain builders: (payload, levels) to the chain of a model ----------

def _payload(payload, *_):
    return payload


def _retrial_chain(params, levels, tails=None):
    """The retrial chain frozen at the level N >= `levels` where its product
    route stops: past N every row weighs less than eps of the tails, read
    off the product route's tails when `tails` holds them."""
    product = (tails or {}).get("product") or models.retrial_tails(params, levels)
    return models.retrial_chain(params, product.truncation_report["terms"])


_SKIP_FREE = {"A": "matrices", "B": "matrices"}
# what the mg and ul routes read of a BoundarySolution, a QBD's or a GI/M/1-type chain's
_BOUNDARY_READS = {"mg": ("x0", "x1", "r"), "ul": ("x0", "x0_b0", "r", "phi0")}

REGISTRY = {
    "qbd": Kind("blocks", dict.fromkeys(("B1", "B0", "B2", "A0", "A1", "A2"), "matrix"),
                qbd.QbdModel, _qbd_stage,
                {"mg": _qbd_mg, "ul": _qbd_ul, "lu": _qbd_lu}, _payload,
                reads={**_BOUNDARY_READS, "lu": ("x0",)}),
    "ldqbd": Kind("blocks", dict.fromkeys(("A0", "A1", "A2"), "matrices"),
                  ldqbd.LdQbdModel, _ldqbd_stage,
                  {"product": _ldqbd_product, "lu": _ldqbd_lu}, _payload),
    "gim1": Kind("blocks", _SKIP_FREE, partial(skipfree.SkipFreeModel, "GIM1"),
                 _gim1_stage, {"mg": _qbd_mg, "ul": _qbd_ul}, _payload,
                 reads=_BOUNDARY_READS),
    "mg1": Kind("blocks", _SKIP_FREE, partial(skipfree.SkipFreeModel, "MG1"),
                _mg1_stage, {"iterative": _mg1_iterative, "ul": _mg1_ul}, _payload,
                reads={"iterative": ("visit_rows", "boundary_visits", "visits"),
                       "ul": ("passage", "local_kernel", "visits", "x0")}),
    "retrial": Kind("params", dict.fromkeys(("lam", "mu", "theta"), "number"),
                    models.RetrialParams, None,
                    {"product": _retrial_product}, _retrial_chain),
    "mnmn1": Kind("params", dict.fromkeys(("arrival", "service"), "rate"),
                  None, None, {"closed": _mnmn1_closed},
                  lambda rates, *_: models.mnmn1_chain(rates["arrival"], rates["service"]),
                  "ldqbd"),
    "vacation": Kind("params", dict.fromkeys(("lam", "theta"), "number"),
                     models.VacationParams, None, {"closed": _vacation_closed},
                     lambda params, *_: models.vacation_qbd(params), "qbd"),
    "repairable": Kind("params", dict.fromkeys(("lam", "mu", "alpha", "beta"), "number"),
                       models.RepairableParams, None, {"iterative": _repairable_iterative},
                       lambda params, *_: models.repairable_qbd(params), "qbd"),
    "supermarket": Kind("params", {"rho": "number", "d": "integer"},
                        None, None, {"closed": _supermarket_closed}, None),
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
        return model._replace(tol=DEFAULT_TOL)
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be a positive finite number, got {tol!r}")
    return model


def route_names(kind: str) -> list:
    """The routes of `kind`, the default first: its own, then its chain family's."""
    spec = REGISTRY[kind]
    return [*spec.routes, *(REGISTRY[spec.family].routes if spec.family else ())]


def _at_level_0(tails: TailSeries, levels: int) -> TailSeries:
    """A family route's tails, run to at least level 1, at a named queue's
    levels 0..`levels`: boundary state j is phase j, so pi_0 = pi_1 + (x0, 0, ...)."""
    head = tails.pis[0].copy()
    head[:len(tails.x0)] += tails.x0
    return TailSeries([head, *tails.pis[:levels]], None, tails.method, tails.truncation_report, 0)


def _tails(model: Model, names: list, levels: int, chain=None) -> dict:
    """The tails of `model` by each named route: its own read its stage, the
    rest `chain` (None builds it) at its family's stage, solved once.  Each
    own route receives only the stage fields it reads, and the stage is let
    go before the first runs, so no route runs beside a field it does not read."""
    kind = REGISTRY[model.kind]
    stage = kind.stage(model) if kind.stage else None
    reads = {}
    for name in names:
        if name in kind.routes:
            reads[name] = _read(stage, kind.reads.get(name) if kind.reads else None)
    del stage
    tails = {name: kind.routes[name](model, read, levels) for name, read in reads.items()}
    rest = [name for name in names if name not in kind.routes]
    if rest:
        chain = kind.chain(model.payload, levels) if chain is None else chain
        family = Model(kind.family, chain, model.tol)
        for name, series in _tails(family, rest, max(levels, 1)).items():
            tails[name] = _at_level_0(series, levels)
    return tails


def solve(model: Model, levels: int, method: str | None = None) -> TailSeries:
    """Tails of `model` by the named route of ``route_names``, at
    ``model.tol``; None takes the default.  A chain's tails start at level
    1, a named queue's at 0.  The arguments are checked before any stage."""
    _check_levels(levels, 0)
    model = _with_tol(model)
    names = route_names(model.kind)
    name = names[0] if method is None else method
    if name not in names:
        raise ValidationError(
            f"method {name!r} not available for kind {model.kind!r} "
            f"(choices: {', '.join(names)})"
        )
    return _tails(model, [name], levels)[name]


class Comparison(NamedTuple):
    """Largest inf-norm gap between two tail series over the levels both
    cover, and whether it is within the check tolerance."""

    left: str
    right: str
    first: int
    last: int
    gap: float
    ok: bool


class CheckReport(NamedTuple):
    """What ``cross_check`` found: the comparisons, the oracle's depth and its mass past it."""

    kind: str
    tolerance: float
    comparisons: tuple
    oracle_levels: int | None = None
    oracle_mass: float | None = None

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)


def _compare(left: str, right: str, a: tuple, b: tuple) -> Comparison:
    """Compare two series, each given as (first level, its tail vectors
    stacked), over the levels both cover."""
    (first_a, rows_a), (first_b, rows_b) = a, b
    lo = max(first_a, first_b)
    hi = min(first_a + len(rows_a), first_b + len(rows_b)) - 1
    gap = float(np.abs(rows_a[lo - first_a:hi + 1 - first_a]
                       - rows_b[lo - first_b:hi + 1 - first_b]).max())
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
    """Solve `model` by every route of ``route_names`` and, where the kind
    has a chain, by the banded oracle; then compare every pair over levels
    up to `levels`.

    Each stage is solved once, at ``model.tol`` resolved as ``solve`` does,
    and every route reads it; the chain is built once, at `levels` and from
    the kind's own route tails, for the family's routes and the oracle,
    which picks its own depth (``oracle.sized_reference``), starting its
    search where the slowest route's tail decay at `levels` predicts.  The
    supermarket model has no finite chain, so its closed form is checked
    against its balance equations instead.  A gap below CHECK_TOL passes.
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
    series = _tails(model, list(kind.routes), levels)
    chain = kind.chain(model.payload, levels, series)
    if kind.family:
        series.update(_tails(model, route_names(kind.family), levels, chain))
    series["oracle"] = oracle.sized_reference(chain, levels, model.tol,
                                              _decay(series.values(), levels))
    names = list(series)
    # each series is stacked once and every pair slices the stacks
    stacks = {name: (s.first_level, s.rows(s.first_level, s.last_level))
              for name, s in series.items()}
    comparisons = [_compare(left, right, stacks[left], stacks[right])
                   for i, left in enumerate(names) for right in names[i + 1:]]
    sized = series["oracle"].truncation_report
    return CheckReport(model.kind, CHECK_TOL, tuple(comparisons),
                       sized["levels"], sized["mass_past"])
