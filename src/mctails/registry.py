"""The model kinds in one table: how each is read, solved and checked.

For every kind the table gives the model-file section that describes it and
the builder that turns that section into a model, its tail routes (the first
is the default), and the builder of the chain that the dense truncation
oracle solves as its reference, or None when the kind has no finite-state
counterpart.  ``mctails.solve_tails``, the command line and ``cross_check``
all read it.

The table names its functions instead of holding them, and a name is looked
up in this module only when it is called.  The route functions call the
solvers through their modules (``qbd.tails_lu``), so a function replaced on
its module, by a tracer or a test, is the one that runs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from . import ldqbd, models, oracle, qbd, skipfree
from .errors import ValidationError
from .matkernel import inf_norm
from .series import TailSeries

DEFAULT_TOL = 1e-12
CHECK_TOL = 1e-6


@dataclass(frozen=True)
class Kind:
    """One row of the table.

    ``section`` is the model-file key holding the model and ``fields`` maps
    each key of that section to how its value is read: ``matrix``,
    ``matrices``, ``number``, ``integer`` or ``rate`` (a number or a list of
    numbers).  ``build`` names the constructor that takes those values in
    order, or is None when the values themselves are the model.  ``routes``
    maps each route name to its function (model, levels, tol), the default
    first; ``reference`` names the function (model, oracle levels) that
    builds the oracle's chain, or is None.  A name without a module is one
    of this module's.
    """

    section: str
    fields: dict
    build: str | None
    routes: dict
    reference: str | None


@dataclass(frozen=True)
class Model:
    """A model of a known kind: a chain, or a queue's parameters.

    ``horizon`` is the level-dependent expansion depth of a retrial queue
    and ``tol`` the solver tolerance; both are None when not given.
    """

    kind: str
    payload: object
    horizon: int | None = None
    tol: float | None = None


_SKIP_FREE = {"A": "matrices", "B": "matrices"}

REGISTRY = {
    "qbd": Kind("blocks", dict.fromkeys(("B1", "B0", "B2", "A0", "A1", "A2"), "matrix"),
                "qbd.QbdModel", {"mg": "_qbd_mg", "ul": "_qbd_ul", "lu": "_qbd_lu"},
                "_chain"),
    "ldqbd": Kind("blocks", dict.fromkeys(("A0", "A1", "A2"), "matrices"),
                  "ldqbd.LdQbdModel", {"product": "_ldqbd_product", "lu": "_ldqbd_lu"},
                  "_chain"),
    "gim1": Kind("blocks", _SKIP_FREE, "_gim1",
                 {"mg": "_gim1_mg", "ul": "_gim1_ul"}, "_chain"),
    "mg1": Kind("blocks", _SKIP_FREE, "_mg1",
                {"iterative": "_mg1_iterative", "ul": "_mg1_ul"}, "_chain"),
    "retrial": Kind("params", dict.fromkeys(("lam", "mu", "theta"), "number"),
                    "models.RetrialParams", {"product": "_retrial_product"},
                    "_retrial_chain"),
    "mnmn1": Kind("params", dict.fromkeys(("arrival", "service"), "rate"),
                  None, {"closed": "_mnmn1_closed"}, "_mnmn1_chain"),
    "vacation": Kind("params", dict.fromkeys(("lam", "theta"), "number"),
                     "models.VacationParams", {"closed": "_vacation_closed"},
                     "_vacation_chain"),
    "repairable": Kind("params", dict.fromkeys(("lam", "mu", "alpha", "beta"), "number"),
                       "models.RepairableParams",
                       {"iterative": "_repairable_iterative", "mg": "_repairable_mg"},
                       "_repairable_chain"),
    "supermarket": Kind("params", {"rho": "number", "d": "integer"},
                        None, {"closed": "_supermarket_closed"}, None),
}


def _named(name: str):
    """The function a table entry names, looked up now."""
    module, _, attr = name.rpartition(".")
    return getattr(globals()[module], attr) if module else globals()[attr]


def _gim1(a_blocks, b_blocks):
    return skipfree.SkipFreeModel("GIM1", a_blocks, b_blocks)


def _mg1(a_blocks, b_blocks):
    return skipfree.SkipFreeModel("MG1", a_blocks, b_blocks)


# --- routes: (model, levels, tol) to a TailSeries -------------------------

def _qbd_boundary(chain, tol):
    r = qbd.solve_R(chain.a0, chain.a1, chain.a2, tol=tol).matrix
    return r, qbd.boundary_solve(chain, r)


def _qbd_mg(model, levels, tol):
    r, boundary = _qbd_boundary(model.payload, tol)
    return qbd.tails_matrix_geometric(boundary.x1, r, levels, x0=boundary.x0)


def _qbd_ul(model, levels, tol):
    r, boundary = _qbd_boundary(model.payload, tol)
    return qbd.tails_ul(model.payload, r, boundary, levels)


def _qbd_lu(model, levels, tol):
    _, boundary = _qbd_boundary(model.payload, tol)
    return qbd.tails_lu(model.payload, boundary.x0, levels)


def _ldqbd_product(model, levels, tol):
    rates = ldqbd.solve_rate_sequence(model.payload, tol=tol)
    return ldqbd.stationary_product(model.payload, rates, levels)


def _ldqbd_lu(model, levels, tol):
    rates = ldqbd.solve_rate_sequence(model.payload, tol=tol)
    return ldqbd.tails_lu_ld(model.payload, rates, levels)


def _gim1_mg(model, levels, tol):
    return skipfree.gim1_tails(model.payload, levels, tol=tol)


def _gim1_ul(model, levels, tol):
    return skipfree.gim1_ul_tails(model.payload, levels, tol=tol)


def _mg1_iterative(model, levels, tol):
    return skipfree.mg1_tails(model.payload, levels, tol=tol)


def _mg1_ul(model, levels, tol):
    return skipfree.mg1_ul_tails(model.payload, levels, tol=tol)


def _retrial_product(model, levels, tol):
    return models.retrial_tails(model.payload, levels, horizon=model.horizon or 200)


def _mnmn1_closed(model, levels, tol):
    return models.mn_mn_1_tails(model.payload["arrival"], model.payload["service"], levels)


def _vacation_closed(model, levels, tol):
    return models.vacation_tails(model.payload, levels)


def _repairable_iterative(model, levels, tol):
    return models.repairable_tails(model.payload, levels)


def _repairable_mg(model, levels, tol):
    return models.repairable_mg_tails(model.payload, levels)


def _supermarket_closed(model, levels, tol):
    return models.supermarket_tails(model.payload["rho"], model.payload["d"], levels)


# --- reference chains: (model, oracle levels) to a chain for the oracle ----

def _chain(model, oracle_levels):
    return model.payload


def _retrial_chain(model, oracle_levels):
    return models.retrial_chain(model.payload, oracle_levels + 2)


def _mnmn1_chain(model, oracle_levels):
    return models.mnmn1_chain(model.payload["arrival"], model.payload["service"])


def _vacation_chain(model, oracle_levels):
    return models.vacation_qbd(model.payload)


def _repairable_chain(model, oracle_levels):
    return models.repairable_qbd(model.payload)


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
    name = REGISTRY[kind].build
    return values if name is None else _named(name)(*values.values())


def solve(model: Model, levels: int, method: str | None = None,
          tol: float = DEFAULT_TOL) -> TailSeries:
    """Tails of `model` at levels 1..`levels` by the named route of its kind;
    None takes the kind's default route."""
    if not isinstance(levels, numbers.Integral) or levels < 0:
        raise ValidationError(f"levels must be a nonnegative integer, got {levels!r}")
    routes = REGISTRY[model.kind].routes
    name = next(iter(routes)) if method is None else method
    if name not in routes:
        raise ValidationError(
            f"method {name!r} not available for kind {model.kind!r} "
            f"(choices: {', '.join(routes)})"
        )
    return _named(routes[name])(model, levels, tol)


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
    """What ``cross_check`` found: one comparison per pair of solutions."""

    kind: str
    tolerance: float
    comparisons: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.comparisons)


def _compare(left: str, right: str, a: TailSeries, b: TailSeries) -> Comparison:
    lo = max(a.first_level, b.first_level)
    hi = min(a.last_level, b.last_level)
    gap = max(inf_norm(a.level(k) - b.level(k)) for k in range(lo, hi + 1))
    return Comparison(left, right, lo, hi, gap, gap < CHECK_TOL)


def cross_check(model: Model, levels: int, oracle_levels: int) -> CheckReport:
    """Solve `model` by every route of its kind and, where the kind has a
    reference chain, by the dense oracle truncated at `oracle_levels`; then
    compare every pair over levels up to `levels`.

    Routes run at ``model.tol``, or at DEFAULT_TOL when that is None.  The
    supermarket model has no finite chain, so its closed form is checked
    against its balance equations instead.  A gap below CHECK_TOL passes.
    """
    kind = REGISTRY[model.kind]
    if levels < 1:
        raise ValidationError(f"levels must be at least 1, got {levels}")
    if kind.reference is not None and oracle_levels < levels:
        raise ValidationError(
            f"oracle levels ({oracle_levels}) must reach levels ({levels}): "
            "the reference has to cover every compared level"
        )
    if model.kind == "supermarket":
        rho, d = model.payload["rho"], model.payload["d"]
        gap = max(models.supermarket_balance_residual(rho, d, k)
                  for k in range(1, levels + 1))
        comparisons = [Comparison("closed form", "balance equations", 1, levels,
                                  gap, gap < CHECK_TOL)]
    else:
        tol = model.tol or DEFAULT_TOL
        series = {name: solve(model, levels, name, tol) for name in kind.routes}
        chain = _named(kind.reference)(model, oracle_levels)
        series["oracle"] = oracle.truncate_and_solve(chain, oracle_levels)
        names = list(series)
        comparisons = [_compare(left, right, series[left], series[right])
                       for i, left in enumerate(names) for right in names[i + 1:]]
    return CheckReport(model.kind, CHECK_TOL, tuple(comparisons))
