"""Stationary tail probabilities for structured Markov chains.

The package computes tail vectors pi_k (the componentwise mass of all states
at level k or above) for block-structured chains: level-independent and
level-dependent quasi-birth-death generators and the two skip-free families
of stochastic block matrices.  Several independent solution routes exist for
each family so that results can be cross-checked, and a banded truncation
solver acts as a slow reference for all of them.
"""

from . import ldqbd, matkernel, models, oracle, qbd, registry, skipfree
from .errors import (
    NearCritical,
    NoConvergence,
    Reducible,
    SingularMatrix,
    SizeLimit,
    SolverError,
    StepUnstable,
    Unstable,
    ValidationError,
)
from .ldqbd import LdQbdModel
from .models import (
    MeanFieldResult,
    RepairableParams,
    RetrialParams,
    VacationParams,
    meanfield_ode,
    mn_mn_1_tails,
    repairable_tails,
    retrial_tails,
    supermarket_tails,
    vacation_tails,
)
from .oracle import truncate_and_solve
from .qbd import QbdModel, boundary_solve, solve_G, solve_R
from .registry import CheckReport, cross_check
from .series import TailSeries
from .skipfree import SkipFreeModel

def solve_tails(model, levels: int, method: str | None = None,
                tol: float = registry.DEFAULT_TOL) -> TailSeries:
    """Solve a chain model by a route of its kind (see ``registry.REGISTRY``)
    at the solver tolerance ``tol``.

    ``method`` names the route; ``None`` takes the kind's default.
    """
    kind = registry.kind_of(model)
    return registry.solve(registry.Model(kind, model, tol), levels, method)
