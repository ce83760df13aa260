"""Cross-check solver that truncates a chain and solves it as a scalar chain.

Every structured solver in this package exploits the block pattern of its
model.  This module deliberately does not: it takes the generator or kernel
truncated at a level, with the last level keeping the flow past it so
probability is conserved, from the model's own module
(ldqbd.truncated_generator, skipfree.truncated_kernel), and solves the
finite system state by state with GTH state reduction
(matkernel.stationary_row).  Agreement between the two is then
evidence for both, since they share no intermediate quantities.  The
reduction has no subtractions, so the oracle's tails keep their relative
accuracy deep into the tail, where they are far below machine epsilon; it
works inside the band of the assembled matrix, so a block-tridiagonal chain
costs time linear in its state count.  Assembly stays dense, hence
MAX_STATES.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeLimit
from .ldqbd import LdQbdModel, truncated_generator
from .matkernel import stationary_row
from .qbd import QbdModel
from .series import TailSeries, _check_levels
from .skipfree import SkipFreeModel, truncated_kernel

MAX_STATES = 5000


def truncate_and_solve(model, levels: int) -> TailSeries:
    """Stationary tails of the chain truncated at `levels`.

    The last level absorbs its own upward flow (block chains) or the summed
    overflow of each row (M/G/1 structures), keeping the finite system
    conservative.  The report's error_estimate is the mass the solver parked
    on the truncation level, which bounds how much the tails can be off; it
    shrinks geometrically as `levels` grows for any stable chain.
    """
    _check_levels(levels, 1)
    if isinstance(model, QbdModel):
        model = LdQbdModel.from_qbd(model, 2)
    if isinstance(model, LdQbdModel):
        truncate, continuous = truncated_generator, True
    elif isinstance(model, SkipFreeModel):
        truncate, continuous = truncated_kernel, False
    else:
        raise TypeError(f"no truncation rule for {type(model).__name__}")
    m0, m = model.m0, model.m
    if m0 + levels * m > MAX_STATES:
        raise SizeLimit(
            f"{m0 + levels * m} states exceeds the dense limit {MAX_STATES}"
        )
    x = stationary_row(truncate(model, levels), continuous=continuous)
    x0 = x[:m0]
    rows = [x[m0 + (k - 1) * m : m0 + k * m] for k in range(1, levels + 1)]
    pis = [np.zeros(m) for _ in range(levels)]
    suffix = np.zeros(m)
    for k in range(levels, 0, -1):
        suffix = suffix + rows[k - 1]
        pis[k - 1] = suffix
    report = {"levels": levels, "error_estimate": float(rows[-1].sum())}
    return TailSeries(pis, x0, method="truncated-oracle", truncation_report=report)


def sized_reference(build, levels: int, tol: float) -> TailSeries:
    """Oracle tails of ``build(depth)`` at the first depth of 2 `levels`,
    4 `levels`, ... up to MAX_STATES (else SizeLimit) whose mass past it,
    x_L e / (1 - q) with q = x_L e / x_{L-1} e (infinite when q >= 1), is
    at most `tol` times pi_levels e; the report adds it as ``mass_past``."""
    chain = build(1)  # for its block sizes, which do not change with the depth
    deepest = (MAX_STATES - chain.m0) // chain.m
    depth, mass = min(2 * levels, deepest), np.inf
    while depth > levels:
        series = truncate_and_solve(build(depth), depth)
        last, before = series.pis[-1].sum(), series.pis[-2].sum() - series.pis[-1].sum()
        mass = float(last / (1 - last / before)) if last < before else np.inf if last else 0.0
        if mass <= tol * float(series.level(levels).sum()):
            series.truncation_report["mass_past"] = mass
            return series
        if depth == deepest:
            break
        depth = min(2 * depth, deepest)
    raise SizeLimit(f"{chain.m0 + deepest * chain.m} states (dense limit {MAX_STATES}) leave a "
                    f"mass of {mass:.1e} past level {deepest}, over tol of pi_{levels}")
