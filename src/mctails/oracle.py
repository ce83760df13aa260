"""Cross-check solver that truncates a chain and solves it as a scalar chain.

Every structured solver in this package exploits the block pattern of its
model.  This module deliberately does not: it takes the generator or kernel
truncated at a level, with the last level keeping the flow past it so
probability is conserved, from the model's own module
(ldqbd.truncated_generator, skipfree.truncated_kernel), and solves the
finite system state by state with GTH state reduction
(matkernel.stationary_row).  Agreement between the two is then
evidence for both, since no intermediate quantity of the routes reaches
the oracle's tails: the routes' tail decay only picks the depth at which
sized_reference starts its search, and whether a depth is deep enough is
decided from the oracle's own solve.  The level-dependent routes fold
with the same solver but never the same matrix: they fold a window
censored through R_h, and the oracle a truncation whose last level keeps
its own upward flow.  The product route folds in the oracle's direction,
from the deepest state down, on its different matrix, so the oracle checks
what it adds to the fold, R_h and the closed remainder; the lu route folds
forward, from state 0, so the oracle checks the fold itself from the other
end.  The reduction has no subtractions,
so the oracle's tails keep their relative accuracy deep into the tail,
where they are far below machine epsilon; it works inside the band of the
assembled matrix.  Both truncations come in band storage
(matkernel.Band), n x (p + q + 1) cells for lower and upper reach p and q,
so a block-tridiagonal chain costs memory and time linear in its state
count.  A level-independent QBD is a level-dependent one (qbd.QbdModel
subclasses LdQbdModel), so truncated_generator lays out both from the
blocks their construction checked.  MAX_CELLS caps the band, and a
truncation past it raises SizeLimit before any assembly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SizeLimit
from .ldqbd import LdQbdModel, truncated_generator
from .matkernel import stationary_row
from .series import TailSeries, _check_levels, _suffix_sums
from .skipfree import SkipFreeModel, truncated_kernel

# Band cells the oracle may assemble: one band of 32 MB.
MAX_CELLS = 4_000_000


def _truncation(model) -> tuple:
    """The truncation rule of a chain, whether that yields a generator, and
    the band width of the result."""
    if isinstance(model, LdQbdModel):
        truncate, continuous = truncated_generator, True
    elif isinstance(model, SkipFreeModel):
        truncate, continuous = truncated_kernel, False
    else:
        raise TypeError(f"no truncation rule for {type(model).__name__}")
    return truncate, continuous, sum(model.band_reach) + 1


def truncate_and_solve(model, levels: int) -> TailSeries:
    """Stationary tails of the chain truncated at `levels`.

    The last level absorbs its own upward flow (block chains) or the summed
    overflow of each row (M/G/1 structures), keeping the finite system
    conservative.  The report's error_estimate is the mass the solver parked
    on the truncation level, which bounds how much the tails can be off; it
    shrinks geometrically as `levels` grows for any stable chain.  A band
    of more than MAX_CELLS cells raises SizeLimit before it is assembled.
    """
    _check_levels(levels, 1)
    truncate, continuous, width = _truncation(model)
    m0, m = model.m0, model.m
    states = m0 + levels * m
    if states * width > MAX_CELLS:
        raise SizeLimit(
            f"{states} states in a band {width} wide exceed the limit of {MAX_CELLS} cells"
        )
    x = stationary_row(truncate(model, levels), continuous=continuous)
    rows = x[m0:].reshape(levels, m)
    report = {"levels": levels, "error_estimate": float(rows[-1].sum())}
    # GTH has normalized x, so the suffix sums are the tails
    return TailSeries(list(_suffix_sums(rows)[:-1]), x[:m0], "truncated-oracle", report)


def sized_reference(build, levels: int, tol: float, decay: float) -> TailSeries:
    """Oracle tails of ``build(depth)`` at the first depth of a doubling
    search, up to the deepest MAX_CELLS allows (else SizeLimit), whose mass
    past it, x_L e / (1 - q) with q = x_L e / x_{L-1} e (infinite when
    q >= 1), is at most `tol` times pi_levels e; the report adds it as
    ``mass_past``.

    The search starts at levels + 1 + ceil(log min(`tol`, eps) / log
    `decay`), where `decay` is the slowest pi_levels e / pi_{levels-1} e
    among the routes.  A truncation at L moves about pi_levels e
    decay^(L + 1 - levels) of mass into the compared tails, so this start
    keeps that below min(tol, eps) decay^2 of pi_levels e, under the
    rounding of the tails themselves: normalizing spreads the truncated
    mass over every tail.  A `decay` outside (0, 1), such as NaN, starts at
    2 `levels`.  Either start is only a first guess; a depth that misses the
    mass test doubles."""
    # block sizes and band width do not change with the depth
    chain = build(1)
    width = _truncation(chain)[2]
    deepest = (MAX_CELLS // width - chain.m0) // chain.m
    if 0 < decay < 1:
        target = min(tol, np.finfo(float).eps)
        depth = levels + 1 + math.ceil(math.log(target) / math.log(decay))
    else:
        depth = 2 * levels
    depth, mass = min(depth, deepest), np.inf
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
    raise SizeLimit(f"{chain.m0 + deepest * chain.m} states (band limit {MAX_CELLS} cells) "
                    f"leave a mass of {mass:.1e} past level {deepest}, over tol of pi_{levels}")
