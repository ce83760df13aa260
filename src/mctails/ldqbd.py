"""Level-dependent quasi-birth-death chains.

Blocks may vary with the level up to a finite horizon and are frozen beyond
it, so the chain is eventually level-independent.  Past the horizon h it is
matrix-geometric with the rate matrix R_h of the frozen blocks, which
horizon_rate solves and checks for stability, once for every route.  Two
tail routes read R_h.  The matrix-product route multiplies out the
level-dependent rate sequence R_l, which solve_rate_sequence fills in one
backward level sweep (matkernel.solve_sweep: one LAPACK call per level and
one guard over the stacked pivots, which names the first failing level);
level 0 is censored by qbd.censor_level_0, which the QBD boundary solve
shares.  The LU-type route folds the generator of levels 0..n, censored at
level n, by GTH state reduction (matkernel.stationary_row) from state 0
upward, the opposite direction to the sweep; the fold needs no
subtraction.  Both routes work out levels 1..n, n = max(h, levels), and
close the rest with one geometric remainder,
sum_{j>n} x_j = x_n R_h (I - R_h)^{-1}; neither has a stop rule or a
cut-off.  The model class, LdQbdModel, lives in qbd beside check_tables,
the one check of its block tables; a level-independent QBD (qbd.QbdModel)
is the LdQbdModel whose blocks stop changing at level 1, stored as its
first three levels, so both routes run on it as they are.
truncated_generator lays the blocks out as one generator on a finite range
of levels, in band storage, which the oracle and the LU-type route fold;
each kind of block goes in for every level at once, through a (level,
phase, level, phase) view of the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matkernel import Band, _frozen, solve_sweep, solve_xa, stationary_row
from .qbd import LdQbdModel, censor_level_0, geometric_mass, solve_R
from .series import TailSeries, _from_levels


def truncated_generator(model: LdQbdModel, levels: int) -> Band:
    """The generator on levels 0..`levels` in band storage: level 0 takes
    the first m0 states and level k >= 1 the m states after it.  The last
    level keeps its upward flow on its own diagonal block, so every row
    still sums to zero."""
    m0, m = model.m0, model.m
    lower, upper = model.band_reach
    band = Band.zeros(m0 + levels * m, lower, upper)
    q = band.view()
    q[:m0, :m0] = model.diag[0]
    q[:m0, m0:m0 + m] = model.up[0]
    q[m0:m0 + m, :m0] = model.down[0]
    # levels 1..levels as a (level, phase, level, phase) view of q
    grid = q[m0:, m0:].reshape(levels, m, levels, m)
    rows = np.arange(levels)
    local = model.blocks_at("A1", 1, levels)
    local[-1] += model.block_at("A0", levels)
    grid[rows, :, rows, :] = local
    grid[rows[:-1], :, rows[1:], :] = model.blocks_at("A0", 1, levels - 1)
    grid[rows[1:], :, rows[:-1], :] = model.blocks_at("A2", 2, levels)
    return band


@dataclass(frozen=True)
class RateSequence:
    """Level-dependent rate matrices, x_{l+1} = x_l R_l, for l = 0..horizon,
    and the unnormalized level-0 row they make stationary."""

    matrices: tuple
    boundary_row: np.ndarray
    backward_sweeps: int


def horizon_rate(model: LdQbdModel, tol: float = 1e-12) -> np.ndarray:
    """R_h, the rate matrix of the frozen levels past the horizon h, from
    the level-independent solve on their blocks; qbd.geometric_mass checks
    it for stability."""
    h = model.horizon
    r_h = solve_R(model.block_at("A0", h), model.block_at("A1", h),
                  model.block_at("A2", h), tol=tol).matrix
    geometric_mass(r_h)
    return r_h


def solve_rate_sequence(model: LdQbdModel, r_h) -> RateSequence:
    """Rate sequence R_l = -A0(l) [A1(l+1) + R_{l+1} A2(l+2)]^{-1} and the
    level-0 row, given R_h from horizon_rate.

    R_h is already the fixed point at the horizon, and one backward pass
    fills the rest.  The pass is a matkernel.solve_sweep: each R_l is one
    LAPACK solve (not a product with an inverse, which loses digits), and
    the guard runs once over the pivots, naming the pivot of R_l as level
    l + 1, whose block it censors.  qbd.censor_level_0, which QBDs share,
    gives R_0, with the m0 rows of the boundary, and the level-0 row,
    stationary for the censored boundary block A1(0) + R_0 A2(1).
    """
    h, m = model.horizon, model.m
    diag, down = model.diag, model.down

    def pivot(l, r_next):
        # transposed, as R_l pivot = -A0(l) is solved for R_l^T
        return (diag[l + 1] + r_next @ down[min(l + 1, h - 1)]).T

    # system i gives R_l^T for l = h - 1 - i, down to l = 1
    rhs = -np.array(model.up[h - 1:0:-1]).reshape(h - 1, m, m).transpose(0, 2, 1)
    inner, _ = solve_sweep(lambda i, x, inv: pivot(h - 1 - i, r_h if x is None else x.T),
                           rhs, lambda i: f"level {h - i}")
    rs = np.ascontiguousarray(inner[::-1].transpose(0, 2, 1))
    r_0, row = censor_level_0(model, rs[0] if h > 1 else r_h)
    return RateSequence((_frozen(r_0), *_frozen(rs), r_h), _frozen(row), 1)


def _closed_tails(v, rows, r, levels: int, method: str) -> TailSeries:
    """The tails of the level-0 row v and the rows x_1..x_n, n at or past the
    horizon, whose frozen levels past n hold x_n R_h (I - R_h)^{-1}."""
    remainder = solve_xa(np.eye(len(r)) - r, rows[-1] @ r)
    return _from_levels(rows, levels, method, {"terms": len(rows)}, v, remainder)


def stationary_product(model: LdQbdModel, rates: RateSequence, levels: int) -> TailSeries:
    """Tails by multiplying out the level rows x_{j+1} = x_j R_j.

    The level-0 row v is the one `rates` carries.  Rows 1..max(horizon,
    levels) are multiplied out, the frozen levels past them are added in
    closed form, and the whole is normalized and suffix-summed.  The report
    carries the rows multiplied as `terms`.
    """
    h = model.horizon
    rs = rates.matrices
    v = rates.boundary_row
    rows = [v @ rs[0]]
    for j in range(1, max(h, levels)):
        rows.append(rows[-1] @ rs[min(j, h)])
    return _closed_tails(v, rows, rs[h], levels, "matrix-product")


def tails_lu_ld(model: LdQbdModel, r_h, levels: int) -> TailSeries:
    """Tails by one forward GTH fold of the censored window of levels 0..n,
    n = max(horizon, levels), given R_h from horizon_rate.

    truncated_generator lays the window out, and its last diagonal block
    becomes A1(n) + R_h A2(n+1), level n censored on the levels at and
    below it, so the window's stationary row is exact for the levels it
    holds, up to one scale.  The band's state order is reversed, so that
    matkernel.stationary_row folds state 0 first and works upward: an
    LU-type elimination, with the LU factors' divisions and no subtraction,
    so every entry keeps its relative accuracy.  The frozen levels past n
    are added in closed form and the tails are normalized suffix sums.  The
    work is linear in n.  Blocks of up to 4 phases fold on Python floats,
    wider ones on numpy slices (matkernel.FLOAT_FOLD_CELLS): alone, at 100
    levels, the route takes 1.3 ms on the 2-phase retrial chain at horizon
    200, 1.7 ms on a 4-phase modulated QBD and 43 ms on a 32-phase one
    (best of 20, one BLAS thread, 2-vCPU x86-64).  The report carries the
    window width as `terms`.
    """
    m0, m = model.m0, model.m
    n = max(model.horizon, levels)
    band = truncated_generator(model, n)
    band.view()[-m:, -m:] = model.block_at("A1", n) + r_h @ model.block_at("A2", n + 1)
    # entry (i, j) of the reversed matrix is entry (N-1-i, N-1-j): the cells
    # turn end for end and the reaches swap
    reversed_band = Band(band.cells[::-1, ::-1], band.cells.shape[1] - 1 - band.lower)
    x = stationary_row(reversed_band)[::-1]
    return _closed_tails(x[:m0], x[m0:].reshape(n, m), r_h, levels, "lu-rg")
