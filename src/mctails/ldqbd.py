"""Level-dependent quasi-birth-death chains.

Blocks may vary with the level up to a finite horizon and are frozen beyond
it, so the chain is eventually level-independent.  Past the horizon h it is
matrix-geometric with the rate matrix R_h of the frozen blocks, which
horizon_rate solves and checks for stability, once for every route.  Both
tail routes read R_h alone, to censor a window of levels n >= h on the
levels at and below it (_censored_window), and fold that window once by GTH
state reduction (matkernel.stationary_row), which needs no subtraction:
they are the two RG-factorizations of the window.  The matrix-product route
folds the window of levels 0..h from its deepest state down, a UL-type
elimination whose back-substitution is x_{l+1} = x_l R_l, and works out
the levels past h as x_h R_h^j; the LU-type route folds the window of
levels 0..max(h, levels) from state 0 up.  Both close the levels past the
last row n with one geometric remainder, sum_{j>n} x_j = x_n R_h (I - R_h)^{-1};
neither has a stop rule or a cut-off.  The model class, LdQbdModel, lives
in qbd beside check_tables, the one check of its block tables, and keeps
each table as one stack, read by block_at and blocks_at alone; a
level-independent QBD (qbd.QbdModel) is the LdQbdModel whose blocks stop
changing at level 1, stored as its first three levels, so both routes run
on it as they are.  truncated_generator lays the blocks out as one
generator on a finite range of levels, in band storage, which the oracle
and both routes fold; each kind of block goes in for every level at once,
from blocks_at, through a (level, phase, level, phase) view of the band.
"""

from __future__ import annotations

import numpy as np

from .matkernel import Band, solve_xa, stationary_row
from .qbd import LdQbdModel, geometric_mass, solve_R
from .series import TailSeries, _from_levels, _powers


def truncated_generator(model: LdQbdModel, levels: int) -> Band:
    """The generator on levels 0..`levels` in band storage: level 0 takes
    the first m0 states and level k >= 1 the m states after it.  The last
    level keeps its upward flow on its own diagonal block, so every row
    still sums to zero."""
    m0, m = model.m0, model.m
    lower, upper = model.band_reach
    band = Band.zeros(m0 + levels * m, lower, upper)
    q = band.view()
    q[:m0, :m0] = model.block_at("A1", 0)
    q[:m0, m0:m0 + m] = model.block_at("A0", 0)
    q[m0:m0 + m, :m0] = model.block_at("A2", 1)
    # levels 1..levels as a (level, phase, level, phase) view of q
    grid = q[m0:, m0:].reshape(levels, m, levels, m)
    rows = np.arange(levels)
    local = model.blocks_at("A1", 1, levels)
    local[-1] += model.block_at("A0", levels)
    grid[rows, :, rows, :] = local
    grid[rows[:-1], :, rows[1:], :] = model.blocks_at("A0", 1, levels - 1)
    grid[rows[1:], :, rows[:-1], :] = model.blocks_at("A2", 2, levels)
    return band


def horizon_rate(model: LdQbdModel, tol: float = 1e-12) -> np.ndarray:
    """R_h, the rate matrix of the frozen levels past the horizon h, from
    the level-independent solve on their blocks; qbd.geometric_mass checks
    it for stability."""
    h = model.horizon
    r_h = solve_R(model.block_at("A0", h), model.block_at("A1", h),
                  model.block_at("A2", h), tol=tol).matrix
    geometric_mass(r_h)
    return r_h


def _closed_tails(v, rows, r, levels: int, method: str) -> TailSeries:
    """The tails of the level-0 row v and the rows x_1..x_n, n at or past the
    horizon, whose frozen levels past n hold x_n R_h (I - R_h)^{-1}."""
    remainder = solve_xa(np.eye(len(r)) - r, rows[-1] @ r)
    return _from_levels(rows, levels, method, {"terms": len(rows)}, v, remainder)


def _censored_window(model: LdQbdModel, r_h, n: int) -> Band:
    """truncated_generator on levels 0..n, n at or past the horizon, with
    the last diagonal block A1(n) + R_h A2(n+1): level n censored on the
    levels at and below it, so the window's stationary row is exact for
    the levels it holds, up to one scale."""
    band = truncated_generator(model, n)
    band.view()[-model.m:, -model.m:] = model.block_at("A1", n) + r_h @ model.block_at("A2", n + 1)
    return band


def stationary_product(model: LdQbdModel, r_h, levels: int) -> TailSeries:
    """Tails by the matrix product x_{l+1} = x_l R_l, given R_h from
    horizon_rate.

    matkernel.stationary_row folds the censored window of levels 0..h
    (_censored_window) once, from its deepest state down: the UL-type
    elimination whose pivots are those of
    R_l = -A0(l) [A1(l+1) + R_{l+1} A2(l+2)]^{-1}, formed by GTH with no
    subtraction.  Its back-substitution from state 0 up is then
    x_{l+1} = x_l R_l, with R_l kept in factored form.  The rows past h
    are x_h R_h^j (series._powers), the frozen levels past
    max(h, levels) are added in closed form, and the whole is normalized
    and suffix-summed.  The fold is per-state Python work, as in
    tails_lu_ld: alone, at 100 levels of a modulated chain with horizon 100,
    the route takes 0.5 ms at 2 phases, 1.5 ms at 4, 7 ms at 8 and 35 ms at
    32, and 1.0 ms at 25 levels of the 2-phase retrial chain at horizon 200
    (best of 50, one BLAS thread, 2-vCPU x86-64).  The report carries the
    rows worked out as `terms`.
    """
    h, m0, m = model.horizon, model.m0, model.m
    x = stationary_row(_censored_window(model, r_h, h))
    rows = x[m0:].reshape(h, m)
    if levels > h:
        rows = np.concatenate((rows, _powers(rows[-1] @ r_h, r_h, levels - h)))
    return _closed_tails(x[:m0], rows, r_h, levels, "matrix-product")


def tails_lu_ld(model: LdQbdModel, r_h, levels: int) -> TailSeries:
    """Tails by one forward GTH fold of the censored window of levels 0..n,
    n = max(horizon, levels), given R_h from horizon_rate.

    The window (_censored_window) has its state order reversed, so that
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
    band = _censored_window(model, r_h, n)
    # entry (i, j) of the reversed matrix is entry (N-1-i, N-1-j): the cells
    # turn end for end and the reaches swap
    reversed_band = Band(band.cells[::-1, ::-1], band.cells.shape[1] - 1 - band.lower)
    x = stationary_row(reversed_band)[::-1]
    return _closed_tails(x[:m0], x[m0:].reshape(n, m), r_h, levels, "lu-rg")
