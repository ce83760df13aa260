"""Level-dependent quasi-birth-death chains.

Blocks may vary with the level up to a finite horizon and are frozen beyond
it, so the chain is eventually level-independent.  Two tail routes are
provided: a matrix-product accumulation driven by the level-dependent rate
sequence R_l, and a forward LU-type factorization of the generator restricted
to levels one and above.  Past the horizon h the chain is matrix-geometric
with R_h, so both routes work out levels 1..max(h, levels) and close the
rest with one geometric remainder, sum_{j>n} x_j = x_n R_h (I - R_h)^{-1};
neither has a stop rule or a cut-off.  Both read the rate sequence and the
level-0 row from solve_rate_sequence, which checks the frozen levels for
stability once.  The per-level solves of both routes, the backward pass
for R_l and the forward inversions of the pivots, are level sweeps
(matkernel.solve_sweep): one LAPACK call per level and one guard over the
stacked pivots, which names the first failing level.  The model class,
LdQbdModel, lives in qbd beside check_tables, the one check of its block
tables; a level-independent QBD (qbd.QbdModel) is the LdQbdModel whose
blocks stop changing at level 1, stored as its first three levels, so both
routes run on it as they are.  Level 0 is censored by qbd.censor_level_0,
which the QBD boundary solve shares.  truncated_generator lays the blocks
out as one generator on a finite range of levels, in band storage, which
the oracle solves; each kind of block goes in for every level at once,
through a (level, phase, level, phase) view of the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matkernel import Band, _frozen, solve_sweep, solve_xa
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


@dataclass(frozen=True)
class LdMeasures:
    """Forward-factorization blocks over a window of levels 1..count, each
    field a stack: the pivots Psi (count of them), the up and down factors
    and the inverses (-Psi_k)^{-1} of every pivot but the last (count - 1
    each)."""

    psis: np.ndarray
    up_blocks: np.ndarray
    down_blocks: np.ndarray
    inverses: np.ndarray


def solve_rate_sequence(model: LdQbdModel, tol: float = 1e-12) -> RateSequence:
    """Rate sequence R_l = -A0(l) [A1(l+1) + R_{l+1} A2(l+2)]^{-1} and the
    level-0 row.

    R at the horizon comes from the level-independent solve on the frozen
    blocks and is already the fixed point there; qbd.geometric_mass checks
    it for stability, once for every route, and one backward pass fills
    the rest.  The pass is a matkernel.solve_sweep: each R_l is one LAPACK
    solve (not a product with an inverse, which loses digits), and the
    guard runs once over the pivots, naming the pivot of R_l as level l + 1,
    whose block it censors.  qbd.censor_level_0, which QBDs share, gives
    R_0, with the m0 rows of the boundary, and the level-0 row, stationary
    for the censored boundary block A1(0) + R_0 A2(1).
    """
    h, m = model.horizon, model.m
    diag, down = model.diag, model.down
    r_h = solve_R(model.block_at("A0", h), model.block_at("A1", h),
                  model.block_at("A2", h), tol=tol).matrix
    geometric_mass(r_h)

    def pivot(l, r_next):
        # transposed, as R_l pivot = -A0(l) is solved for R_l^T
        return (diag[l + 1] + r_next @ down[min(l + 1, h - 1)]).T

    # system i gives R_l^T for l = h - 1 - i, down to l = 1
    rhs = -np.array(model.up[h - 1:0:-1]).reshape(h - 1, m, m).transpose(0, 2, 1)
    inner, _ = solve_sweep(lambda i, x, inv: pivot(h - 1 - i, r_h if x is None else x.T),
                           rhs, lambda i: f"level {h - i}")
    rs = np.ascontiguousarray(inner[::-1].transpose(0, 2, 1))
    r_0, row = censor_level_0(model, rs[0] if h > 1 else r_h)
    return RateSequence((_frozen(r_0), *_frozen(rs), _frozen(r_h)), _frozen(row), 1)


def _closed_tails(v, rows: list, r, levels: int, method: str) -> TailSeries:
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


def lu_measures(model: LdQbdModel, count: int) -> LdMeasures:
    """Forward elimination over levels 1..count of the generator with level 0
    removed: Psi_0 = A1(1), then Psi_k = A1(k+1) + Rk A0(k) with up factor
    Rk = A2(k+1) (-Psi_{k-1})^{-1} and down factor Gk-1 = (-Psi_{k-1})^{-1} A0(k).

    The inversions are one matkernel.solve_sweep: one LAPACK call per level,
    and the guard, with the check that each inverse is nonnegative (-Psi_k
    is an M-matrix), runs once after the sweep; the pivot Psi_{k-1} is named
    level k.  The inverses are kept for _apply_inverse.
    """
    if count < 1:
        raise ValidationError("need a window of at least one level")
    m = model.m
    a0 = model.blocks_at("A0", 1, count - 1)
    a1 = model.blocks_at("A1", 1, count)
    a2 = model.blocks_at("A2", 2, count)
    psis = np.empty((count, m, m))
    ups = np.empty((count - 1, m, m))
    psis[0] = a1[0]

    def advance(k, inv):
        """Psi_k and up factor k from the inverse of -Psi_{k-1}."""
        ups[k - 1] = a2[k - 1] @ inv
        psis[k] = a1[k] + ups[k - 1] @ a0[k - 1]

    def negated_pivot(i, x, inv):
        if i:
            advance(i, inv)
        return -psis[i]

    _, inverses = solve_sweep(
        negated_pivot, np.empty((count - 1, m, 0)), lambda i: f"level {i + 1}",
        refuse=("pivot inverse has negative entries",
                lambda inv: inv.min(axis=(1, 2)) < -1e-9),
    )
    if count > 1:
        advance(count - 1, inverses[-1])
    downs = inverses @ a0
    return LdMeasures(_frozen(psis), _frozen(ups), _frozen(downs),
                      _frozen(np.ascontiguousarray(inverses)))


def _apply_inverse(measures: LdMeasures, last, rows: list) -> list:
    """Row-block solve t M = w through the factored window generator M
    whose last pivot is replaced by `last`.  The pivots before it are
    applied through the kept inverses, Psi_k^{-1} = -(-Psi_k)^{-1}; only
    `last` is solved."""
    n = len(measures.psis)
    forward = [rows[0]]
    for i in range(1, n):
        forward.append(rows[i] + forward[-1] @ measures.down_blocks[i - 1])
    heads = np.array(forward[:-1]).reshape(n - 1, 1, len(last))
    middle = -np.matmul(heads, measures.inverses)[:, 0]
    out = [solve_xa(last, forward[-1])]
    for i in range(n - 2, -1, -1):
        out.append(middle[i] + out[-1] @ measures.up_blocks[i])
    return out[::-1]


def tails_lu_ld(model: LdQbdModel, rates: RateSequence, levels: int) -> TailSeries:
    """Tails through the forward factorization of the level-1-and-up generator.

    The window spans levels 1..n with n = max(horizon, levels).  Its last
    block is censored to A1(n) + R_h A2(n+1), so the window generator M is
    exact for the levels it holds.  With the level-0 row v from `rates`, the
    level rows solve t M = -(v A0(0), 0, ...) by one pass through the
    factors; the frozen levels past n are added in closed form, and the
    tails are normalized suffix sums, so the work is linear in n.  The
    pivots are inverted in one sweep (lu_measures), and the pass multiplies
    by those inverses, so the route makes a fixed number of guarded solves
    at any depth: the censored last block and the closed remainder.  The
    report carries the window width as `terms`.
    """
    h = model.horizon
    n = max(h, levels)
    r = rates.matrices[h]
    v = rates.boundary_row
    measures = lu_measures(model, n)
    last = measures.psis[-1] + r @ model.block_at("A2", n + 1)
    source = [-(v @ model.block_at("A0", 0))] + [np.zeros(model.m)] * (n - 1)
    return _closed_tails(v, _apply_inverse(measures, last, source), r, levels, "lu-rg")
