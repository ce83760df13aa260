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
stacked pivots, which names the first failing level.  The model checks its
blocks the same way, as one stack per table, and walks the levels only to
name an offender.  truncated_generator lays the blocks out as one dense
generator on a finite range of levels, which the oracle solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matkernel import _frozen, as_matrix, solve_sweep, solve_xa, stationary_row
from .qbd import (
    ROWSUM_TOL,
    QbdModel,
    _check_generator_block,
    _check_nonnegative,
    _check_zero_rowsums,
    geometric_mass,
    solve_R,
)
from .series import TailSeries


def _as_blocks(blocks, name: str, first: int) -> tuple:
    """A block table as (first block, the rest), each block coerced by
    as_matrix's rules.  The rest go through one np.array call and come back
    stacked; only when they do not stack into finite matrices does
    as_matrix walk them, naming the first offender, and they come back as a
    list."""
    head = as_matrix(blocks[0], name.format(first))
    try:
        rest = np.array(blocks[1:], dtype=float)
        if rest.ndim == 3 and rest.size and np.isfinite(rest).all():
            return head, rest
    except (TypeError, ValueError):
        pass
    return head, [as_matrix(a, name.format(k)) for k, a in enumerate(blocks[1:], first + 1)]


def _check_blocks(table: tuple, name: str, first: int, shapes: tuple, check, holds) -> tuple:
    """Shape and sign checks of a block table from _as_blocks, whose first
    block has shape shapes[0] and the rest shapes[1].  check(block, name)
    raises on a bad sign and holds(blocks) tells whether a block or a stack
    of them is free of one.  The checks run on the stack at once; only when
    one fails do they walk the levels in order, each level's shape before
    its sign, to name the first offender.  Returns (first block, stack of
    the rest)."""
    head, rest = table
    if (isinstance(rest, np.ndarray) and head.shape == shapes[0]
            and rest.shape[1:] == shapes[1] and holds(head) and holds(rest)):
        return head, rest
    for k, blk in enumerate([head, *rest], first):
        want = shapes[0] if k == first else shapes[1]
        if blk.shape != want:
            raise ValidationError(f"{name.format(k)}: expected shape {want}")
        check(blk, name.format(k))
    return head, np.array(rest).reshape(-1, *shapes[1])


def _is_generator(blocks) -> bool:
    """No negative off-diagonal and no positive diagonal entry, in a block
    or a stack of them."""
    on = np.eye(blocks.shape[-1], dtype=bool)
    return not (np.any(blocks[..., ~on] < 0) or np.any(blocks[..., on] > 0))


def _is_nonnegative(blocks) -> bool:
    return not np.any(blocks < 0)


@dataclass(frozen=True)
class LdQbdModel:
    """Generator with level-varying tridiagonal blocks, frozen past `horizon`.

    up[k] is the flow from level k to k+1 (k = 0..horizon), diag[k] the local
    block at level k, down[k] the flow from level k to k-1 (k = 1..horizon).
    Level 0 may have a different width than the repeating levels.  Requests
    beyond the horizon clamp to the last stored block.
    """

    up: tuple
    diag: tuple
    down: tuple

    def __post_init__(self):
        if len(self.diag) < 2:
            raise ValidationError("need blocks for level 0 and at least one level above")
        if len(self.up) != len(self.diag):
            raise ValidationError("A0 and A1 must list the same levels 0..J")
        if len(self.down) != len(self.diag) - 1:
            raise ValidationError("A2 lists levels 1..J, one entry fewer than A1")
        up = _as_blocks(self.up, "A0({})", 0)
        diag = _as_blocks(self.diag, "A1({})", 0)
        down = _as_blocks(self.down, "A2({})", 1)
        m0 = diag[0].shape[0]
        m = diag[1][0].shape[0]
        if m0 != m and len(self.diag) < 3:
            raise ValidationError(
                "a distinct boundary width needs at least two levels above it"
            )
        diag = _check_blocks(diag, "A1({})", 0, ((m0, m0), (m, m)),
                             _check_generator_block, _is_generator)
        up = _check_blocks(up, "A0({})", 0, ((m0, m), (m, m)),
                           _check_nonnegative, _is_nonnegative)
        down = _check_blocks(down, "A2({})", 1, ((m, m0), (m, m)),
                             _check_nonnegative, _is_nonnegative)
        _check_zero_rowsums(diag[0].sum(axis=1) + up[0].sum(axis=1), "level-0 row")
        below = np.concatenate((down[0].sum(axis=1)[None], down[1].sum(axis=2)))
        rowsums = below + diag[1].sum(axis=2) + up[1].sum(axis=2)
        if np.max(np.abs(rowsums)) > ROWSUM_TOL:
            for k, rowsum in enumerate(rowsums, 1):
                _check_zero_rowsums(rowsum, f"level-{k} row")
        for name, (head, rest) in (("up", up), ("diag", diag), ("down", down)):
            object.__setattr__(self, name, (_frozen(head), *_frozen(rest)))

    @property
    def horizon(self) -> int:
        return len(self.diag) - 1

    @property
    def m0(self) -> int:
        return self.diag[0].shape[0]

    @property
    def m(self) -> int:
        return self.diag[1].shape[0]

    def block_at(self, name: str, level: int) -> np.ndarray:
        """Block of the given kind at a level, clamped past the horizon."""
        h = self.horizon
        if name == "A0":
            return self.up[min(level, h)]
        if name == "A1":
            return self.diag[min(level, h)]
        if name == "A2":
            if level < 1:
                raise ValidationError("A2 blocks start at level 1")
            return self.down[min(level, h) - 1]
        raise ValidationError(f"unknown block kind {name!r}")

    @classmethod
    def from_qbd(cls, model: QbdModel, horizon: int) -> "LdQbdModel":
        """Embed a level-independent chain, repeating its blocks to `horizon`."""
        if horizon < 2:
            raise ValidationError("horizon must be at least 2")
        up = [model.b0] + [model.a0] * horizon
        diag = [model.b1] + [model.a1] * horizon
        down = [model.b2] + [model.a2] * (horizon - 1)
        return cls(tuple(up), tuple(diag), tuple(down))

    @classmethod
    def from_rule(cls, up_fn, diag_fn, down_fn, horizon: int) -> "LdQbdModel":
        """Tabulate per-level callables up to the horizon."""
        if horizon < 1:
            raise ValidationError("horizon must be at least 1")
        up = tuple(up_fn(k) for k in range(horizon + 1))
        diag = tuple(diag_fn(k) for k in range(horizon + 1))
        down = tuple(down_fn(k) for k in range(1, horizon + 1))
        return cls(up, diag, down)


def truncated_generator(model: LdQbdModel, levels: int) -> np.ndarray:
    """The generator on levels 0..`levels` as one dense matrix: level 0
    takes the first m0 states and level k >= 1 the m states after it.  The
    last level keeps its upward flow on its own diagonal block, so every row
    still sums to zero."""
    m0, m = model.m0, model.m

    def start(level):
        return 0 if level == 0 else m0 + (level - 1) * m

    q = np.zeros((start(levels) + m, start(levels) + m))
    q[:m0, :m0] = model.block_at("A1", 0)
    q[:m0, m0:m0 + m] = model.block_at("A0", 0)
    for k in range(1, levels + 1):
        row = slice(start(k), start(k) + m)
        width = m0 if k == 1 else m
        q[row, start(k - 1):start(k - 1) + width] = model.block_at("A2", k)
        diag = model.block_at("A1", k)
        if k == levels:
            diag = diag + model.block_at("A0", k)
        q[row, start(k):start(k) + m] = diag
        if k < levels:
            q[row, start(k + 1):start(k + 1) + m] = model.block_at("A0", k)
    return q


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
    whose block it censors.  R_0 has the m0 rows of the boundary and is the
    one system of a second sweep.  The unnormalized level-0 row is
    stationary for the censored boundary block A1(0) + R_0 A2(1).
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
    r_1 = rs[0] if h > 1 else r_h
    first, _ = solve_sweep(lambda i, x, inv: pivot(0, r_1), -model.up[0].T[None],
                           lambda i: "level 1")
    r_0 = first[0].T.copy()
    row = stationary_row(diag[0] + r_0 @ down[0])
    return RateSequence((_frozen(r_0), *_frozen(rs), _frozen(r_h)), _frozen(row), 1)


def _closed_tails(v, rows: list, r, levels: int, method: str) -> TailSeries:
    """Normalized tails from the level-0 row v and the rows x_1..x_n of
    levels 1..n, all up to one common scale, with n at or past the horizon.

    From level n on the blocks are frozen, so x_{j+1} = x_j R_h and the
    levels past n hold x_n R_h (I - R_h)^{-1} in closed form.  Each tail is
    that remainder plus a suffix sum of the rows.
    """
    remainder = solve_xa(np.eye(len(r)) - r, rows[-1] @ r)
    tails = np.cumsum([remainder] + rows[::-1], axis=0)[:0:-1]
    kappa = 1.0 / (float(v.sum()) + float(tails[0].sum()))
    return TailSeries(list(kappa * tails[:levels]), kappa * v, method=method,
                      truncation_report={"terms": len(rows)})


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
    a0 = [model.block_at("A0", k) for k in range(1, count)]
    a1 = [model.block_at("A1", k) for k in range(1, count + 1)]
    a2 = [model.block_at("A2", k) for k in range(2, count + 1)]
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
    downs = inverses @ np.array(a0).reshape(-1, m, m)
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
