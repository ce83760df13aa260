"""Level-dependent quasi-birth-death chains.

Blocks may vary with the level up to a finite horizon and are frozen beyond
it, so the chain is eventually level-independent.  Two tail routes are
provided: a matrix-product accumulation driven by the level-dependent rate
sequence R_l, and a forward LU-type factorization of the generator restricted
to levels one and above.  Past the horizon h the chain is matrix-geometric
with R_h, so both routes work out levels 1..max(h, levels) and close the
rest with one geometric remainder, sum_{j>n} x_j = x_n R_h (I - R_h)^{-1};
neither has a stop rule or a cut-off.  truncated_generator lays the blocks
out as one dense generator on a finite range of levels, which the oracle
solves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SingularMatrix, ValidationError
from .matkernel import _frozen, as_matrix, inverse, solve_xa, stationary_row
from .qbd import (
    QbdModel,
    _check_generator_block,
    _check_nonnegative,
    _check_zero_rowsums,
    geometric_mass,
    solve_R,
)
from .series import TailSeries


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
        up = [as_matrix(a, f"A0({k})") for k, a in enumerate(self.up)]
        diag = [as_matrix(a, f"A1({k})") for k, a in enumerate(self.diag)]
        down = [as_matrix(a, f"A2({k + 1})") for k, a in enumerate(self.down)]
        m0 = diag[0].shape[0]
        m = diag[1].shape[0]
        if m0 != m and len(diag) < 3:
            raise ValidationError(
                "a distinct boundary width needs at least two levels above it"
            )
        for k, blk in enumerate(diag):
            want = (m0, m0) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A1({k}): expected shape {want}")
            _check_generator_block(blk, f"A1({k})")
        for k, blk in enumerate(up):
            want = (m0, m) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A0({k}): expected shape {want}")
            _check_nonnegative(blk, f"A0({k})")
        for k, blk in enumerate(down):
            want = (m, m0) if k == 0 else (m, m)
            if blk.shape != want:
                raise ValidationError(f"A2({k + 1}): expected shape {want}")
            _check_nonnegative(blk, f"A2({k + 1})")
        _check_zero_rowsums(diag[0].sum(axis=1) + up[0].sum(axis=1), "level-0 row")
        for k in range(1, len(diag)):
            _check_zero_rowsums(
                down[k - 1].sum(axis=1) + diag[k].sum(axis=1) + up[k].sum(axis=1),
                f"level-{k} row",
            )
        object.__setattr__(self, "up", tuple(_frozen(a) for a in up))
        object.__setattr__(self, "diag", tuple(_frozen(a) for a in diag))
        object.__setattr__(self, "down", tuple(_frozen(a) for a in down))

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
    """Level-dependent rate matrices, x_{l+1} = x_l R_l, for l = 0..horizon."""

    matrices: tuple
    backward_sweeps: int


@dataclass(frozen=True)
class LdMeasures:
    """Forward-factorization blocks over a window of levels starting at 1."""

    psis: tuple
    up_blocks: tuple
    down_blocks: tuple


def solve_rate_sequence(model: LdQbdModel, tol: float = 1e-12) -> RateSequence:
    """Rate sequence R_l = -A0(l) [A1(l+1) + R_{l+1} A2(l+2)]^{-1}.

    R at the horizon comes from the level-independent solve on the frozen
    blocks and is already the fixed point there, so one backward pass fills
    the rest.
    """
    h = model.horizon
    rs: list = [None] * (h + 1)
    rs[h] = solve_R(model.block_at("A0", h), model.block_at("A1", h),
                    model.block_at("A2", h), tol=tol).matrix
    for l in range(h - 1, -1, -1):
        pivot = model.block_at("A1", l + 1) + rs[l + 1] @ model.block_at("A2", l + 2)
        rs[l] = solve_xa(pivot, -model.block_at("A0", l))
    return RateSequence(tuple(_frozen(r) for r in rs), 1)


def _boundary_row(model: LdQbdModel, rates: RateSequence) -> np.ndarray:
    """Unnormalized level-0 row: stationary for the censored boundary block
    A1(0) + R_0 A2(1), once the frozen levels are known to be stable."""
    geometric_mass(rates.matrices[-1])
    return stationary_row(model.block_at("A1", 0) + rates.matrices[0] @ model.block_at("A2", 1))


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

    The level-0 row is stationary for the censored boundary block
    A1(0) + R_0 A2(1).  Rows 1..max(horizon, levels) are multiplied out, the
    frozen levels past them are added in closed form, and the whole is
    normalized and suffix-summed.  The report carries the rows multiplied
    as `terms`.
    """
    h = model.horizon
    rs = rates.matrices
    v = _boundary_row(model, rates)
    rows = [v @ rs[0]]
    for j in range(1, max(h, levels)):
        rows.append(rows[-1] @ rs[min(j, h)])
    return _closed_tails(v, rows, rs[h], levels, "matrix-product")


def lu_measures(model: LdQbdModel, count: int) -> LdMeasures:
    """Forward elimination over levels 1..count of the generator with level 0
    removed: Psi_0 = A1(1), then Psi_k = A1(k+1) + Rk A0(k) with up factor
    Rk = A2(k+1) (-Psi_{k-1})^{-1} and down factor Gk-1 = (-Psi_{k-1})^{-1} A0(k).
    """
    if count < 1:
        raise ValidationError("need a window of at least one level")
    psis = [model.block_at("A1", 1)]
    ups: list = []
    downs: list = []
    for k in range(1, count):
        minv = inverse(-psis[k - 1])
        if np.min(minv) < -1e-9:
            raise SingularMatrix(f"window level {k}: pivot inverse has negative entries")
        up_k = model.block_at("A2", k + 1) @ minv
        downs.append(minv @ model.block_at("A0", k))
        psis.append(model.block_at("A1", k + 1) + up_k @ model.block_at("A0", k))
        ups.append(up_k)
    return LdMeasures(tuple(psis), tuple(ups), tuple(downs))


def _apply_inverse(measures: LdMeasures, rows: list) -> list:
    """Row-block solve t M = w through the factored window generator M."""
    n = len(measures.psis)
    forward = [None] * n
    forward[0] = rows[0]
    for i in range(1, n):
        forward[i] = rows[i] + forward[i - 1] @ measures.down_blocks[i - 1]
    middle = [solve_xa(measures.psis[i], forward[i]) for i in range(n)]
    out = [None] * n
    out[n - 1] = middle[n - 1]
    for i in range(n - 2, -1, -1):
        out[i] = middle[i] + out[i + 1] @ measures.up_blocks[i]
    return out


def tails_lu_ld(model: LdQbdModel, rates: RateSequence, levels: int) -> TailSeries:
    """Tails through the forward factorization of the level-1-and-up generator.

    The window spans levels 1..n with n = max(horizon, levels).  Its last
    block is censored to A1(n) + R_h A2(n+1), so the window generator M is
    exact for the levels it holds.  With the boundary row v of the product
    route, the level rows solve t M = -(v A0(0), 0, ...) by one pass through
    the factors; the frozen levels past n are added in closed form, and the
    tails are normalized suffix sums, so the work is linear in n.  The
    report carries the window width as `terms`.
    """
    h = model.horizon
    n = max(h, levels)
    r = rates.matrices[h]
    v = _boundary_row(model, rates)
    measures = lu_measures(model, n)
    closed = measures.psis[-1] + r @ model.block_at("A2", n + 1)
    measures = replace(measures, psis=measures.psis[:-1] + (closed,))
    source = [-(v @ model.block_at("A0", 0))] + [np.zeros(model.m)] * (n - 1)
    return _closed_tails(v, _apply_inverse(measures, source), r, levels, "lu-rg")
